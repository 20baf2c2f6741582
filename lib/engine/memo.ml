(* A promise-keyed concurrent memo table.

   [find_or_compute] gives at-most-once computation per key across
   domains: the first caller claims the key and computes; concurrent
   callers with the same key *wait* on the promise instead of computing
   redundantly.  This matters beyond wasted work — memoized computations
   often bump metrics counters internally, and running one twice under
   jobs=N but once under jobs=1 would make those counters
   schedule-dependent.  With the promise discipline, a fixed key set
   produces exactly one computation per key whatever the schedule.

   The compute function returns [(value, store)]; [store = false] marks
   a result that must not be cached (e.g. a verdict cut short by a
   timeout): the slot is released and any waiter recomputes.  An
   exception likewise releases the slot and re-raises in the claimant
   only.

   Tables are unbounded by default (a one-shot run wants every hit it
   can get), but a long-lived server must bound them: [set_budget]
   attaches a byte budget.  Entries are sized with [Obj.reachable_words]
   at insertion and stamped with a recency tick on every hit; when the
   budget is exceeded the least-recently-used Done entries are dropped
   until the table fits.  Computing slots are never evicted (a waiter
   may be parked on them), and eviction only ever discards completed
   values — a re-request recomputes and must reproduce the same bytes,
   which the eviction tests assert. *)

type 'v cell = { v : 'v; words : int; mutable tick : int }
type 'v slot = Computing | Done of 'v cell

type 'v t = {
  mu : Mutex.t;
  cv : Condition.t;
  tbl : (string, 'v slot) Hashtbl.t;
  mutable budget_words : int; (* 0 = unbounded *)
  mutable used_words : int;
  mutable clock : int;
  mutable on_evict : int -> unit;
}

let create () =
  {
    mu = Mutex.create ();
    cv = Condition.create ();
    tbl = Hashtbl.create 64;
    budget_words = 0;
    used_words = 0;
    clock = 0;
    on_evict = ignore;
  }

let word_bytes = Sys.word_size / 8

(* [bytes = 0] removes the bound.  [on_evict] is called with the number
   of entries dropped, outside any per-entry loop but under the table
   lock — keep it cheap (a counter bump). *)
let set_budget ?(on_evict = ignore) t ~bytes =
  Mutex.lock t.mu;
  t.budget_words <- (if bytes <= 0 then 0 else max 1 (bytes / word_bytes));
  t.on_evict <- on_evict;
  Mutex.unlock t.mu

let reset t =
  Mutex.lock t.mu;
  (* never discard an in-flight computation's slot: the claimant would
     later mark Done on a table the waiters no longer watch — keep
     Computing slots, drop completed ones *)
  let live =
    Hashtbl.fold
      (fun k s acc -> match s with Computing -> (k, s) :: acc | Done _ -> acc)
      t.tbl []
  in
  Hashtbl.reset t.tbl;
  List.iter (fun (k, s) -> Hashtbl.replace t.tbl k s) live;
  t.used_words <- 0;
  Mutex.unlock t.mu

let size t =
  Mutex.lock t.mu;
  let n = Hashtbl.length t.tbl in
  Mutex.unlock t.mu;
  n

(* Evict least-recently-used Done entries until within budget.  Called
   with [t.mu] held.  The scan is O(n) per eviction; tables hold at most
   a few thousand entries and evictions are rare (only on insert past
   the bound), so this stays off every hot path. *)
let enforce_budget_locked t =
  if t.budget_words > 0 then begin
    let evicted = ref 0 in
    while t.used_words > t.budget_words do
      let victim = ref None in
      Hashtbl.iter
        (fun k s ->
          match s with
          | Computing -> ()
          | Done c -> (
              match !victim with
              | Some (_, best) when best.tick <= c.tick -> ()
              | _ -> victim := Some (k, c)))
        t.tbl;
      match !victim with
      | None -> t.used_words <- 0 (* only Computing slots left *)
      | Some (k, c) ->
          Hashtbl.remove t.tbl k;
          t.used_words <- t.used_words - c.words;
          if t.used_words < 0 then t.used_words <- 0;
          incr evicted
    done;
    if !evicted > 0 then t.on_evict !evicted
  end

let find_or_compute (t : 'v t) (key : string) (f : unit -> 'v * bool) :
    [ `Hit of 'v | `Computed of 'v ] =
  Mutex.lock t.mu;
  let rec claim () =
    match Hashtbl.find_opt t.tbl key with
    | Some (Done c) ->
        t.clock <- t.clock + 1;
        c.tick <- t.clock;
        `Hit c.v
    | Some Computing ->
        (* the claimant runs to completion on its own participant *)
        Condition.wait t.cv t.mu;
        claim ()
    | None ->
        Hashtbl.replace t.tbl key Computing;
        `Claimed
  in
  match claim () with
  | `Hit v ->
      Mutex.unlock t.mu;
      `Hit v
  | `Claimed -> (
      Mutex.unlock t.mu;
      match f () with
      | v, store ->
          (* Size outside the lock: reachable_words walks the value and
             must not stall concurrent lookups.  Skipped entirely when
             unbounded. *)
          let words =
            if t.budget_words > 0 then
              Obj.reachable_words (Obj.repr v) + String.length key / word_bytes + 8
            else 0
          in
          Mutex.lock t.mu;
          if store then begin
            t.clock <- t.clock + 1;
            Hashtbl.replace t.tbl key (Done { v; words; tick = t.clock });
            t.used_words <- t.used_words + words;
            enforce_budget_locked t
          end
          else Hashtbl.remove t.tbl key;
          Condition.broadcast t.cv;
          Mutex.unlock t.mu;
          `Computed v
      | exception e ->
          Mutex.lock t.mu;
          Hashtbl.remove t.tbl key;
          Condition.broadcast t.cv;
          Mutex.unlock t.mu;
          raise e)

(* The completed value under [key], if any: never claims, computes or
   waits. *)
let find_done t key =
  Mutex.lock t.mu;
  let r =
    match Hashtbl.find_opt t.tbl key with
    | Some (Done c) -> Some c.v
    | Some Computing | None -> None
  in
  Mutex.unlock t.mu;
  r

(* Seed [key] from [load] when absent, with the same at-most-once claim
   and budget charge as a computation; [load] returning [None] leaves the
   key absent.  True when an entry was loaded. *)
let preload t key load =
  let exception Absent in
  match
    find_or_compute t key (fun () ->
        match load () with Some v -> (v, true) | None -> raise Absent)
  with
  | `Computed _ -> true
  | `Hit _ | (exception Absent) -> false
