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

   Tables of any value types may share a [budget]: one lock, one recency
   clock and one count of the words they hold.  Budgets are unbounded by
   default (a one-shot run wants every hit it can get), but a long-lived
   server must bound them ([set_budget]).  Entries are sized with
   [Obj.reachable_words] at insertion and stamped with a recency tick on
   every hit; past the bound, the least-recently-used Done entries of
   all the budget's tables are dropped until they fit.  Computing slots
   are never evicted (a waiter may be parked on them), and eviction only
   ever discards completed values — a re-request recomputes and must
   reproduce the same bytes, which the eviction tests assert. *)

type 'v cell = { v : 'v; words : int; mutable tick : int }
type 'v slot = Computing | Done of 'v cell

type budget = {
  mu : Mutex.t;
  cv : Condition.t;
  mutable budget_words : int; (* 0 = unbounded *)
  mutable used_words : int;
  mutable clock : int;
  mutable oldest : (unit -> (int * (unit -> int)) option) list;
      (* per table, whatever its value type: the tick of its least
         recently used Done entry, with a thunk that evicts it and
         returns its size *)
}

type 'v t = { b : budget; tbl : (string, 'v slot) Hashtbl.t }

let budget () =
  {
    mu = Mutex.create ();
    cv = Condition.create ();
    budget_words = 0;
    used_words = 0;
    clock = 0;
    oldest = [];
  }

(* A table under [budget] (by default a private, unbounded one), for
   the budget's whole life.  [on_evict] is called once per entry of this
   table evicted, under the budget's lock — keep it cheap (a counter
   bump). *)
let create ?budget:b ?(on_evict = ignore) () =
  let b = match b with Some b -> b | None -> budget () in
  let tbl = Hashtbl.create 64 in
  let oldest () =
    Hashtbl.fold
      (fun k s acc ->
        match (s, acc) with
        | Done c, Some (best, _) when best <= c.tick -> acc
        | Done c, _ ->
            Some
              ( c.tick,
                fun () ->
                  Hashtbl.remove tbl k;
                  on_evict 1;
                  c.words )
        | Computing, _ -> acc)
      tbl None
  in
  Mutex.lock b.mu;
  b.oldest <- oldest :: b.oldest;
  Mutex.unlock b.mu;
  { b; tbl }

let word_bytes = Sys.word_size / 8

(* Bound every table of [b] to [bytes] together; [bytes <= 0] removes
   the bound. *)
let set_budget b ~bytes =
  Mutex.lock b.mu;
  b.budget_words <- (if bytes <= 0 then 0 else max 1 (bytes / word_bytes));
  Mutex.unlock b.mu

let size t =
  Mutex.lock t.b.mu;
  let n = Hashtbl.length t.tbl in
  Mutex.unlock t.b.mu;
  n

(* Evict least-recently-used Done entries, across every table of the
   budget, until within bound.  Called with [b.mu] held.  The scan is
   O(n) per eviction; the tables hold at most a few thousand entries
   and evictions are rare (only on insert past the bound), so this stays
   off every hot path. *)
let enforce_budget_locked b =
  while b.budget_words > 0 && b.used_words > b.budget_words do
    let victim =
      List.fold_left
        (fun acc oldest ->
          match (oldest (), acc) with
          | Some (tick, _), Some (best, _) when best <= tick -> acc
          | None, _ -> acc
          | v, _ -> v)
        None b.oldest
    in
    match victim with
    | None -> b.used_words <- 0 (* only Computing slots left *)
    | Some (_, evict) -> b.used_words <- max 0 (b.used_words - evict ())
  done

let find_or_compute (t : 'v t) (key : string) (f : unit -> 'v * bool) :
    [ `Hit of 'v | `Computed of 'v ] =
  let b = t.b in
  Mutex.lock b.mu;
  let rec claim () =
    match Hashtbl.find_opt t.tbl key with
    | Some (Done c) ->
        b.clock <- b.clock + 1;
        c.tick <- b.clock;
        `Hit c.v
    | Some Computing ->
        (* the claimant runs to completion on its own participant *)
        Condition.wait b.cv b.mu;
        claim ()
    | None ->
        Hashtbl.replace t.tbl key Computing;
        `Claimed
  in
  match claim () with
  | `Hit v ->
      Mutex.unlock b.mu;
      `Hit v
  | `Claimed -> (
      Mutex.unlock b.mu;
      match f () with
      | v, store ->
          (* Size outside the lock: reachable_words walks the value and
             must not stall concurrent lookups.  Skipped entirely when
             unbounded. *)
          let words =
            if b.budget_words > 0 then
              Obj.reachable_words (Obj.repr v) + String.length key / word_bytes + 8
            else 0
          in
          Mutex.lock b.mu;
          if store then begin
            b.clock <- b.clock + 1;
            Hashtbl.replace t.tbl key (Done { v; words; tick = b.clock });
            b.used_words <- b.used_words + words;
            enforce_budget_locked b
          end
          else Hashtbl.remove t.tbl key;
          Condition.broadcast b.cv;
          Mutex.unlock b.mu;
          `Computed v
      | exception e ->
          Mutex.lock b.mu;
          Hashtbl.remove t.tbl key;
          Condition.broadcast b.cv;
          Mutex.unlock b.mu;
          raise e)

(* The completed value under [key], if any: never claims, computes or
   waits. *)
let find_done t key =
  Mutex.lock t.b.mu;
  let r =
    match Hashtbl.find_opt t.tbl key with
    | Some (Done c) -> Some c.v
    | Some Computing | None -> None
  in
  Mutex.unlock t.b.mu;
  r
