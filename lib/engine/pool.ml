(* A plain domain pool: worker domains and submitting threads share one
   queue of batches under a mutex and a condition variable.

   The detectors' cost is dominated by per-scope constraint problems that
   disentangling makes small and *independent* (paper §4.2, §5.2): every
   channel, every traditional-checker function walk and every file's
   frontend stage can be analysed in isolation.  Every fan-out is flat,
   so an item never waits on another item of its batch and runs to
   completion on the participant that took it.

   - A top-level [map] queues one batch: its items, a cursor handing out
     the next index, and a count of finished items.
   - Workers take the next item of the oldest batch that still has one.
     The submitter takes items of its own batch only, then waits on
     [finished] until the workers' items are done.  Whoever claims a
     [Memo] slot is therefore always running, and a waiter can block.
   - An item runs under the submitter's open-span stack, so its spans
     keep their parents on any domain.

   Determinism: [map] assembles results in input order from an
   index-addressed array, and after *all* items complete it re-raises
   the exception of the smallest failing index — both
   schedule-independent, so callers get byte-identical results for
   jobs=1 and jobs=N provided [f] itself is deterministic per item. *)

module M = Goobs.Metrics
module Trace = Goobs.Trace

(* Pool metrics go to the process-wide registry; determinism checks
   ignore the "pool." and "sched." namespaces (a --jobs 1 run dispatches
   nothing).  Looked up on each use, not cached in a [lazy]: workers on
   several domains bump them at once, and forcing one lazy from two
   domains raises [Lazy.Undefined]. *)
let m_tasks () = M.counter M.default "pool.tasks"
let m_batches () = M.counter M.default "pool.batches"
let m_items () = M.counter M.default "pool.items"
let m_spawned () = M.counter M.default "sched.tasks_spawned"

(* One submitted fan-out.  [b_run i] runs item [i] and records its
   outcome; it never raises.  The cursor and the count are guarded by
   the pool's mutex. *)
type batch = {
  b_run : int -> unit;
  b_n : int;
  b_spans : Trace.stack; (* the submitter's open spans *)
  mutable b_next : int; (* next index to hand out *)
  mutable b_done : int; (* items finished *)
}

type t = {
  jobs : int; (* participants, including the submitter *)
  mutable workers : unit Domain.t array; (* the [jobs - 1] spawned domains *)
  mu : Mutex.t;
  work : Condition.t; (* a batch was queued, or [stop] was set *)
  finished : Condition.t; (* some batch's last item finished *)
  queue : batch Queue.t; (* batches that may have items left to hand out *)
  mutable stop : bool;
}

let jobs t = t.jobs

(* Whether this domain is running a pool item: a [map] from inside one
   runs inline. *)
let in_item : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let run_item b i =
  let spans = Trace.swap_stack b.b_spans in
  let nested = Domain.DLS.get in_item in
  Domain.DLS.set in_item true;
  b.b_run i;
  Domain.DLS.set in_item nested;
  ignore (Trace.swap_stack spans)

(* Under [mu]: the next item of the oldest batch that has one, dropping
   the exhausted batches in front of it. *)
let rec take t =
  match Queue.peek_opt t.queue with
  | None -> None
  | Some b when b.b_next >= b.b_n ->
      ignore (Queue.pop t.queue);
      take t
  | Some b ->
      let i = b.b_next in
      b.b_next <- i + 1;
      Some (b, i)

let rec worker_loop t =
  Mutex.lock t.mu;
  let rec next () =
    if t.stop then None
    else
      match take t with
      | Some _ as w -> w
      | None ->
          Condition.wait t.work t.mu;
          next ()
  in
  let w = next () in
  Mutex.unlock t.mu;
  match w with
  | None -> ()
  | Some (b, i) ->
      run_item b i;
      Mutex.lock t.mu;
      b.b_done <- b.b_done + 1;
      if b.b_done = b.b_n then Condition.broadcast t.finished;
      Mutex.unlock t.mu;
      worker_loop t

let create ?(jobs = 1) () =
  let jobs = max 1 jobs in
  let t =
    {
      jobs;
      workers = [||];
      mu = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      queue = Queue.create ();
      stop = false;
    }
  in
  t.workers <- Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mu;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mu;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

(* Queue a batch of [n] items, take items of it until none is left to
   hand out, then wait until the workers' items have finished. *)
let run_batch t n run =
  let b =
    { b_run = run; b_n = n; b_spans = Trace.current_stack (); b_next = 0; b_done = 0 }
  in
  Mutex.lock t.mu;
  Queue.push b t.queue;
  Condition.broadcast t.work;
  while b.b_next < n do
    let i = b.b_next in
    b.b_next <- i + 1;
    Mutex.unlock t.mu;
    run_item b i;
    Mutex.lock t.mu;
    b.b_done <- b.b_done + 1
  done;
  while b.b_done < n do
    Condition.wait t.finished t.mu
  done;
  Mutex.unlock t.mu

(* ------------------------------------------------- recommendation --- *)

(* What the environment recommends as the useful degree of parallelism:
   [GCATCH_JOBS] when set, otherwise the hardware thread count.  A
   malformed value falls back to the hardware recommendation with one
   structured-log warning (a silent fallback to 1 used to mask typos by
   making every run sequential).  Cached — the answer is fixed for the
   process lifetime and [map] consults it on every call. *)
let jobs_of_env = function
  | None -> Domain.recommended_domain_count ()
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> n
      | _ ->
          Goobs.Log.warn
            ~kv:[ ("value", s) ]
            "malformed GCATCH_JOBS (want an integer >= 1); using the \
             hardware recommendation";
          Domain.recommended_domain_count ())

let recommended_jobs_lazy = lazy (jobs_of_env (Sys.getenv_opt "GCATCH_JOBS"))
let recommended_jobs () = Lazy.force recommended_jobs_lazy

(* ------------------------------------------------------------- map --- *)

(* Batches too small to amortise the fan-out, and any batch on a machine
   whose environment recommends a single job, run inline: distributing
   work across domains that share one hardware thread is a strict
   slowdown (domain wake-ups cost, and nothing runs concurrently
   anyway). *)
let inline_threshold = 2

(* The dispatched fan-out: every item's outcome lands in its own slot,
   and errors are re-raised for the smallest failing index only after
   all items finished (so metrics and memo state are identical whether
   or not something failed earlier). *)
let parallel_map pool f (items : 'a array) : 'b list =
  let n = Array.length items in
  M.incr (m_batches ());
  M.add (m_items ()) n;
  (* schedule-dependent by nature (a --jobs 1 run dispatches nothing):
     determinism diffs over journals exclude the pool.* events, like the
     metrics diff excludes sched.* *)
  if Goobs.Journal.enabled () then
    Goobs.Journal.emit ~event:"pool.session" [ ("jobs", Goobs.Journal.I pool.jobs) ];
  let outs = Array.make n None in
  run_batch pool n (fun i ->
      M.incr (m_tasks ());
      M.incr (m_spawned ());
      outs.(i) <-
        Some
          (try
             Trace.with_span ~name:"pool.task" (fun () ->
                 (* a "pool" fault models a worker crashing mid-item: it
                    is captured like any item exception and re-raised in
                    the caller, where the surrounding supervision
                    boundary contains it *)
                 Goobs.Faults.trigger ~site:"pool" ~key:(string_of_int i) ();
                 Ok (f items.(i)))
           with e -> Error (e, Printexc.get_raw_backtrace ())));
  (* deterministic exception choice: smallest failing index wins *)
  Array.iter
    (function Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt | _ -> ())
    outs;
  Array.to_list (Array.map (function Some (Ok v) -> v | _ -> assert false) outs)

(* The inline path keeps the dispatched path's contract: every item
   runs, then the exception of the smallest failing index is re-raised,
   so the items after a failing one run (and count) at any job count. *)
let rec inline_map f = function
  | [] -> []
  | x :: rest -> (
      match f x with
      | y -> y :: inline_map f rest
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          List.iter (fun x -> try ignore (f x) with _ -> ()) rest;
          Printexc.raise_with_backtrace e bt)

let map_items ~pool f xs =
  match xs with
  | [] -> []
  | xs ->
      if
        pool.jobs <= 1
        || List.compare_length_with xs inline_threshold <= 0
        || recommended_jobs () = 1
        || Domain.DLS.get in_item
      then inline_map f xs
      else parallel_map pool f (Array.of_list xs)

(* Split [xs] into consecutive chunks of at most [k] items. *)
let chunks k xs =
  let rec take n acc xs =
    match xs with
    | x :: rest when n > 0 -> take (n - 1) (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let rec go xs =
    match xs with
    | [] -> []
    | xs ->
        let c, rest = take k [] xs in
        c :: go rest
  in
  go xs

(* [grain] sets a minimum number of items per dispatched item: tiny
   items (a per-file lex, a cheap per-channel check) are batched into
   consecutive chunks so the dispatch overhead is paid once per chunk,
   not once per item.  Chunking must depend only on the input (never on
   [pool.jobs]): a chunk runs all its items inline left to right, so the
   first failing item of the smallest failing chunk — i.e. the globally
   smallest failing index — still wins deterministically, exactly as in
   the unchunked map. *)
let map ~pool ?(grain = 1) f xs =
  if grain <= 1 then map_items ~pool f xs
  else
    match chunks grain xs with
    | [] -> []
    | [ c ] -> inline_map f c
    | cs -> List.concat (map_items ~pool (inline_map f) cs)

let run ~pool thunks = map ~pool (fun th -> th ()) thunks

(* --------------------------------------------------- shared pools ---- *)

(* Process-wide pools, one per size: engines and CLIs asking for the same
   [jobs] share worker domains instead of spawning new ones per engine
   (tests create many engines; domains are a bounded resource). *)
let pools : (int, t) Hashtbl.t = Hashtbl.create 4
let pools_mu = Mutex.create ()

let get ~jobs =
  let jobs = max 1 jobs in
  Mutex.lock pools_mu;
  let p =
    match Hashtbl.find_opt pools jobs with
    | Some p -> p
    | None ->
        let p = create ~jobs () in
        Hashtbl.add pools jobs p;
        p
  in
  Mutex.unlock pools_mu;
  p

let sequential = get ~jobs:1

(* Default parallelism: the GCATCH_JOBS environment variable when set,
   otherwise what the hardware recommends. *)
let default_jobs = recommended_jobs
