(* An effects-based work-stealing task scheduler over per-domain
   Chase–Lev deques.

   The detectors' cost is dominated by per-scope constraint problems that
   disentangling makes small and *independent* (paper §4.2, §5.2): every
   channel, every traditional-checker function walk, and every bench app
   can be analysed in isolation.  This module supplies the parallel
   substrate they all share, built directly on OCaml 5 Domains and
   effect handlers (the build has no domainslib):

   - [Ws_deque]: a Chase–Lev circular work-stealing deque.  The owner
     pushes and pops at the bottom; thieves steal from the top with a
     compare-and-set.  OCaml's atomics are sequentially consistent, so
     the textbook algorithm carries over without explicit fences.
   - The scheduler: tasks are delimited computations run under a deep
     effect handler.  A task can [Fork] a child (pushed onto the
     executing participant's own deque), [Yield] the domain (requeued,
     and the participant switches to its *oldest* queued task so a
     polling loop cannot starve its siblings), or [Await] a promise
     (suspending until another task fills it).  Suspended continuations
     are heap-allocated fibers: any participant may steal and resume
     them, so a task migrates freely across domains between slices.
   - [t]: a pool of [jobs - 1] worker domains plus the calling domain.
     A top-level [map] (or [with_scheduler]) opens a *session*: one
     deque per participant, a root task, and the workers participate
     until the root completes.

   Determinism: [map] assembles results in input order from an
   index-addressed array of promises, and after *all* items complete it
   re-raises the exception of the smallest failing index — both
   schedule-independent, so callers get byte-identical results for
   jobs=1 and jobs=N provided [f] itself is deterministic per item.

   Nesting: a task that itself calls [map] (e.g. BMOC's per-channel fan
   out inside a parallel per-app bench sweep) forks *real* subtasks into
   the running session and awaits them — the inner fan-out is scheduled
   and stealable instead of degrading to an inline loop.

   Span handoff: each task carries its own open-span stack
   (inherited from its forking parent), swapped into the executing
   domain around every slice, so `Trace` spans survive suspension and
   close correctly after a steal. *)

module Ws_deque = struct
  type 'a t = {
    top : int Atomic.t;    (* steal end; monotonically increasing *)
    bottom : int Atomic.t; (* owner end *)
    tab : 'a option array Atomic.t; (* circular buffer, power-of-two size *)
  }

  let create ?(capacity = 16) () =
    let cap = ref 2 in
    while !cap < capacity do
      cap := !cap * 2
    done;
    {
      top = Atomic.make 0;
      bottom = Atomic.make 0;
      tab = Atomic.make (Array.make !cap None);
    }

  (* Owner-only: double the buffer, copying the live [top, bottom) range.
     Thieves reading the old array still see valid entries — the owner
     never writes into a slot of a published array while its index may be
     stolen. *)
  let grow q top bottom =
    let old = Atomic.get q.tab in
    let n = Array.length old in
    let a = Array.make (2 * n) None in
    for i = top to bottom - 1 do
      a.(i land ((2 * n) - 1)) <- old.(i land (n - 1))
    done;
    Atomic.set q.tab a

  (* Owner-only. *)
  let push q v =
    let b = Atomic.get q.bottom in
    let t = Atomic.get q.top in
    if b - t >= Array.length (Atomic.get q.tab) - 1 then grow q t b;
    let a = Atomic.get q.tab in
    a.(b land (Array.length a - 1)) <- Some v;
    (* SC atomic store publishes the slot write to thieves. *)
    Atomic.set q.bottom (b + 1)

  (* Owner-only. *)
  let pop q =
    let b = Atomic.get q.bottom - 1 in
    Atomic.set q.bottom b;
    let t = Atomic.get q.top in
    if b < t then begin
      (* deque was empty: restore *)
      Atomic.set q.bottom (b + 1);
      None
    end
    else begin
      let a = Atomic.get q.tab in
      let i = b land (Array.length a - 1) in
      let v = a.(i) in
      if b > t then begin
        a.(i) <- None;
        v
      end
      else begin
        (* last element: race the thieves for it *)
        let won = Atomic.compare_and_set q.top t (t + 1) in
        Atomic.set q.bottom (b + 1);
        if won then begin
          a.(i) <- None;
          v
        end
        else None
      end
    end

  (* Thief-safe.  Retries while the CAS loses to a competing thief (the
     competitor made progress, so the retry terminates). *)
  let rec steal q =
    let t = Atomic.get q.top in
    let b = Atomic.get q.bottom in
    if t >= b then None
    else
      let a = Atomic.get q.tab in
      let v = a.(t land (Array.length a - 1)) in
      if Atomic.compare_and_set q.top t (t + 1) then
        match v with Some _ -> v | None -> steal q
      else steal q
end

(* ------------------------------------------------------- scheduler --- *)

module M = Goobs.Metrics
module Trace = Goobs.Trace

(* Scheduler metrics go to the process-wide registry; values depend on
   the schedule (steals especially), so determinism checks must ignore
   the "pool." and "sched." namespaces.  Looked up on each use, not
   cached in a [lazy]: workers on several domains bump them at once,
   and forcing one lazy from two domains raises [Lazy.Undefined]. *)
let m_tasks () = M.counter M.default "pool.tasks"
let m_steals () = M.counter M.default "pool.steals"
let m_batches () = M.counter M.default "pool.batches"
let m_items () = M.counter M.default "pool.items"
let m_spawned () = M.counter M.default "sched.tasks_spawned"
let m_stolen () = M.counter M.default "sched.tasks_stolen"
let m_yields () = M.counter M.default "sched.yields"
let g_depth () = M.gauge M.default "sched.queue_depth"

(* A task's identity across suspensions: the open-span stack it carries
   between execution slices (see "Span handoff" above). *)
type task = { mutable t_spans : Trace.stack }

(* What an execution slice reports back to the participant loop. *)
type status = Done | Suspended

type 'a outcome = ('a, exn * Printexc.raw_backtrace) result

(* A schedulable unit: a fresh task's first slice, or a suspended
   continuation to resume.  [rn_fiber] runs under (or re-enters) the
   task's deep handler and returns only when the task completes or
   suspends again. *)
type runnable = { rn_task : task; rn_fiber : unit -> status }

type 'a waiter = {
  w_task : task;
  w_k : ('a outcome, status) Effect.Deep.continuation;
}

type 'a ivar_state = Empty of 'a waiter list | Full of 'a outcome
type 'a promise = 'a ivar_state Atomic.t

(* One top-level scheduling session: a root task plus everything it
   transitively forks.  [ses_done] is set by the root's last
   instruction; [ses_pending] counts queued-but-not-running runnables
   (the queue_depth gauge). *)
type session = {
  ses_deques : runnable Ws_deque.t array; (* one per participant *)
  ses_done : bool Atomic.t;
  ses_pending : int Atomic.t;
}

type _ Effect.t +=
  | Fork : (unit -> unit) -> unit Effect.t
  | Yield : unit Effect.t
  | Await : 'a promise -> 'a outcome Effect.t

(* Per-domain scheduler state.  [d_prev_spans] holds the *participant's
   own* span stack while a task's stack is swapped in, so suspension can
   restore it (the suspension handler saves the task's stack *before*
   publishing the continuation — a thief may resume it immediately). *)
type dsched = {
  mutable d_session : session option;
  mutable d_slot : int;
  mutable d_task : task option;
  mutable d_prev_spans : Trace.stack;
  mutable d_prefer_fifo : bool; (* after a yield: dequeue oldest-first *)
}

let sched_key : dsched Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        d_session = None;
        d_slot = 0;
        d_task = None;
        d_prev_spans = Trace.empty_stack;
        d_prefer_fifo = false;
      })

(* hot: called from every yield poll; a [match] avoids the polymorphic
   compare [<> None] would cost *)
let in_task () =
  match (Domain.DLS.get sched_key).d_task with Some _ -> true | None -> false

let enqueue ds rn =
  match ds.d_session with
  | None -> invalid_arg "Pool: cannot schedule a task outside a session"
  | Some ses ->
      Ws_deque.push ses.ses_deques.(ds.d_slot) rn;
      let d = 1 + Atomic.fetch_and_add ses.ses_pending 1 in
      M.set_gauge (g_depth ()) (float_of_int d)

(* Park the suspending task's context.  MUST run before the continuation
   becomes reachable from any deque or promise: the instant it is
   published, another domain may resume the task and swap [t_spans] in
   over there. *)
let save_task_ctx ds task =
  task.t_spans <- Trace.swap_stack ds.d_prev_spans;
  ds.d_task <- None

let restore_task_ctx ds task =
  ds.d_prev_spans <- Trace.swap_stack task.t_spans;
  ds.d_task <- Some task

(* Write-once fill; wakes every waiter by queueing its resumption on the
   filling participant's own deque (fills only happen from task bodies,
   which only run on participants). *)
let fill (iv : 'a promise) (r : 'a outcome) : unit =
  let rec go () =
    match Atomic.get iv with
    | Full _ -> invalid_arg "Pool: promise filled twice"
    | Empty ws as old ->
        if Atomic.compare_and_set iv old (Full r) then (
          match ws with
          | [] -> ()
          | ws ->
              let ds = Domain.DLS.get sched_key in
              List.iter
                (fun w ->
                  enqueue ds
                    {
                      rn_task = w.w_task;
                      rn_fiber = (fun () -> Effect.Deep.continue w.w_k r);
                    })
                (List.rev ws))
        else go ()
  in
  go ()

(* Run a fresh task under the deep handler.  The handler branches fetch
   the *current* domain's scheduler state dynamically: after a steal the
   resumed fiber re-enters these branches on a different domain, and the
   push must go to the thief's own deque to respect the owner-only
   discipline. *)
let rec run_fresh (task : task) (body : unit -> unit) : status =
  Effect.Deep.match_with body ()
    {
      retc = (fun () -> Done);
      (* task bodies are exception-wrapped by construction; an escape
         here is a scheduler bug and must not die silently in a worker *)
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Fork child ->
              Some
                (fun (k : (a, status) Effect.Deep.continuation) ->
                  let ds = Domain.DLS.get sched_key in
                  M.incr (m_spawned ());
                  (* the child inherits the forking task's open spans:
                     its own spans parent under the span that was open
                     at the fork point, wherever the child ends up
                     running *)
                  let t = { t_spans = Trace.current_stack () } in
                  enqueue ds
                    { rn_task = t; rn_fiber = (fun () -> run_fresh t child) };
                  Effect.Deep.continue k ())
          | Yield ->
              Some
                (fun (k : (a, status) Effect.Deep.continuation) ->
                  let ds = Domain.DLS.get sched_key in
                  M.incr (m_yields ());
                  save_task_ctx ds task;
                  enqueue ds
                    {
                      rn_task = task;
                      rn_fiber = (fun () -> Effect.Deep.continue k ());
                    };
                  (* round-robin after a yield: the participant takes its
                     *oldest* queued task next, so a polling task cannot
                     monopolise the domain (owner pop is LIFO and would
                     otherwise re-run the yielder immediately) *)
                  ds.d_prefer_fifo <- true;
                  Suspended)
          | Await iv ->
              Some
                (fun (k : (a, status) Effect.Deep.continuation) ->
                  match Atomic.get iv with
                  | Full r -> Effect.Deep.continue k r
                  | Empty _ ->
                      let ds = Domain.DLS.get sched_key in
                      save_task_ctx ds task;
                      let w = { w_task = task; w_k = k } in
                      let rec register () =
                        match Atomic.get iv with
                        | Full r ->
                            (* filled between the save and the CAS: the
                               continuation was never published, resume
                               in place *)
                            restore_task_ctx ds task;
                            Effect.Deep.continue k r
                        | Empty ws as old ->
                            if Atomic.compare_and_set iv old (Empty (w :: ws))
                            then Suspended
                            else register ()
                      in
                      register ())
          | _ -> None);
    }

(* ------------------------------------------------------------ pool --- *)

type t = {
  jobs : int;                       (* participants, including the caller *)
  mutable workers : unit Domain.t array; (* the [jobs - 1] spawned domains *)
  mu : Mutex.t;                     (* guards epoch/current/stop *)
  cv : Condition.t;
  mutable epoch : int;              (* bumped once per session *)
  mutable current : session option;
  mutable stop : bool;
  batch_mu : Mutex.t;               (* serializes top-level sessions *)
}

let jobs t = t.jobs

(* Idle waiting: spin briefly, then sleep with backoff.  On an
   oversubscribed machine (more participants than cores) a pure spin
   loop would steal the timeslice from the domain doing real work. *)
let idle_pause k =
  if k < 64 then Domain.cpu_relax ()
  else Unix.sleepf (if k < 512 then 0.0002 else 0.001)

(* One execution slice of [rn] on this participant: swap the task's span
   stack in, run the fiber, and on completion swap the participant's own
   stack back.  A *suspension* already restored the context from inside
   the handler (see [save_task_ctx]), so there is nothing to undo. *)
let exec ds rn =
  ds.d_task <- Some rn.rn_task;
  ds.d_prev_spans <- Trace.swap_stack rn.rn_task.t_spans;
  match rn.rn_fiber () with
  | Done ->
      ignore (Trace.swap_stack ds.d_prev_spans);
      ds.d_task <- None
  | Suspended -> ()
  | exception e ->
      (* unreachable for wrapped bodies; restore the domain before
         propagating so a scheduler bug doesn't also corrupt tracing *)
      ignore (Trace.swap_stack ds.d_prev_spans);
      ds.d_task <- None;
      raise e

let next_task ses slot ds =
  let n = Array.length ses.ses_deques in
  let mine = ses.ses_deques.(slot) in
  let after_yield =
    if ds.d_prefer_fifo then begin
      ds.d_prefer_fifo <- false;
      (* owner steals from its own top: oldest-first, the fairness path
         after a yield *)
      Ws_deque.steal mine
    end
    else None
  in
  match after_yield with
  | Some _ as r -> r
  | None -> (
      match Ws_deque.pop mine with
      | Some _ as r -> r
      | None ->
          (* own deque drained: steal round-robin from the others *)
          let rec try_steal k =
            if k >= n then None
            else
              match Ws_deque.steal ses.ses_deques.((slot + k) mod n) with
              | Some _ as r ->
                  M.incr (m_steals ());
                  M.incr (m_stolen ());
                  r
              | None -> try_steal (k + 1)
          in
          try_steal 1)

let participate (ses : session) (slot : int) =
  let ds = Domain.DLS.get sched_key in
  let saved_session = ds.d_session and saved_slot = ds.d_slot in
  ds.d_session <- Some ses;
  ds.d_slot <- slot;
  Fun.protect
    ~finally:(fun () ->
      ds.d_session <- saved_session;
      ds.d_slot <- saved_slot)
    (fun () ->
      let rec go idle =
        if not (Atomic.get ses.ses_done) then
          match next_task ses slot ds with
          | Some rn ->
              let d = Atomic.fetch_and_add ses.ses_pending (-1) - 1 in
              M.set_gauge (g_depth ()) (float_of_int (max 0 d));
              exec ds rn;
              go 0
          | None ->
              idle_pause idle;
              go (idle + 1)
      in
      go 0)

let rec worker_loop t slot my_epoch =
  Mutex.lock t.mu;
  while t.epoch = my_epoch && not t.stop do
    Condition.wait t.cv t.mu
  done;
  let epoch = t.epoch in
  let ses = t.current in
  let stop = t.stop in
  Mutex.unlock t.mu;
  if not stop then begin
    (match ses with Some s -> participate s slot | None -> ());
    worker_loop t slot epoch
  end

let create ?(jobs = 1) () =
  let jobs = max 1 jobs in
  let t =
    {
      jobs;
      workers = [||];
      mu = Mutex.create ();
      cv = Condition.create ();
      epoch = 0;
      current = None;
      stop = false;
      batch_mu = Mutex.create ();
    }
  in
  t.workers <-
    Array.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker_loop t (i + 1) 0));
  t

let shutdown t =
  Mutex.lock t.mu;
  t.stop <- true;
  Condition.broadcast t.cv;
  Mutex.unlock t.mu;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

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

(* ----------------------------------------------------- public API --- *)

let fork (f : unit -> 'a) : 'a promise =
  let iv : 'a promise = Atomic.make (Empty []) in
  let body () =
    fill iv (try Ok (f ()) with e -> Error (e, Printexc.get_raw_backtrace ()))
  in
  if in_task () then Effect.perform (Fork body)
  else
    (* outside a session there is no scheduler to defer to: run the body
       immediately and hand back an already-filled promise — callers
       (the retry ladder, tests) get identical sequential semantics *)
    body ();
  iv

let await_outcome (iv : 'a promise) : 'a outcome =
  if in_task () then Effect.perform (Await iv)
  else
    match Atomic.get iv with
    | Full r -> r
    | Empty _ ->
        invalid_arg "Pool.await: promise still pending outside the scheduler"

let await (iv : 'a promise) : 'a =
  match await_outcome iv with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let yield () = if in_task () then Effect.perform Yield

(* A stall that does not wedge the domain: inside a task, alternate
   yields (letting the scheduler run other tasks) with short sleeps
   until the wall-clock duration has passed.  Outside a task it is a
   plain sleep.  Fault-injection stall sites go through this. *)
let sleep_yielding dt =
  if not (in_task ()) then Unix.sleepf dt
  else begin
    let t0 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t0 < dt do
      yield ();
      Unix.sleepf 0.002
    done
  end

(* Enter the scheduler: run [f] as the root task of a fresh session on
   [pool], the caller participating as slot 0 until the root completes
   (the root itself may migrate to a worker; the caller keeps executing
   other tasks meanwhile).  Inside a task this is just [f ()] — the
   session already exists. *)
let with_scheduler ~pool (f : unit -> 'a) : 'a =
  let ds = Domain.DLS.get sched_key in
  if ds.d_task <> None then f ()
  else begin
    Mutex.lock pool.batch_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock pool.batch_mu)
      (fun () ->
        let ses =
          {
            ses_deques = Array.init pool.jobs (fun _ -> Ws_deque.create ());
            ses_done = Atomic.make false;
            ses_pending = Atomic.make 0;
          }
        in
        M.incr (m_batches ());
        M.incr (m_spawned ());
        (* schedule-dependent by nature (a --jobs 1 run opens no
           session at all): determinism diffs over journals exclude the
           pool.* events, like the metrics diff excludes sched.* *)
        if Goobs.Journal.enabled () then
          Goobs.Journal.emit ~event:"pool.session"
            [ ("jobs", Goobs.Journal.I pool.jobs) ];
        let outcome = ref None in
        let root = { t_spans = Trace.current_stack () } in
        let body () =
          (outcome :=
             Some
               (try Ok (f ())
                with e -> Error (e, Printexc.get_raw_backtrace ())));
          (* the SC store publishes [outcome] to the caller's domain *)
          Atomic.set ses.ses_done true
        in
        Ws_deque.push ses.ses_deques.(0)
          { rn_task = root; rn_fiber = (fun () -> run_fresh root body) };
        Atomic.incr ses.ses_pending;
        Mutex.lock pool.mu;
        pool.current <- Some ses;
        pool.epoch <- pool.epoch + 1;
        Condition.broadcast pool.cv;
        Mutex.unlock pool.mu;
        participate ses 0;
        Mutex.lock pool.mu;
        pool.current <- None;
        Mutex.unlock pool.mu;
        match !outcome with
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
  end

(* ------------------------------------------------------------- map --- *)

(* Batches too small to amortise the fan-out, and any batch on a machine
   whose environment recommends a single job, run inline: distributing
   work across domains that share one hardware thread is a strict
   slowdown (session setup, idle spinning, and domain wake-ups all cost,
   and nothing runs concurrently anyway). *)
let inline_threshold = 2

(* The scheduled fan-out: fork one subtask per item, await every promise
   in input order, then settle — errors are re-raised for the smallest
   failing index only after all items finished (so metrics and memo
   state are identical whether or not something failed earlier). *)
let scheduled_map f (items : 'a array) : 'b list =
  let n = Array.length items in
  M.add (m_items ()) n;
  let ivs =
    Array.mapi
      (fun i x ->
        fork (fun () ->
            M.incr (m_tasks ());
            Trace.with_span ~name:"pool.task" (fun () ->
                (* a "pool" fault models a worker crashing mid-task: it
                   is captured like any task exception and re-raised in
                   the caller, where the surrounding supervision
                   boundary contains it *)
                (match Goobs.Faults.fire ~site:"pool" ~key:(string_of_int i) () with
                | None -> ()
                | Some Goobs.Faults.Stall -> sleep_yielding Goobs.Faults.stall_s
                | Some _ -> raise (Goobs.Faults.Injected ("pool", string_of_int i)));
                f x)))
      items
  in
  let outs = Array.make n None in
  for i = 0 to n - 1 do
    outs.(i) <- Some (await_outcome ivs.(i))
  done;
  (* deterministic exception choice: smallest failing index wins *)
  Array.iter
    (function
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | _ -> ())
    outs;
  Array.to_list
    (Array.map (function Some (Ok v) -> v | _ -> assert false) outs)

let map_items ~pool f xs =
  match xs with
  | [] -> []
  | xs ->
      if in_task () then
        (* nested map: fork real subtasks into the running session
           (whatever [pool] was passed — the session owns the domains) *)
        (match xs with
        | [ x ] -> [ f x ]
        | xs -> scheduled_map f (Array.of_list xs))
      else
        let n = List.length xs in
        if pool.jobs <= 1 || n <= inline_threshold || recommended_jobs () = 1
        then List.map f xs
        else
          with_scheduler ~pool (fun () -> scheduled_map f (Array.of_list xs))

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

(* [grain] sets a minimum number of items per forked task: tiny items
   (a per-file lex, a cheap per-channel check) are batched into
   consecutive chunks so the fork/await overhead is paid once per chunk,
   not once per item.  Chunking must depend only on the input (never on
   [pool.jobs]): a chunk runs its items inline left to right, so the
   first failing item of the smallest failing chunk — i.e. the globally
   smallest failing index — still wins deterministically, exactly as in
   the unchunked map. *)
let map ~pool ?(grain = 1) f xs =
  if grain <= 1 then map_items ~pool f xs
  else
    match chunks grain xs with
    | [] -> []
    | [ c ] -> List.map f c
    | cs -> List.concat (map_items ~pool (List.map f) cs)

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
