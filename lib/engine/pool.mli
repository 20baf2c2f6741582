(** A plain domain pool — the parallel substrate for per-scope BMOC
    detection, the traditional checkers' per-function walks and the
    frontend's per-file stages.

    Every fan-out in the analysis is flat and its items are independent
    (disentangling gives each channel its own scope), so an item needs
    no suspension: it runs to completion on whichever participant took
    it.  The pool is [jobs - 1] worker domains plus the thread that
    submits a {!map}.  A submitted batch joins one shared queue under a
    mutex and a condition variable; workers take its items one at a
    time, and the submitter takes items of its own batch too, then waits
    for the rest.  Any thread may submit a batch, and batches from
    several threads share the workers.

    Determinism: {!map} returns results in input order regardless of
    which domain ran which item, and re-raises the exception of the
    smallest failing index, so parallel callers produce byte-identical
    output for [jobs = 1] and [jobs = N] (given a per-item-deterministic
    [f]).

    A {!map} called from inside an item runs inline: the outer fan-out
    already keeps every participant busy. *)

type t

val create : ?jobs:int -> unit -> t
(** A pool of [jobs - 1] worker domains (the submitting thread is the
    [jobs]-th participant of each batch).  [jobs <= 1] spawns no domains
    and makes {!map} run sequentially. *)

val get : jobs:int -> t
(** A process-wide shared pool of the given size; repeated calls with
    the same [jobs] return the same pool (worker domains are a bounded
    resource — engines should share them). *)

val sequential : t
(** The shared one-participant pool: {!map} runs inline. *)

val jobs : t -> int

val default_jobs : unit -> int
(** [GCATCH_JOBS] when set and well-formed, else
    [Domain.recommended_domain_count ()].  A malformed value logs one
    structured warning and falls back to the hardware recommendation. *)

val recommended_jobs : unit -> int
(** Same answer as {!default_jobs}, cached for the process lifetime.
    {!map} consults it on every call for its inline fast path. *)

val jobs_of_env : string option -> int
(** The parsing behind {!default_jobs}, exposed for tests: [None] and
    malformed values resolve to [Domain.recommended_domain_count ()]
    (the malformed case logging a warning); a well-formed [n >= 1] is
    returned as-is. *)

val map : pool:t -> ?grain:int -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map] preserving input order.  Each item runs under
    the submitter's open trace spans, inside its own [pool.task] span.
    If items raise, the exception of the smallest failing index is
    re-raised in the caller with its backtrace — after all items have
    finished, so side effects (metrics, memo state) are
    schedule-independent.

    [grain] (default 1) sets a minimum number of items per dispatched
    item: consecutive chunks of up to [grain] items each run inline on
    one participant, so tiny work items skip the dispatch overhead.  A
    batch that fits in a single chunk runs entirely inline.  Chunking
    keeps the deterministic smallest-failing-index exception choice;
    callers must derive [grain] from the input alone (never from the job
    count) so counters stay schedule-independent.

    Batches of at most two items, pools of one participant, a [map]
    from inside an item, and any call when {!recommended_jobs} is 1
    (e.g. [GCATCH_JOBS=1] or a single hardware thread) run inline —
    fanning out over domains that share one hardware thread is a strict
    slowdown. *)

val run : pool:t -> (unit -> 'a) list -> 'a list
(** [run ~pool thunks] = [map ~pool (fun th -> th ()) thunks]. *)

val shutdown : t -> unit
(** Join the pool's worker domains.  Only meaningful for pools from
    {!create}; shared {!get} pools live for the process. *)
