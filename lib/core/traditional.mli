(** The five traditional checkers (paper §3.5): missing unlock, double
    lock, conflicting lock order, racy struct fields (lockset), and
    testing.Fatal called from a child goroutine.

    All five read one shared {!walk}: a bounded path walk of every
    function that records its lock sites, the calls made and the fields
    touched under each lockset, and the returns that still hold a lock,
    beside a scan of every block for its lock sites' mutexes, struct
    allocations and t.Fatal calls.  Each checker is a fold over the
    walk.  The engine derives the walk once per program and all five
    passes read it; the standalone [check_*] functions derive it
    themselves.

    [metrics] arms each checker's per-function fault boundary: a
    function whose walk raises (or that would start under watchdog
    pressure) is dropped from that checker's result and accounted as
    degraded/skipped in the registry's "health.*" counters, instead of
    aborting the checker.  Without it the folds run bare.  Results are
    merged in function order, so output is identical for jobs=1 and
    jobs=N. *)

type walk

val walk :
  ?pool:Goengine.Pool.t ->
  ?prev:walk * (string -> bool) ->
  Primitives.t ->
  Goanalysis.Alias.t ->
  Goir.Ir.program ->
  walk
(** Walk every function once, fanned out over [pool] in chunks whose
    size depends only on the number of functions.  The same task scans
    all of the function's blocks for its lock sites' mutexes (the
    double-lock call summary), its struct allocation sites (the
    field-race constructor test) and, in a goroutine body, its t.Fatal
    calls (fatal-child).  A function whose walk raises keeps
    the exception, which each checker replays inside its own boundary.
    Under watchdog pressure the walk stops at function boundaries: the
    remaining functions are deferred, and a checker walks a deferred
    function itself if its boundary finds the pressure gone.

    [prev] is a complete walk of an earlier version of the program and
    the test for "this function's IR changed since".  The caller
    guarantees the earlier version's alias facts and primitive map equal
    these, so both programs list the same functions in the same order
    (asserted).  The earlier walk is taken over index by index: every
    unchanged function that walked cleanly there keeps its facts, and
    only the rest are scanned and walked. *)

val walked : walk -> int
(** Functions this walk scanned and walked itself (not taken from
    [prev]). *)

val complete : walk -> bool
(** False when pressure deferred some function. *)

type delta
(** What a walk built with [prev] walked again: those functions, and
    whether each one's scan equals the earlier one's. *)

val delta : walk -> delta option
(** [None] for a walk built without [prev]. *)

val unchanged : delta
(** The delta of a walk against itself. *)

(** {1 Checkers} *)

type ('a, 'g) checker
(** A fold over the walk: a whole-program table ['g] built from the
    scans, a per-function check producing ['a] results, and the report
    built from every function's results in function order. *)

type ('a, 'g) kept
(** A checker's per-function results over one walk, kept sparsely: the
    results of the functions that have any, the functions not checked
    cleanly (degraded or skipped), and the table the checks read. *)

val name : ('a, 'g) checker -> string
(** The pass name, e.g. ["trad.double-lock"]. *)

val run :
  ?metrics:Goobs.Metrics.t ->
  ?prior:('a, 'g) kept * delta ->
  ('a, 'g) checker ->
  walk ->
  Report.trad_bug list * ('a, 'g) kept * int
(** The report, what to keep, and the number of functions checked.
    [prior] is what the checker kept over an earlier walk, with this
    walk's delta against it.  When every scan is the same (so is the
    table) and no watchdog reports pressure, only the functions walked
    again and those not checked cleanly before are checked; the others'
    results are taken over and credited to the boundary in bulk
    ({!Goengine.Supervise.credit}).  Otherwise every function is
    checked. *)

val bugs : ?metrics:Goobs.Metrics.t -> ('a, 'g) checker -> walk -> Report.trad_bug list
(** [run] with nothing to take over: the report alone. *)

type summary
(** The double-lock call summary. *)

type ctors
(** The field-race constructor table. *)

type order_edge
type race_access

val missing_unlock : (Report.trad_bug, unit) checker
val double_lock : Goanalysis.Callgraph.t -> (Report.trad_bug, summary) checker
val lock_order : (order_edge, unit) checker
val field_race : (race_access, ctors) checker
val fatal_child : (Report.trad_bug, unit) checker

(** {1 Standalone checkers}

    Each derives the walk from pre-computed facts and runs the same
    fold as the engine pass. *)

val check_missing_unlock :
  ?pool:Goengine.Pool.t ->
  ?metrics:Goobs.Metrics.t ->
  Primitives.t ->
  Goanalysis.Alias.t ->
  Goir.Ir.program ->
  Report.trad_bug list

val check_double_lock :
  ?pool:Goengine.Pool.t ->
  ?metrics:Goobs.Metrics.t ->
  Primitives.t ->
  Goanalysis.Alias.t ->
  Goanalysis.Callgraph.t ->
  Goir.Ir.program ->
  Report.trad_bug list

val check_conflicting_order :
  ?pool:Goengine.Pool.t ->
  ?metrics:Goobs.Metrics.t ->
  Primitives.t ->
  Goanalysis.Alias.t ->
  Goir.Ir.program ->
  Report.trad_bug list

val check_field_race :
  ?pool:Goengine.Pool.t ->
  ?metrics:Goobs.Metrics.t ->
  Primitives.t ->
  Goanalysis.Alias.t ->
  Goir.Ir.program ->
  Report.trad_bug list

(** Reads no walk: the same per-instruction site test as the walk's
    scan, on every function. *)
val check_fatal_in_child :
  ?pool:Goengine.Pool.t ->
  ?metrics:Goobs.Metrics.t ->
  Goir.Ir.program ->
  Report.trad_bug list
