(** The five traditional checkers (paper §3.5): missing unlock, double
    lock, conflicting lock order, racy struct fields (lockset), and
    testing.Fatal called from a child goroutine.

    The first four read one shared lockset {!walk}: a bounded path walk
    of every function that records its lock sites, the calls made and
    the fields touched under each lockset, and the returns that still
    hold a lock.  Each of those checkers is a fold over the walk.  The
    engine derives the walk once per program and all four passes read
    it; the standalone [check_*] functions derive it themselves.

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
    double-lock call summary) and its struct allocation sites (the
    field-race constructor test).  A function whose walk raises keeps
    the exception, which each checker replays inside its own boundary.
    Under watchdog pressure the walk stops at function boundaries: the
    remaining functions are deferred, and a checker walks a deferred
    function itself if its boundary finds the pressure gone.

    [prev] is a complete walk of an earlier version of the program and
    the test for "this function's IR changed since".  The caller
    guarantees the earlier version's alias facts and primitive map equal
    these; every unchanged function that walked cleanly there keeps its
    facts, and only the rest are scanned and walked. *)

val walked : walk -> int
(** Functions this walk scanned and walked itself (not taken from
    [prev]). *)

val complete : walk -> bool
(** False when pressure deferred some function. *)

val missing_unlock : ?metrics:Goobs.Metrics.t -> walk -> Report.trad_bug list
val double_lock :
  ?metrics:Goobs.Metrics.t -> Goanalysis.Callgraph.t -> walk -> Report.trad_bug list
val lock_order : ?metrics:Goobs.Metrics.t -> walk -> Report.trad_bug list
val field_race : ?metrics:Goobs.Metrics.t -> walk -> Report.trad_bug list

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

val check_fatal_in_child :
  ?pool:Goengine.Pool.t ->
  ?metrics:Goobs.Metrics.t ->
  Goir.Ir.program ->
  Report.trad_bug list
