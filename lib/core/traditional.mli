(** The five traditional checkers (paper §3.5): missing unlock, double
    lock, conflicting lock order, racy struct fields (lockset), and
    testing.Fatal called from a child goroutine.

    Every checker walks functions independently; passing [pool] fans the
    per-function walks out across domains.  Results are merged back in
    function order, so output is identical for jobs=1 and jobs=N. *)

(** Each checker takes pre-computed facts, so the staged engine shares
    one alias/callgraph/primitive computation across all of them (each
    is registered as its own engine pass).

    [metrics] arms the per-function fault boundary: a function whose
    walk raises (or that would start under watchdog pressure) is dropped
    from the result and accounted as degraded/skipped in the registry's
    "health.*" counters, instead of aborting the checker.  Without it
    the walks run bare. *)

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
