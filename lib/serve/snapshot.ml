(* Durable warm state for gcatchd (the crash-only serving story).

   A daemon restart used to mean a cold engine: every per-file memo,
   solve-cache entry and resolved-source digest gone, and the next
   client paying the full cold run.  This module persists the warm
   state — [Engine.warm_state] (the six per-file memo tiers plus the
   value-digest table), the solve cache's memory tier, and the content
   store — as one {!Goengine.Store} entry (kind "snap", key "warm") under
   the daemon's --cache-dir, so it shares the store's digest check,
   atomic writes and fault semantics on the [snapshot.read] /
   [snapshot.write] sites.  The pass-result cache needs no snapshotting:
   it already lives in the same directory.

   [check] classifies the snapshot (missing / corrupt / wrong version /
   valid) from its header, without unmarshalling — and without
   trusting — the payload; gcatchd's startup validation uses that to
   fail fast on a version mismatch while a corrupt snapshot is deleted
   by the next load and the daemon starts cold. *)

module Store = Goengine.Store

let kind = "snap"
let key = "warm"
let path ~dir = Store.path (Store.at dir) ~kind ~key

type payload = {
  p_engine : Goengine.Engine.warm_state;
  p_solve : (string * Gcatch.Solve_cache.entry) list;
  p_store : (string * string) list; (* content digest -> source *)
}

type status = Store.status =
  | Missing
  | Corrupt
  | Version_mismatch of string
  | Valid

let check ~dir : status = Store.check (Store.at dir) ~kind ~key

let save ~dir (p : payload) : (unit, string) result =
  Result.map ignore (Store.write ~site:"snapshot" (Store.at dir) ~kind ~key p)

(* [None] on anything but a valid snapshot. *)
let load ~dir : payload option =
  Option.map fst (Store.read ~site:"snapshot" (Store.at dir) ~kind ~key)
