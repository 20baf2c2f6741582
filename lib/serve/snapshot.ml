(* Durable warm state for gcatchd (the crash-only serving story).

   A daemon restart used to mean a cold engine: every per-file memo and
   solve-cache entry gone, and the next client paying the full cold run.
   The values themselves already live in --cache-dir as {!Goengine.Store}
   entries (the per-file frontend tiers and the solve verdicts), so the
   warm state is just their names: a manifest of the keys each memory
   tier held, one Store entry (kind "snap", key "warm") that gcatchd
   rewrites after every request that changed it and preloads at boot.
   It shares the store's digest check, atomic writes and fault semantics
   on the [snapshot.read] / [snapshot.write] sites.  The pass-result
   cache needs no listing: it is disk-only.

   [check] classifies the manifest (missing / corrupt / wrong version /
   valid) from its header, without unmarshalling — and without
   trusting — the payload; gcatchd's startup validation uses that to
   fail fast on a version mismatch while a corrupt manifest is deleted
   by the next load and the daemon starts cold. *)

module Store = Goengine.Store

let kind = "snap"
let key = "warm"
let path ~dir = Store.path (Store.at dir) ~kind ~key

type manifest = {
  m_files : (string * string list) list; (* per-file stage -> memo keys *)
  m_solve : string list; (* solve-cache fingerprints *)
}

type status = Store.status =
  | Missing
  | Corrupt
  | Version_mismatch of string
  | Valid

let check ~dir : status = Store.check (Store.at dir) ~kind ~key

let save ~dir (m : manifest) : (unit, string) result =
  Result.map ignore (Store.write ~site:"snapshot" (Store.at dir) ~kind ~key m)

(* [None] on anything but a valid manifest. *)
let load ~dir : manifest option =
  Option.map fst (Store.read ~site:"snapshot" (Store.at dir) ~kind ~key)
