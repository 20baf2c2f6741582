module M = Goobs.Metrics
module Trace = Goobs.Trace

(* Content-addressed cache of per-channel BMOC verdicts (the PR-4 engine
   tier).

   The key is a fingerprint — a digest of the *canonical per-channel
   problem*: the channel's identity and configuration, the scope, the
   feasibility-filtered (and, when enabled, deduplicated) path
   combinations, the kind/buffer/Pset facts of every primitive those
   combinations mention, and every detector knob that can change a
   verdict.  Anything that could alter the bug list is folded into the
   key, so invalidation is automatic: change the source, the config, or
   the detector version and the fingerprint changes with them.  Stale
   entries are never *wrong*, merely unreachable.

   Two tiers:
   - an in-process table, shared by every run in the process (bench
     loops, repeated [analyse] calls, the jobs=1-then-jobs=4 test);
   - an optional on-disk tier ([GCATCH_CACHE_DIR] / [--cache-dir]), one
     {!Goengine.Store} entry of kind "solve" per fingerprint — a
     corrupted or truncated entry is a miss, never an error.

   The entry stores the channel's bug list *and* its per-channel counter
   snapshot, so a hit replays the exact metrics of the original solve:
   warm and cold runs produce byte-identical diagnostics and identical
   run-registry counters.  Channels whose solve was cut short by the
   per-channel budget must never be stored (their result embeds a
   wall-clock accident); callers pass those with [store = false].

   Hit/miss counters live in the process-wide registry (deliberately not
   the run registry: a warm run's counters differ from a cold run's, and
   run-level metrics must stay byte-identical). *)

type entry = {
  e_bugs : Report.bmoc_bug list;
  e_stats : (string * int) list; (* per-channel counter snapshot *)
}

(* Canonical fingerprint of any marshalable value: MD5 of its
   [No_sharing] representation.  [No_sharing] makes the bytes depend
   only on the structural value, not on how much physical sharing the
   builder happened to create. *)
let fingerprint (v : 'a) : string =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

(* ------------------------------------------------- in-memory tier --- *)

(* The memory tier is a promise-keyed memo rather than a plain table:
   when several domains race on the same fingerprint, the first claims it
   and the rest *wait* instead of solving the same problem twice.  Beyond
   the wasted work, this is what keeps the hit/miss counters
   schedule-independent — a fixed problem set produces exactly one miss
   per distinct fingerprint at any [--jobs] setting. *)
let mem : entry Goengine.Memo.t = Goengine.Memo.create ()
let reset_memory () = Goengine.Memo.reset mem

(* A long-lived server bounds the memory tier; evictions are counted in
   the process registry (like hit/miss — a warm run's counters already
   differ from a cold run's).  [mb <= 0] removes the bound. *)
let c_evict = lazy (M.counter M.default "bmoc.solve_cache_evictions")

let set_memory_budget_mb mb =
  let on_evict n = M.add (Lazy.force c_evict) n in
  Goengine.Memo.set_budget ~on_evict mem ~bytes:(mb * 1024 * 1024)

let memory_bytes () = Goengine.Memo.used_bytes mem

(* Warm-state manifest hooks for the serving layer: the fingerprints
   the memory tier holds, and a read of named fingerprints from the disk
   tier into it (no hit/miss counted; a missing entry is skipped).
   Returns the entries loaded. *)
let keys () = Goengine.Memo.keys mem

let preload ~dir fps =
  let disk = Goengine.Store.at dir in
  List.fold_left
    (fun n fp ->
      if
        Goengine.Memo.preload mem fp (fun () ->
            Option.map fst (Goengine.Store.read disk ~kind:"solve" ~key:fp))
      then n + 1
      else n)
    0 fps

(* -------------------------------------------------------- frontend --- *)

let c_hit = lazy (M.counter M.default "bmoc.solve_cache_hit")
let c_miss = lazy (M.counter M.default "bmoc.solve_cache_miss")
let c_disk_hit = lazy (M.counter M.default "bmoc.solve_cache_disk_hit")
let c_store = lazy (M.counter M.default "bmoc.solve_cache_store")

(* Serve [fp] from the memory tier, then the disk tier, then by running
   [compute].  [compute] returns [(entry, store)]; [store = false] marks
   a result that must not be cached (a budget-truncated solve) — it is
   returned to this caller but the slot is released.  Returns the entry
   plus [true] when it came from a cache tier. *)
(* One journal event per lookup outcome — a miss's store outcome rides
   on the miss event as a "stored" flag rather than a second event, so
   the hot solve path journals once.  The memory tier's exactly-once
   claim makes the event multiset a function of the problem set alone
   (storedness is a property of the solve, not the schedule), so
   journals diff clean across --jobs. *)
let journal_solve ~event ?from ?stored fp =
  if Goobs.Journal.enabled () then
    Goobs.Journal.emit ~event
      (("fp", Goobs.Journal.S (String.sub fp 0 (min 12 (String.length fp))))
      :: (match from with
         | Some f -> [ ("from", Goobs.Journal.S f) ]
         | None -> [])
      @ (match stored with
        | Some b -> [ ("stored", Goobs.Journal.B b) ]
        | None -> []))

let find_or_compute ?dir (fp : string) (compute : unit -> entry * bool) :
    entry * bool =
  let from_disk = ref false in
  let stored = ref false in
  match
    Goengine.Memo.find_or_compute mem fp (fun () ->
        let disk = Option.map Goengine.Store.at dir in
        match
          Option.bind disk (fun s ->
              Trace.with_span ~name:"bmoc.cache.lookup" (fun () ->
                  Goengine.Store.read s ~kind:"solve" ~key:fp))
        with
        | Some (e, _) ->
            from_disk := true;
            (e, true)
        | None ->
            let e, store = compute () in
            if store then begin
              M.incr (Lazy.force c_store);
              stored := true;
              Option.iter
                (fun s ->
                  Trace.with_span ~name:"bmoc.cache.store" (fun () ->
                      ignore (Goengine.Store.write s ~kind:"solve" ~key:fp e)))
                disk
            end;
            (e, store))
  with
  | `Hit e ->
      M.incr (Lazy.force c_hit);
      journal_solve ~event:"solve.hit" ~from:"mem" fp;
      (e, true)
  | `Computed e when !from_disk ->
      M.incr (Lazy.force c_hit);
      M.incr (Lazy.force c_disk_hit);
      journal_solve ~event:"solve.hit" ~from:"disk" fp;
      (e, true)
  | `Computed e ->
      M.incr (Lazy.force c_miss);
      journal_solve ~event:"solve.miss" ~stored:!stored fp;
      (e, false)
