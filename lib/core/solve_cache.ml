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
   - a memory table: the engine's verdict memo ([Engine.a_verdicts]),
     under the engine's byte budget, or [standalone];
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
   per distinct fingerprint at any [--jobs] setting.  The engine holds
   entries as [Engine.derived] values, without naming their type. *)
type Goengine.Engine.derived += Verdict of entry

(* The standalone detector's table ([Bmoc.detect_full] has no engine):
   the one process-wide table, which no engine path reads.
   [reset_memory] replaces it with an empty one. *)
let standalone : Goengine.Engine.derived Goengine.Memo.t Atomic.t =
  Atomic.make (Goengine.Memo.create ())

let reset_memory () = Atomic.set standalone (Goengine.Memo.create ())

(* -------------------------------------------------------- frontend --- *)

(* Counters are looked up per use, never cached in a top-level [lazy]:
   lookups run inside BMOC's per-channel pool tasks, and two domains
   forcing one lazy at once raise [CamlinternalLazy.Undefined]. *)
let bump name = M.incr (M.counter M.default ("bmoc.solve_cache_" ^ name))

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

let read_disk dir fp =
  Option.bind (Option.map Goengine.Store.at dir) (fun s ->
      Trace.with_span ~name:"bmoc.cache.lookup" (fun () ->
          Goengine.Store.read s ~kind:"solve" ~key:fp))

(* Serve [fp] from the memory tier [mem], then the disk tier, then by running
   [compute].  [compute] returns [(entry, store)]; [store = false] marks
   a result that must not be cached (a budget-truncated solve) — it is
   returned to this caller but the slot is released. *)
let find_or_compute ~mem ?dir (fp : string) (compute : unit -> entry * bool) :
    entry =
  let from_disk = ref false in
  let stored = ref false in
  match
    Goengine.Memo.find_or_compute mem fp (fun () ->
        match read_disk dir fp with
        | Some (e, _) ->
            from_disk := true;
            (Verdict e, true)
        | None ->
            let e, store = compute () in
            if store then begin
              bump "store";
              stored := true;
              Option.iter
                (fun d ->
                  Trace.with_span ~name:"bmoc.cache.store" (fun () ->
                      ignore
                        (Goengine.Store.write (Goengine.Store.at d) ~kind:"solve"
                           ~key:fp e)))
                dir
            end;
            (Verdict e, store))
  with
  | `Hit (Verdict e) ->
      bump "hit";
      journal_solve ~event:"solve.hit" ~from:"mem" fp;
      e
  | `Computed (Verdict e) when !from_disk ->
      bump "hit";
      bump "disk_hit";
      journal_solve ~event:"solve.hit" ~from:"disk" fp;
      e
  | `Computed (Verdict e) ->
      bump "miss";
      journal_solve ~event:"solve.miss" ~stored:!stored fp;
      e
  | `Hit _ | `Computed _ -> invalid_arg "Solve_cache: a foreign value"
