module E = Goengine.Engine
module D = Goengine.Diagnostics
module M = Goobs.Metrics

(* GCatch's detectors packaged as named engine passes.

   The registry replaces the hard-coded detector calls that used to live
   in [Driver] and in every entry point: BMOC, each of the five
   traditional checkers, and the §6 non-blocking checkers are
   independent passes with their own enable flag, timing, and metrics.
   Each diagnostic carries the original typed report as a payload so
   GFix and the scorer lose nothing by going through the engine. *)

type D.payload +=
  | Bmoc_bug of Report.bmoc_bug
  | Trad_bug of Report.trad_bug
  | Nb_bug of Nonblocking.nb_bug

(* ------------------------------------------------ payload recovery --- *)

let bmoc_bugs (diags : D.t list) : Report.bmoc_bug list =
  List.filter_map
    (fun (d : D.t) ->
      match d.D.payload with Bmoc_bug b -> Some b | _ -> None)
    diags

let trad_bugs (diags : D.t list) : Report.trad_bug list =
  List.filter_map
    (fun (d : D.t) ->
      match d.D.payload with Trad_bug t -> Some t | _ -> None)
    diags

let nb_bugs (diags : D.t list) : Nonblocking.nb_bug list =
  List.filter_map
    (fun (d : D.t) ->
      match d.D.payload with Nb_bug b -> Some b | _ -> None)
    diags

(* ------------------------------------------------------ diagnostics --- *)

let bmoc_diag (b : Report.bmoc_bug) : D.t =
  let loc =
    match b.Report.chan_loc with
    | Some l -> Some l
    | None -> (
        match b.Report.blocked with
        | o :: _ -> Some o.Report.bo_loc
        | [] -> None)
  in
  D.v ~pass:"bmoc" ?loc ~payload:(Bmoc_bug b) (Report.bmoc_str b)

let trad_diag ~pass (t : Report.trad_bug) : D.t =
  D.v ~pass ~severity:D.Error ~loc:t.Report.tloc ~payload:(Trad_bug t)
    (Report.trad_str t)

let nb_diag (b : Nonblocking.nb_bug) : D.t =
  D.v ~pass:"nonblocking" ~loc:b.Nonblocking.nb_second ~payload:(Nb_bug b)
    (Nonblocking.nb_str b)

(* ------------------------------------------------- shared pre-pass --- *)

(* The traditional checkers all consume the primitive/operation map.
   Alias facts and the call graph come from the engine's cached stages;
   [Primitives.collect] itself is derived once per artifact record, so
   the five checker passes pay for it once and the map goes when the
   engine drops the record. *)
type E.derived += Prims of Primitives.t

let prims_for (a : E.artifacts) : Primitives.t =
  (* forced before claiming the slot: a waiter must never park on the
     whole frontend *)
  let ir = Lazy.force a.E.a_ir in
  let alias = Lazy.force a.E.a_alias in
  match
    Goengine.Memo.find_or_compute a.E.a_derived "primitives" (fun () ->
        (Prims (Primitives.collect ir alias), true))
  with
  | `Hit (Prims p) | `Computed (Prims p) -> p
  | `Hit _ | `Computed _ -> assert false

(* ----------------------------------------------------------- passes --- *)

(* A channel skipped on solver-budget exhaustion becomes a warning, not
   an error: the run completed, one scope's verdict is just unknown. *)
let skip_diag (sk : Bmoc.skipped) : D.t =
  D.v ~pass:"bmoc" ~severity:D.Warning ?loc:sk.Bmoc.sk_loc
    (Printf.sprintf
       "channel %s skipped: solver budget exhausted after %.0f ms (budget %s \
        ms, %d path event(s) enumerated)"
       (Goanalysis.Alias.obj_str sk.Bmoc.sk_obj)
       sk.Bmoc.sk_elapsed_ms
       (match sk.Bmoc.sk_budget_ms with
       | Some b -> string_of_int b
       | None -> "none")
       sk.Bmoc.sk_ops)

(* A per-channel supervision note from the detector's fault boundaries,
   rendered as a Warning carrying the typed {!Goengine.Supervise.Fault}
   payload. *)
let note_diag (n : Bmoc.chan_note) : D.t =
  let module S = Goengine.Supervise in
  let unit_name =
    Printf.sprintf "bmoc channel %s" (Goanalysis.Alias.obj_str n.Bmoc.cn_obj)
  in
  match n.Bmoc.cn_note with
  | `Faulted detail ->
      S.diag ~pass:"bmoc" ?loc:n.Bmoc.cn_loc ~unit_name S.Degraded
        (detail ^ "; verdict dropped, other channels unaffected")
  | `Recovered rung ->
      S.diag ~pass:"bmoc" ?loc:n.Bmoc.cn_loc ~unit_name S.Retried
        (Printf.sprintf
           "solver budget exhausted at full bounds; recovered at ladder rung \
            %d (reduced path/combination bounds)"
           rung)
  | `Pressure reason ->
      S.diag ~pass:"bmoc" ?loc:n.Bmoc.cn_loc ~unit_name S.Skipped
        (reason ^ "; partial results flushed")

(* ------------------------------------------------ pass result cache --- *)

(* Detector passes are pure functions of the compiled program and their
   configuration, so each pass's *typed* result is cached on disk keyed
   by [E.a_content] — the digest of every file's compiled form — plus
   the pass name and a config fingerprint.  A warm re-analysis whose
   edits leave every file's compiled form unchanged (a comment, a cache
   restart) skips the detector bodies entirely; an edit that changes
   compiled code changes the key and the pass recomputes.  Typed
   results, not diagnostics, are marshalled: extensible-variant
   payloads do not survive Marshal, so hits are re-rendered through the
   same diagnostic builders as a cold run.  The cache stands down while
   fault injection is armed (injected faults must reach the pass body),
   and [cacheable] lets a pass refuse to persist degraded results. *)
let pass_cached ~cache_dir ~pass ~fpr ~metrics (a : E.artifacts) ~cacheable
    compute =
  let kind = "pass." ^ pass in
  match cache_dir with
  | Some dir when not (Goengine.Faults.active ()) -> (
      match Lazy.force a.E.a_content with
      | None -> compute ()
      | Some content -> (
          let store = Goengine.Store.at dir in
          let key =
            Digest.to_hex
              (Digest.string (String.concat "\x00" [ content; pass; fpr ]))
          in
          match Goengine.Store.read store ~kind ~key with
          | Some (r, _) ->
              M.incr (M.counter metrics "engine.pass_cache_hit");
              r
          | None ->
              let r = compute () in
              (* a store counts only once it is on disk *)
              if
                cacheable r
                && Result.is_ok (Goengine.Store.write store ~kind ~key r)
              then M.incr (M.counter metrics "engine.pass_cache_store");
              r))
  | _ -> compute ()

let bmoc_pass ?(cfg = Bmoc.default_config) () : E.pass =
  let fpr = lazy (Solve_cache.fingerprint cfg) in
  {
    E.p_name = "bmoc";
    p_doc = "blocking misuse-of-channel detector (paper Algorithm 1)";
    p_default = true;
    p_run =
      (fun pool metrics a ->
        let bugs, skipped, notes =
          (* skips (budget exhaustion) and supervision notes depend on
             machine speed and fault state — never replay them from
             cache *)
          pass_cached ~cache_dir:cfg.Bmoc.cache_dir ~pass:"bmoc"
            ~fpr:(Lazy.force fpr) ~metrics a
            ~cacheable:(fun (_, sk, nt) -> sk = [] && nt = [])
            (fun () ->
              let r =
                Bmoc.detect_full ~cfg ~pool ~metrics (Lazy.force a.E.a_ir)
              in
              (r.Bmoc.f_bugs, r.Bmoc.f_skipped, r.Bmoc.f_notes))
        in
        List.map bmoc_diag bugs
        @ List.map skip_diag skipped
        @ List.map note_diag notes);
  }

let trad_pass name doc run : E.pass =
  {
    E.p_name = name;
    p_doc = doc;
    p_default = true;
    p_run =
      (fun pool metrics a ->
        let bugs =
          Goobs.Trace.with_span ~name (fun () -> run pool metrics a)
        in
        M.add (M.counter metrics (name ^ ".reports")) (List.length bugs);
        List.map (trad_diag ~pass:name) bugs);
  }

let traditional_passes ?cfg () : E.pass list =
  let cache_dir = Option.bind cfg (fun c -> c.Bmoc.cache_dir) in
  let ir a = Lazy.force a.E.a_ir in
  let alias a = Lazy.force a.E.a_alias in
  let cg a = Lazy.force a.E.a_callgraph in
  (* the traditional checkers take no configuration, so the cache key
     needs no fingerprint beyond the pass name *)
  let trad name doc run =
    trad_pass name doc (fun pool metrics a ->
        pass_cached ~cache_dir ~pass:name ~fpr:"" ~metrics a
          ~cacheable:(fun _ -> true)
          (fun () -> run pool metrics a))
  in
  [
    trad "trad.missing-unlock" "lock acquired but not released on some path"
      (fun pool metrics a ->
        Traditional.check_missing_unlock ~pool ~metrics (prims_for a) (alias a)
          (ir a));
    trad "trad.double-lock" "same mutex acquired twice without release"
      (fun pool metrics a ->
        Traditional.check_double_lock ~pool ~metrics (prims_for a) (alias a)
          (cg a) (ir a));
    trad "trad.lock-order" "conflicting lock acquisition order"
      (fun pool metrics a ->
        Traditional.check_conflicting_order ~pool ~metrics (prims_for a)
          (alias a) (ir a));
    trad "trad.field-race" "struct field accessed without the usual lock"
      (fun pool metrics a ->
        Traditional.check_field_race ~pool ~metrics (prims_for a) (alias a)
          (ir a));
    trad "trad.fatal-child" "testing.Fatal called from a child goroutine"
      (fun pool metrics a ->
        Traditional.check_fatal_in_child ~pool ~metrics (ir a));
  ]

let nonblocking_pass ?(cfg = Bmoc.default_config) () : E.pass =
  let fpr = lazy (Solve_cache.fingerprint cfg) in
  {
    E.p_name = "nonblocking";
    p_doc = "non-blocking misuse checkers (send-on-closed, double close)";
    p_default = false;
    p_run =
      (fun _pool metrics a ->
        let bugs =
          pass_cached ~cache_dir:cfg.Bmoc.cache_dir ~pass:"nonblocking"
            ~fpr:(Lazy.force fpr) ~metrics a
            ~cacheable:(fun _ -> true)
            (fun () -> Nonblocking.detect ~cfg (Lazy.force a.E.a_ir))
        in
        M.add (M.counter metrics "nonblocking.reports") (List.length bugs);
        List.map nb_diag bugs);
  }

(* The full registry, in display order. *)
let all ?cfg () : E.pass list =
  (bmoc_pass ?cfg () :: traditional_passes ?cfg ())
  @ [ nonblocking_pass ?cfg () ]

(* An engine pre-loaded with every GCatch pass.  [jobs] sizes the domain
   pool the passes fan out on (1 = sequential, the default); [registry]
   unifies the engine's metrics with a caller-wide registry (the CLI
   passes [Goobs.Metrics.default]). *)
let engine ?cfg ?(jobs = 1) ?registry ?max_entries () : E.t =
  (* the detector config's cache directory doubles as the engine's
     per-file frontend cache tier: one --cache-dir warms both *)
  let cache_dir = Option.bind cfg (fun c -> c.Bmoc.cache_dir) in
  E.create ~passes:(all ?cfg ()) ~jobs ?registry ?cache_dir ?max_entries ()
