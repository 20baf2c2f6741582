module E = Goengine.Engine
module D = Goengine.Diagnostics
module M = Goobs.Metrics

(* GCatch's detectors packaged as named engine passes.

   The registry is the one way to run the detectors: BMOC, each of the
   five traditional checkers, and the §6 non-blocking checkers are
   independent passes with their own enable flag, timing, and metrics.
   Every pass reads the alias facts, call graph and primitive map from
   the artifact record, so they are derived once per program.
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

(* Every detector pass consumes the primitive/operation map, the
   channel passes share one disentangling, and the five traditional
   checkers share one walk of every function.  Alias facts and the call
   graph come from the engine's cached stages; the map, the
   disentangling and the walk are derived once per artifact record
   ([E.a_derive], counted as "stage.primitives.runs",
   "stage.disentangle.runs" and "stage.lockset.runs"), so the passes
   pay for each once and all go when the engine drops the record.

   Early cutoff: the map and the disentangling are functions of the
   whole-program facts, so a record whose facts equal its
   predecessor's takes them over ([~carry:true]); the walk takes over
   every function whose IR did not change.  Each detector keeps its
   per-unit results on the record ([E.a_keep]): BMOC its per-channel
   outcomes, each traditional checker its per-function results.  A
   successor takes over every unit no changed function can affect and
   re-runs the rest.  Inputs are forced before claiming a slot: a
   waiter must never park on the whole frontend. *)
type E.derived +=
  | Prims of Primitives.t
  | Dis of Disentangle.t
  | Lockset of Traditional.walk
  | Outcomes of Bmoc.outcomes
  | Trad_bugs of (Report.trad_bug, unit) Traditional.kept
  | Dlock_kept of (Report.trad_bug, Traditional.summary) Traditional.kept
  | Order_kept of (Traditional.order_edge, unit) Traditional.kept
  | Race_kept of (Traditional.race_access, Traditional.ctors) Traditional.kept

let prims_for (a : E.artifacts) : Primitives.t =
  let alias = Lazy.force a.E.a_alias in
  match
    a.E.a_derive ~carry:true "primitives" (fun () ->
        (Prims (Primitives.of_ops alias (a.E.a_sync ())), true))
  with
  | Prims p -> p
  | _ -> assert false

let dis_for (a : E.artifacts) : Disentangle.t =
  let cg = Lazy.force a.E.a_callgraph in
  let prims = prims_for a in
  match
    a.E.a_derive ~carry:true "disentangle" (fun () ->
        (Dis (Disentangle.build prims cg), true))
  with
  | Dis d -> d
  | _ -> assert false

(* A value the predecessor kept under [name], with the predecessor,
   while the cutoff holds. *)
let prior_value (a : E.artifacts) name =
  match a.E.a_prior () with
  | Some p -> Option.map (fun v -> (v, p)) (p.E.pr_record.E.a_peek name)
  | None -> None

(* What a pass kept under [name]: on this record, when it was analysed
   before, or else on the predecessor.  Nothing while fault injection is
   armed: injected faults must reach every unit. *)
let kept_value (a : E.artifacts) name =
  if Goobs.Faults.active () then None
  else
    match a.E.a_peek name with
    | Some v -> Some (v, None)
    | None -> Option.map (fun (v, p) -> (v, Some p)) (prior_value a name)

let walk_for pool (a : E.artifacts) : Traditional.walk =
  let ir = Lazy.force a.E.a_ir in
  let alias = Lazy.force a.E.a_alias in
  let prims = prims_for a in
  match
    a.E.a_derive "lockset" (fun () ->
        let prev =
          match prior_value a "lockset" with
          | Some (Lockset w, p) -> Some (w, p.E.pr_changed)
          | _ -> None
        in
        let w = Traditional.walk ~pool ?prev prims alias ir in
        a.E.a_note "engine.lockset_funcs_walked" (Traditional.walked w);
        (Lockset w, Traditional.complete w))
  with
  | Lockset w -> w
  | _ -> assert false

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
  | Some dir when not (Goobs.Faults.active ()) -> (
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
              (* the channels' outcomes are kept per detector config *)
              let kept = "bmoc.outcomes." ^ Lazy.force fpr in
              let carry =
                match kept_value a kept with
                | Some (Outcomes o, None) -> Some (o, [])
                | Some (Outcomes o, Some p) -> Some (o, p.E.pr_changed_funcs)
                | _ -> None
              in
              let r =
                Bmoc.detect_with ~cfg ~pool ~metrics ~dis:(dis_for a) ?carry
                  ~verdicts:a.E.a_verdicts ~alias:(Lazy.force a.E.a_alias)
                  ~cg:(Lazy.force a.E.a_callgraph) ~prims:(prims_for a)
                  (Lazy.force a.E.a_ir)
              in
              if not (Goobs.Faults.active ()) then
                a.E.a_keep kept (Outcomes r.Bmoc.f_outcomes);
              a.E.a_note "engine.bmoc_channels_enumerated" r.Bmoc.f_enumerated;
              a.E.a_note "engine.bmoc_channels_replayed" r.Bmoc.f_replayed;
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

(* One traditional checker as a fold over the record's walk, taking
   over the per-function results the checker kept on this record (all
   of them: the walk is the same) or on the predecessor (all but the
   functions the walk walked again). *)
let trad_fold (type a g) pool metrics (a : E.artifacts)
    (ck : (a, g) Traditional.checker) ~(wrap : (a, g) Traditional.kept -> E.derived)
    ~(unwrap : E.derived -> (a, g) Traditional.kept option) =
  let w = walk_for pool a in
  let name = Traditional.name ck ^ ".funcs" in
  let prior =
    match kept_value a name with
    | Some (v, None) -> Option.map (fun k -> (k, Traditional.unchanged)) (unwrap v)
    | Some (v, Some _) -> (
        match (unwrap v, Traditional.delta w) with
        | Some k, Some d -> Some (k, d)
        | _ -> None)
    | None -> None
  in
  let bugs, kept, checked = Traditional.run ~metrics ?prior ck w in
  if not (Goobs.Faults.active ()) then a.E.a_keep name (wrap kept);
  a.E.a_note "engine.trad_funcs_checked" checked;
  bugs

let traditional_passes ?cfg () : E.pass list =
  let cache_dir = Option.bind cfg (fun c -> c.Bmoc.cache_dir) in
  (* the traditional checkers take no configuration, so the cache key
     needs no fingerprint beyond the pass name *)
  let trad name doc run =
    trad_pass name doc (fun pool metrics a ->
        pass_cached ~cache_dir ~pass:name ~fpr:"" ~metrics a
          ~cacheable:(fun _ -> true)
          (fun () -> run pool metrics a))
  in
  let bugs ck pool metrics a =
    trad_fold pool metrics a ck
      ~wrap:(fun k -> Trad_bugs k)
      ~unwrap:(function Trad_bugs k -> Some k | _ -> None)
  in
  [
    trad "trad.missing-unlock" "lock acquired but not released on some path"
      (bugs Traditional.missing_unlock);
    trad "trad.double-lock" "same mutex acquired twice without release"
      (fun pool metrics a ->
        trad_fold pool metrics a
          (Traditional.double_lock (Lazy.force a.E.a_callgraph))
          ~wrap:(fun k -> Dlock_kept k)
          ~unwrap:(function Dlock_kept k -> Some k | _ -> None));
    trad "trad.lock-order" "conflicting lock acquisition order"
      (fun pool metrics a ->
        trad_fold pool metrics a Traditional.lock_order
          ~wrap:(fun k -> Order_kept k)
          ~unwrap:(function Order_kept k -> Some k | _ -> None));
    trad "trad.field-race" "struct field accessed without the usual lock"
      (fun pool metrics a ->
        trad_fold pool metrics a Traditional.field_race
          ~wrap:(fun k -> Race_kept k)
          ~unwrap:(function Race_kept k -> Some k | _ -> None));
    trad "trad.fatal-child" "testing.Fatal called from a child goroutine"
      (bugs Traditional.fatal_child);
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
            (fun () ->
              Nonblocking.detect ~cfg ~dis:(dis_for a)
                ~alias:(Lazy.force a.E.a_alias)
                ~cg:(Lazy.force a.E.a_callgraph) ~prims:(prims_for a)
                (Lazy.force a.E.a_ir))
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
