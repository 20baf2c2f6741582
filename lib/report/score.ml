(* Scoring detector reports against corpus ground truth.

   Unlike the paper — whose authors triaged 200 reports by hand — the
   synthetic corpus carries labels, so true/false positives are decided
   mechanically: a BMOC report counts as a true positive when its blocked
   operation falls in a function seeded with a bug; reports landing in
   fp-bait functions are expected false positives (the corpus plants the
   paper's documented FP sources); anything else is an unexpected false
   positive, which the test suite treats as a regression. *)

module P = Gocorpus.Patterns
module R = Gcatch.Report

(* A lifted goroutine body Exec$fn1 belongs to source function Exec. *)
let base_func name =
  match String.index_opt name '$' with
  | Some i -> String.sub name 0 i
  | None -> name

type bmoc_class = TP of bool (* with_mutex *) | FP_expected | FP_unexpected

let classify_bmoc (truth : P.truth list) (b : R.bmoc_bug) : bmoc_class =
  let funcs =
    List.sort_uniq String.compare
      (List.map (fun (o : R.blocked_op) -> base_func o.bo_func) b.blocked)
  in
  let in_funcs f = List.mem f funcs in
  (* a single-sending bug's blocked op is in the child, whose base name is
     the scope function itself; missing-interaction helpers are separate
     functions, so also try the scope functions *)
  let scope_bases = List.sort_uniq String.compare (List.map base_func b.scope_funcs) in
  let hit =
    List.find_map
      (function
        | P.T_bmoc { fn; with_mutex; _ }
          when in_funcs fn || List.mem fn scope_bases ->
            Some (TP with_mutex)
        | _ -> None)
      truth
  in
  match hit with
  | Some c -> c
  | None ->
      if
        List.exists
          (function
            | P.T_fp_bait fn -> in_funcs fn || List.mem fn scope_bases
            | _ -> false)
          truth
      then FP_expected
      else FP_unexpected

let classify_trad (truth : P.truth list) (t : R.trad_bug) : bmoc_class =
  let f = base_func t.tfunc in
  if
    List.exists
      (function P.T_trad (k, fn) -> k = t.tkind && fn = f | _ -> false)
      truth
  then TP false
  else FP_unexpected

type app_score = {
  name : string;
  loc : int;
  elapsed_s : float;
  (* BMOC, channels only *)
  bmoc_c_tp : int;
  bmoc_c_fp : int;
  (* BMOC with mutexes *)
  bmoc_m_tp : int;
  bmoc_m_fp : int;
  (* per traditional checker: tp, fp *)
  trad : (R.trad_kind * (int * int)) list;
  (* recall bookkeeping *)
  seeded_bmoc : int;
  found_bmoc : int;
  (* GFix *)
  fixed_s1 : int;
  fixed_s2 : int;
  fixed_s3 : int;
  unfixed : int;
  fix_details : (R.bmoc_bug * Gcatch.Gfix.outcome) list;
  bmoc : R.bmoc_bug list; (* every BMOC report, in canonical order *)
  trad_bugs : R.trad_bug list;
  run : Goengine.Engine.run; (* per-pass timings, metrics and health *)
}

let trad_kinds =
  [
    R.Forget_unlock;
    R.Double_lock;
    R.Conflict_lock;
    R.Struct_field_race;
    R.Fatal_in_child;
  ]

(* Score one application from an engine run of its detector passes.
   [engine] lets batch drivers (bench, triage) share one artifact cache
   across apps; its registered passes set the detector configuration.
   Without it, [cfg] configures a fresh {!Gcatch.Passes} engine.
   [elapsed_s] is detector time: the passes' own elapsed times, which
   include any alias and call-graph stage they force. *)
let score_app ?engine ?cfg (app : Gocorpus.Apps.app) : app_score =
  let module E = Goengine.Engine in
  let engine =
    match engine with Some e -> e | None -> Gcatch.Passes.engine ?cfg ()
  in
  let run = E.analyse engine ~name:app.spec.name app.sources in
  let source =
    match run.E.r_artifacts with
    | Some art -> Lazy.force art.E.a_typed
    | None ->
        failwith
          (String.concat "; "
             (List.map Goengine.Diagnostics.render_human (E.errors run)))
  in
  let bmoc = Gcatch.Passes.bmoc_bugs run.E.r_diags in
  let trad_bugs = Gcatch.Passes.trad_bugs run.E.r_diags in
  let bmoc_classes = List.map (fun b -> (b, classify_bmoc app.truth b)) bmoc in
  let count p = List.length (List.filter p bmoc_classes) in
  let bmoc_c_tp = count (fun (b, c) -> b.R.kind = R.Chan_only && c = TP false) in
  let bmoc_m_tp =
    count (fun (b, c) ->
        b.R.kind = R.Chan_and_mutex && (c = TP true || c = TP false))
  in
  let bmoc_c_fp =
    count (fun (b, c) ->
        b.R.kind = R.Chan_only && (c = FP_expected || c = FP_unexpected))
  in
  let bmoc_m_fp =
    count (fun (b, c) ->
        b.R.kind = R.Chan_and_mutex && (c = FP_expected || c = FP_unexpected))
  in
  let trad =
    List.map
      (fun k ->
        let of_kind = List.filter (fun (t : R.trad_bug) -> t.tkind = k) trad_bugs in
        let tp =
          List.length
            (List.filter (fun t -> classify_trad app.truth t = TP false) of_kind)
        in
        (k, (tp, List.length of_kind - tp)))
      trad_kinds
  in
  (* recall: which seeded BMOC bugs were found *)
  let seeded =
    List.filter_map
      (function P.T_bmoc { fn; _ } -> Some fn | _ -> None)
      app.truth
  in
  let found_bmoc =
    List.length
      (List.filter
         (fun seeded_fn ->
           List.exists
             (fun ((bug : R.bmoc_bug), c) ->
               (c = TP false || c = TP true)
               &&
               let funcs =
                 List.map (fun (o : R.blocked_op) -> base_func o.bo_func) bug.blocked
                 @ List.map base_func bug.scope_funcs
               in
               List.mem seeded_fn funcs)
             bmoc_classes)
         seeded)
  in
  (* GFix over channel-only true positives, like the paper (§5.3) *)
  let fix_targets =
    List.filter_map
      (fun (b, c) ->
        if b.R.kind = R.Chan_only && c <> FP_unexpected && c <> FP_expected then
          Some b
        else None)
      bmoc_classes
  in
  let fixes = Gcatch.Gfix.fix_all source fix_targets in
  let strat s =
    List.length
      (List.filter
         (fun (_, o) ->
           match o with Gcatch.Gfix.Fixed f -> f.strategy = s | _ -> false)
         fixes)
  in
  let fixed_s1 = strat Gcatch.Gfix.S1_increase_buffer in
  let fixed_s2 = strat Gcatch.Gfix.S2_defer_op in
  let fixed_s3 = strat Gcatch.Gfix.S3_add_stop in
  let unfixed =
    List.length
      (List.filter
         (fun (_, o) -> match o with Gcatch.Gfix.Not_fixed _ -> true | _ -> false)
         fixes)
  in
  {
    name = app.spec.name;
    loc = app.loc;
    elapsed_s =
      List.fold_left (fun acc pr -> acc +. pr.E.pr_elapsed_s) 0. run.E.r_passes;
    bmoc_c_tp;
    bmoc_c_fp;
    bmoc_m_tp;
    bmoc_m_fp;
    trad;
    seeded_bmoc = List.length seeded;
    found_bmoc;
    fixed_s1;
    fixed_s2;
    fixed_s3;
    unfixed;
    fix_details = fixes;
    bmoc;
    trad_bugs;
    run;
  }
