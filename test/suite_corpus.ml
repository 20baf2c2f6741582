(* Corpus-level integration tests: every seeded bug is recalled, no
   unexpected false positives appear, the coverage bug set matches the
   paper's 33/49, and generated patches validate dynamically. *)

module P = Gocorpus.Patterns
module Score = Goreport.Score

let score name =
  Score.score_app (Option.get (Gocorpus.Apps.find name))

let test_app_parses name () =
  let app = Option.get (Gocorpus.Apps.find name) in
  match
    Minigo.Typecheck.check_program
      (Minigo.Parser.parse_program ~name app.sources)
  with
  | _ -> ()
  | exception Minigo.Parser.Parse_error (m, loc) ->
      Alcotest.failf "%s: parse error %s at %s" name m (Minigo.Loc.to_string loc)
  | exception Minigo.Typecheck.Type_error (m, loc) ->
      Alcotest.failf "%s: type error %s at %s" name m (Minigo.Loc.to_string loc)

let test_full_recall name () =
  let s = score name in
  Alcotest.(check int)
    (name ^ ": all seeded BMOC bugs recalled")
    s.seeded_bmoc s.found_bmoc

let test_no_unexpected_fp name () =
  let app = Option.get (Gocorpus.Apps.find name) in
  let s = score name in
  List.iter
    (fun (b : Gcatch.Report.bmoc_bug) ->
      match Score.classify_bmoc app.truth b with
      | Score.FP_unexpected ->
          Alcotest.failf "%s: unexpected false positive: %s" name
            (Gcatch.Report.bmoc_str b)
      | _ -> ())
    s.bmoc;
  List.iter
    (fun (t : Gcatch.Report.trad_bug) ->
      match Score.classify_trad app.truth t with
      | Score.FP_unexpected ->
          Alcotest.failf "%s: unexpected traditional FP: %s" name
            (Gcatch.Report.trad_str t)
      | _ -> ())
    s.trad_bugs

let test_empty_apps_clean () =
  List.iter
    (fun name ->
      let s = score name in
      Alcotest.(check int) (name ^ " BMOC tp") 0 (s.bmoc_c_tp + s.bmoc_m_tp);
      Alcotest.(check int) (name ^ " BMOC fp") 0 (s.bmoc_c_fp + s.bmoc_m_fp))
    [ "gin"; "gogs"; "traefik"; "caddy"; "mkcert" ]

let test_strategy_split () =
  (* docker's seeded mix must come out as mostly Strategy-I with a few
     II/III, like Table 1's Docker row *)
  let s = score "docker" in
  Alcotest.(check bool) "S1 dominates" true (s.fixed_s1 > s.fixed_s2 + s.fixed_s3);
  Alcotest.(check bool) "S2 present" true (s.fixed_s2 >= 1);
  Alcotest.(check bool) "S3 present" true (s.fixed_s3 >= 2)

let test_fix_expectations () =
  (* each seeded fixable bug gets its expected strategy *)
  let app = Option.get (Gocorpus.Apps.find "etcd") in
  let s = Score.score_app app in
  let expected_of fn =
    List.find_map
      (function
        | P.T_bmoc { fn = f; fixable; _ } when f = fn -> Some fixable
        | _ -> None)
      app.truth
  in
  List.iter
    (fun ((bug : Gcatch.Report.bmoc_bug), outcome) ->
      let scope_fns = List.map Score.base_func bug.scope_funcs in
      let expectation = List.find_map expected_of scope_fns in
      match (expectation, outcome) with
      | Some P.FS1, Gcatch.Gfix.Fixed f ->
          Alcotest.(check string) "expected S1"
            (Gcatch.Gfix.strategy_str Gcatch.Gfix.S1_increase_buffer)
            (Gcatch.Gfix.strategy_str f.strategy)
      | Some P.FS2, Gcatch.Gfix.Fixed f ->
          Alcotest.(check string) "expected S2"
            (Gcatch.Gfix.strategy_str Gcatch.Gfix.S2_defer_op)
            (Gcatch.Gfix.strategy_str f.strategy)
      | Some P.FS3, Gcatch.Gfix.Fixed f ->
          Alcotest.(check string) "expected S3"
            (Gcatch.Gfix.strategy_str Gcatch.Gfix.S3_add_stop)
            (Gcatch.Gfix.strategy_str f.strategy)
      | Some (P.Funfixable _), Gcatch.Gfix.Not_fixed _ -> ()
      | Some (P.Funfixable _), Gcatch.Gfix.Fixed f ->
          Alcotest.failf "expected unfixable, got %s" f.description
      | Some _, Gcatch.Gfix.Not_fixed r ->
          Alcotest.failf "expected a fix, got rejection: %s" r
      | None, _ -> () (* a bait or secondary report *))
    s.fix_details

let test_bugset_coverage () =
  let detected = ref 0 in
  List.iter
    (fun (e : Gocorpus.Bugset.entry) ->
      let a = Pipeline.analyse ~name:e.bs_name [ "package b\n" ^ e.bs_src ] in
      let found = a.bmoc <> [] in
      if found then incr detected;
      Alcotest.(check bool)
        (Printf.sprintf "%s (%s)" e.bs_name e.bs_class)
        e.bs_detectable found)
    Gocorpus.Bugset.entries;
  Alcotest.(check int) "coverage 33/49" 33 !detected

let test_pattern_bugs_manifest () =
  (* the fixable bug patterns, when wrapped in a driver, leak on at least
     one of 40 schedules — the seeded bugs are real *)
  let wrap_fig1 =
    let inst = P.instantiate P.P_single_send_timeout 1 in
    inst.src
    ^ "\nfunc main() {\n\ttimeout := make(chan bool, 1)\n\ttimeout <- true\n\tprintln(FetchWithTimeout1(timeout, \"u\"))\n}"
  in
  let prog =
    Minigo.Typecheck.check_program
      (Minigo.Parser.parse_string ("package p\n" ^ wrap_fig1))
  in
  let _, leaks, _, _ = Goruntime.Interp.run_schedules ~seeds:40 prog in
  Alcotest.(check bool) "single-send pattern manifests" true (leaks > 0)

let test_benign_patterns_never_leak () =
  let wrap =
    let b1 = P.instantiate P.P_benign_pipeline 1 in
    b1.src ^ "\nfunc main() {\n\tprintln(Pipeline1(5))\n}"
  in
  let prog =
    Minigo.Typecheck.check_program
      (Minigo.Parser.parse_string ("package p\n" ^ wrap))
  in
  let _, leaks, _, _ = Goruntime.Interp.run_schedules ~seeds:40 prog in
  Alcotest.(check int) "benign pipeline never leaks" 0 leaks

let test_filler_is_benign () =
  let src = "package f\n" ^ Gocorpus.Filler.generate ~seed:3 ~target_lines:300 in
  let a = Pipeline.analyse ~name:"filler" [ src ] in
  Alcotest.(check int) "filler: no BMOC reports" 0 (List.length a.bmoc);
  Alcotest.(check int) "filler: no trad reports" 0 (List.length a.trad)

(* The 21 corpus apps and the 49 bug-set programs, by name. *)
let programs =
  List.map
    (fun (a : Gocorpus.Apps.app) -> (a.spec.name, a.sources))
    (Gocorpus.Apps.all ())
  @ List.map
      (fun (e : Gocorpus.Bugset.entry) ->
        (e.bs_name, [ "package b\n" ^ e.bs_src ]))
      Gocorpus.Bugset.entries

(* Every detector reads the engine's facts.  On each corpus app and
   bug-set program the bmoc pass must match the standalone detector run
   on the record's IR (which derives its own facts), the nonblocking
   pass must match a run on freshly derived facts, and one analysis of
   all seven passes must derive the alias facts and call graph once. *)
let test_engine_facts_match_standalone () =
  let module E = Goengine.Engine in
  let module D = Goengine.Diagnostics in
  let module Pa = Gcatch.Passes in
  (* skipped channels and supervision notes, less their timings *)
  let warnings diags =
    List.map (fun (d : D.t) -> (d.D.severity, d.D.loc)) diags
  in
  let bmoc_strs = List.map Gcatch.Report.bmoc_str in
  let nb_strs = List.map Gcatch.Nonblocking.nb_str in
  List.iter
    (fun (name, sources) ->
      let engine = Pa.engine () in
      let r = E.analyse ~extra:[ "nonblocking" ] engine ~name sources in
      let runs stage = E.counter_value engine ("stage." ^ stage ^ ".runs") in
      Alcotest.(check int) (name ^ ": one alias run") 1 (runs "alias");
      Alcotest.(check int) (name ^ ": one callgraph run") 1 (runs "callgraph");
      let ir = Lazy.force (Option.get r.E.r_artifacts).E.a_ir in
      let reg = Goobs.Metrics.create () in
      let full = Gcatch.Bmoc.detect_full ~metrics:reg ir in
      Alcotest.(check (list string))
        (name ^ ": bmoc bugs")
        (bmoc_strs full.f_bugs)
        (bmoc_strs (Pa.bmoc_bugs r.E.r_diags));
      Alcotest.(check bool)
        (name ^ ": bmoc skips and notes")
        true
        (warnings
           (List.map Pa.skip_diag full.f_skipped
           @ List.map Pa.note_diag full.f_notes)
        = warnings
            (List.filter
               (fun (d : D.t) -> d.D.pass = "bmoc" && Pa.bmoc_bugs [ d ] = [])
               r.E.r_diags));
      Alcotest.(check (list (pair string int)))
        (name ^ ": bmoc counters")
        (List.filter
           (fun (k, _) -> String.starts_with ~prefix:"bmoc." k)
           (Goobs.Metrics.counters_list reg))
        (Pipeline.bmoc_counters r);
      let alias = Goanalysis.Alias.analyse ir in
      let cg = Goanalysis.Callgraph.build ~alias ir in
      let prims = Gcatch.Primitives.collect ir alias in
      Alcotest.(check (list string))
        (name ^ ": nonblocking bugs")
        (nb_strs (Gcatch.Nonblocking.detect ~alias ~cg ~prims ir))
        (nb_strs (Pa.nb_bugs r.E.r_diags)))
    programs

(* The SAT instance BMOC hands the solver is part of the output: the
   pass metrics print its counters.  Each program's bmoc metrics on a
   fresh engine and the digest of its bugs' witnesses must equal the
   pinned values in {!Sat_pins}.  A fresh engine starts with an empty
   solve tier, so every channel is solved, not replayed. *)
let test_sat_instance_pinned () =
  let module E = Goengine.Engine in
  let module Pa = Gcatch.Passes in
  Alcotest.(check int) "every program pinned" (List.length programs)
    (List.length Sat_pins.pins);
  List.iter2
    (fun (name, sources) (pin_name, pin_metrics, pin_witness) ->
      Alcotest.(check string) "program order" pin_name name;
      let r = E.analyse (Pa.engine ()) ~name sources in
      let pr = List.find (fun pr -> pr.E.pr_pass = "bmoc") r.E.r_passes in
      let metrics =
        String.concat " "
          (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) pr.E.pr_metrics)
      in
      let witnesses =
        String.concat ";"
          (List.map
             (fun (b : Gcatch.Report.bmoc_bug) ->
               String.concat ","
                 (List.map (fun (pp, o) -> Printf.sprintf "%d:%d" pp o) b.witness))
             (Pa.bmoc_bugs r.E.r_diags))
      in
      Alcotest.(check string) (name ^ ": bmoc metrics") pin_metrics metrics;
      Alcotest.(check string) (name ^ ": witness digest") pin_witness
        (Digest.to_hex (Digest.string witnesses)))
    programs Sat_pins.pins

let app_tests =
  List.concat_map
    (fun name ->
      [
        Alcotest.test_case (name ^ " parses") `Quick (test_app_parses name);
        Alcotest.test_case (name ^ " full recall") `Slow (test_full_recall name);
        Alcotest.test_case (name ^ " no unexpected FPs") `Slow
          (test_no_unexpected_fp name);
      ])
    [ "go"; "docker"; "etcd"; "grpc"; "bbolt"; "cockroachdb"; "tidb" ]

let tests =
  app_tests
  @ [
      Alcotest.test_case "bug-free apps stay clean" `Slow test_empty_apps_clean;
      Alcotest.test_case "docker strategy split" `Slow test_strategy_split;
      Alcotest.test_case "per-bug fix expectations (etcd)" `Slow test_fix_expectations;
      Alcotest.test_case "bug-set coverage = 33/49" `Slow test_bugset_coverage;
      Alcotest.test_case "seeded bugs manifest dynamically" `Quick
        test_pattern_bugs_manifest;
      Alcotest.test_case "benign patterns never leak" `Quick
        test_benign_patterns_never_leak;
      Alcotest.test_case "filler is benign" `Quick test_filler_is_benign;
      Alcotest.test_case "engine facts match standalone derivation" `Slow
        test_engine_facts_match_standalone;
      Alcotest.test_case "SAT instance pinned on every program" `Slow
        test_sat_instance_pinned;
    ]
