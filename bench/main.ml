(* Benchmark harness: regenerates every evaluation artifact of the paper.

     dune exec bench/main.exe            # all experiments E1..E8 + micro
     dune exec bench/main.exe e1 e5      # a subset
     dune exec bench/main.exe micro      # Bechamel micro-benchmarks only

   Each experiment prints the measured reproduction next to the number
   the paper reports; EXPERIMENTS.md records a snapshot of this output.
   E1 and E4 are deterministic: `dune runtest` diffs `main.exe e1 e4`
   against bench/e1_e4.expected.

   E1  Table 1 (per-app detection and fixing counts)
   E2  scalability: detection wall-time vs application size  (§5.2)
   E3  false-positive breakdown                               (§5.2)
   E4  coverage on the public bug set: 33/49                  (§5.2)
   E5  disentangling ablation: large slowdown when disabled   (§5.2)
   E6  patch runtime overhead: avg 0.26%                      (§5.3)
   E7  patch readability: avg 2.67 changed lines              (§5.3)
   E8  GFix time: ~98% spent in preprocessing                 (§5.3) *)

module Score = Goreport.Score
module R = Gcatch.Report
module G = Gcatch.Gfix
module E = Goengine.Engine
module Clock = Goengine.Clock

(* The §6 WaitGroup extension, registered on the shared engine as the
   extra pass "bmoc+waitgroup". *)
let wg_cfg =
  {
    Gcatch.Bmoc.default_config with
    path_cfg = { Gcatch.Pathenum.default_config with model_waitgroup = true };
  }

(* One staged engine drives every experiment: E1's per-app compiles are
   reused by E5/E6/E8 and by E4's second (WaitGroup-extension) sweep, so
   each distinct source set is parsed/typechecked/lowered, and its alias
   facts and call graph derived, exactly once per bench run. *)
let engine =
  lazy
    (let e = Gcatch.Passes.engine () in
     E.register e
       {
         (Gcatch.Passes.bmoc_pass ~cfg:wg_cfg ()) with
         E.p_name = "bmoc+waitgroup";
         p_doc = "BMOC with WaitGroup Add/Done/Wait modeled (§6)";
         p_default = false;
       };
     e)

let analyse ?only ~name sources =
  E.analyse ?only (Lazy.force engine) ~name sources

let bmoc_of (r : E.run) = Gcatch.Passes.bmoc_bugs r.E.r_diags
let typed_of (r : E.run) = Lazy.force (Option.get r.E.r_artifacts).E.a_typed

(* The sum of one counter over an app's detector passes. *)
let pass_counter (s : Score.app_score) name =
  List.fold_left
    (fun acc pr ->
      acc + Option.value (List.assoc_opt name pr.E.pr_metrics) ~default:0)
    0 s.run.E.r_passes

let line () = print_endline (String.make 78 '-')

let header title =
  line ();
  print_endline title;
  line ()

(* The per-app sweep.  Apps are compiled first, filling the shared
   artifact cache, so each app's score times its facts and detection
   (E2) and not its compile. *)
let scores : Score.app_score list Lazy.t =
  lazy
    (let e = Lazy.force engine in
     let apps = Gocorpus.Apps.all () in
     List.iter
       (fun (app : Gocorpus.Apps.app) ->
         ignore (E.artifacts e ~name:app.spec.name app.sources))
       apps;
     List.map (fun app -> Score.score_app ~engine:e app) apps)

(* ------------------------------------------------------------- E1 --- *)

let e1 () =
  header
    "E1 | Table 1: bugs detected by GCatch and fixed by GFix per application\n\
    \   | cells are true-positives/false-positives, the paper's x_y notation";
  Printf.printf
    "%-13s %7s | %-7s %-6s %-6s %-6s %-6s %-6s %-6s | %3s %3s %3s %7s\n" "app"
    "LoC" "BMOC_C" "BMOC_M" "unlck" "dlck" "cnflt" "field" "fatal" "S1" "S2"
    "S3" "unfixed";
  let tot = Array.make 16 0 in
  List.iter
    (fun (s : Score.app_score) ->
      let cell (tp, fp) = Printf.sprintf "%d/%d" tp fp in
      let t kind =
        match List.assoc_opt kind s.trad with Some c -> c | None -> (0, 0)
      in
      let ul = t R.Forget_unlock
      and dl = t R.Double_lock
      and cf = t R.Conflict_lock
      and fr = t R.Struct_field_race
      and ft = t R.Fatal_in_child in
      Printf.printf
        "%-13s %7d | %-7s %-6s %-6s %-6s %-6s %-6s %-6s | %3d %3d %3d %7d\n"
        s.name s.loc
        (cell (s.bmoc_c_tp, s.bmoc_c_fp))
        (cell (s.bmoc_m_tp, s.bmoc_m_fp))
        (cell ul) (cell dl) (cell cf) (cell fr) (cell ft) s.fixed_s1 s.fixed_s2
        s.fixed_s3 s.unfixed;
      let add i v = tot.(i) <- tot.(i) + v in
      add 0 s.bmoc_c_tp;
      add 1 s.bmoc_c_fp;
      add 2 s.bmoc_m_tp;
      add 3 s.bmoc_m_fp;
      add 4 (fst ul);
      add 5 (snd ul);
      add 6 (fst dl);
      add 7 (snd dl);
      add 8 (fst cf);
      add 9 (snd cf);
      add 10 (fst fr);
      add 11 (snd fr);
      add 12 (fst ft);
      add 13 (snd ft);
      add 14 (s.fixed_s1 + s.fixed_s2 + s.fixed_s3);
      add 15 s.unfixed)
    (Lazy.force scores);
  line ();
  Printf.printf
    "TOTAL         BMOC_C %d/%d  BMOC_M %d/%d  unlock %d/%d  dlock %d/%d  \
     conflict %d/%d  field %d/%d  fatal %d/%d\n"
    tot.(0) tot.(1) tot.(2) tot.(3) tot.(4) tot.(5) tot.(6) tot.(7) tot.(8)
    tot.(9) tot.(10) tot.(11) tot.(12) tot.(13);
  Printf.printf "GFix          fixed %d  unfixed %d\n" tot.(14) tot.(15);
  Printf.printf
    "paper         BMOC_C 147/46 BMOC_M 2/5 unlock 32/15 dlock 19/16 \
     conflict 9/5 field 33/31 fatal 26/0; GFix fixed 124 (S1 99, S2 4, S3 21)\n";
  Printf.printf
    "note          the corpus seeds roughly a third of the paper's volume;\n\
    \              the target is the table's *shape*: which checkers fire\n\
    \              per app, S1 >> S3 > S2, and a similar TP:FP ratio\n"

(* ------------------------------------------------------------- E2 --- *)

let e2 () =
  header
    "E2 | Scalability: detection wall-time vs application size (paper: 3 MLoC\n\
    \   | Kubernetes takes 25.6 h; small apps finish in under a minute)";
  Printf.printf "%-14s %9s %12s %14s %12s\n" "app" "LoC" "time (s)"
    "solver calls" "path events";
  let rows =
    List.sort
      (fun (a : Score.app_score) b -> compare a.loc b.loc)
      (Lazy.force scores)
  in
  List.iter
    (fun (s : Score.app_score) ->
      Printf.printf "%-14s %9d %12.3f %14d %12d\n" s.name s.loc s.elapsed_s
        (pass_counter s "bmoc.solver_calls")
        (pass_counter s "bmoc.total_path_events"))
    rows;
  let slowest =
    List.fold_left
      (fun (acc : Score.app_score) s ->
        if s.Score.elapsed_s > acc.elapsed_s then s else acc)
      (List.hd rows) rows
  in
  let fastest = List.hd rows in
  Printf.printf
    "\nshape: the heaviest app (%s) costs %.0fx the lightest (%s); time\n\
     tracks synchronization-bearing code (solver calls), not raw LoC —\n\
     exactly the scaling disentangling buys: channel-free code is skipped\n"
    slowest.name
    (slowest.elapsed_s /. max 1e-6 fastest.elapsed_s)
    fastest.name

(* ------------------------------------------------------------- E3 --- *)

let e3 () =
  header
    "E3 | False-positive breakdown (paper: 51 BMOC FPs = 20 infeasible paths,\n\
    \   | 17 alias limitations, 14 call-graph limitations)";
  let loop_fp = ref 0 and infeasible_fp = ref 0 and other_fp = ref 0 in
  List.iter
    (fun (s : Score.app_score) ->
      let app = Option.get (Gocorpus.Apps.find s.name) in
      List.iter
        (fun (b : R.bmoc_bug) ->
          match Score.classify_bmoc app.truth b with
          | Score.TP _ -> ()
          | Score.FP_expected | Score.FP_unexpected ->
              let scope_bases =
                List.map Score.base_func
                  (List.map (fun (o : R.blocked_op) -> o.bo_func) b.blocked
                  @ b.scope_funcs)
              in
              let has prefix =
                List.exists
                  (fun f ->
                    String.length f >= String.length prefix
                    && String.sub f 0 (String.length prefix) = prefix)
                  scope_bases
              in
              if has "BatchCopy" then incr loop_fp
              else if has "GuardedNotify" then incr infeasible_fp
              else incr other_fp)
        s.bmoc)
    (Lazy.force scores);
  Printf.printf "loop-unrolling FPs:   %d   (paper: 11 of 51)\n" !loop_fp;
  Printf.printf "infeasible-path FPs:  %d   (paper: 9 + 20 related)\n"
    !infeasible_fp;
  Printf.printf "other FPs:            %d   (paper: 17 alias + 14 call graph)\n"
    !other_fp;
  let tp =
    List.fold_left
      (fun acc (s : Score.app_score) -> acc + s.bmoc_c_tp + s.bmoc_m_tp)
      0 (Lazy.force scores)
  in
  let fp = !loop_fp + !infeasible_fp + !other_fp in
  Printf.printf "TP:FP ratio:          %d:%d = %.1f   (paper: 149:51 = 2.9)\n" tp
    fp
    (float_of_int tp /. float_of_int (max 1 fp))

(* ------------------------------------------------------------- E4 --- *)

let e4 () =
  header
    "E4 | Coverage on the public Go concurrency bug set (paper: GCatch detects\n\
    \   | 33 of 49 BMOC bugs = 67%)";
  let per_class : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
  let detected = ref 0 in
  List.iter
    (fun (e : Gocorpus.Bugset.entry) ->
      let r =
        analyse ~only:[ "bmoc" ] ~name:e.bs_name [ "package b\n" ^ e.bs_src ]
      in
      let found = bmoc_of r <> [] in
      if found then incr detected;
      let d, t =
        Option.value (Hashtbl.find_opt per_class e.bs_class) ~default:(0, 0)
      in
      Hashtbl.replace per_class e.bs_class
        ((d + if found then 1 else 0), t + 1))
    Gocorpus.Bugset.entries;
  Hashtbl.fold (fun cls v acc -> (cls, v) :: acc) per_class []
  |> List.sort compare
  |> List.iter (fun (cls, (d, t)) -> Printf.printf "  %-52s %d/%d\n" cls d t);
  Printf.printf "\ncoverage: %d/%d = %.0f%%   (paper: 33/49 = 67%%)\n" !detected
    Gocorpus.Bugset.total
    (100. *. float_of_int !detected /. float_of_int Gocorpus.Bugset.total);
  (* the §6 WaitGroup extension recovers part of the miss classes *)
  let detected_ext = ref 0 in
  List.iter
    (fun (e : Gocorpus.Bugset.entry) ->
      (* same sources, new pass: the engine serves the compile and the
         facts from its cache and only detection re-runs *)
      let r =
        analyse ~only:[ "bmoc+waitgroup" ] ~name:e.bs_name
          [ "package b\n" ^ e.bs_src ]
      in
      if bmoc_of r <> [] then incr detected_ext)
    Gocorpus.Bugset.entries;
  Printf.printf
    "with the §6 WaitGroup extension enabled: %d/%d = %.0f%% (the paper \
     leaves\nthis as future work)\n"
    !detected_ext Gocorpus.Bugset.total
    (100. *. float_of_int !detected_ext /. float_of_int Gocorpus.Bugset.total)

(* ------------------------------------------------------------- E5 --- *)

let e5 () =
  header
    "E5 | Disentangling ablation (paper: disabling disentangling slows BMOC\n\
    \   | detection by over 115x and lengthens enumerated paths)";
  (* mid-size apps keep the ablated run within minutes; on docker/etcd the
     ablation costs 3+ minutes each at 40-90x *)
  let apps = [ "bbolt"; "grpc"; "go-ethereum" ] in
  Printf.printf "%-14s %12s %12s %10s %12s %12s\n" "app" "on (s)" "off (s)"
    "slowdown" "events on" "events off";
  let total_ratio = ref 0. in
  List.iter
    (fun name ->
      let app = Option.get (Gocorpus.Apps.find name) in
      let a = E.artifacts (Lazy.force engine) ~name app.sources in
      let ir = Lazy.force a.E.a_ir in
      let run cfg =
        let t0 = Clock.now_s () in
        let r = Gcatch.Bmoc.detect_full ~cfg ir in
        (Clock.elapsed_since t0, r.Gcatch.Bmoc.f_stats)
      in
      let t_on, s_on = run Gcatch.Bmoc.default_config in
      let t_off, s_off =
        run { Gcatch.Bmoc.default_config with disentangle = false }
      in
      let ratio = t_off /. max 1e-6 t_on in
      total_ratio := !total_ratio +. ratio;
      Printf.printf "%-14s %12.3f %12.3f %9.1fx %12d %12d\n" name t_on t_off
        ratio s_on.total_path_events s_off.total_path_events)
    apps;
  Printf.printf
    "\nmean slowdown: %.1fx  (paper: >=115x; our ablation keeps the safety\n\
     caps on combinations, which bounds the blowup the paper ran into,\n\
     and the per-channel solve cache collapses the ablated scope's many\n\
     identical canonical problems onto single solves)\n"
    (!total_ratio /. float_of_int (List.length apps))

(* ------------------------------------------------------------- E6 --- *)

(* Drivers whose happy path never triggers the bug, mirroring the paper's
   methodology of timing whole unit tests that exercise the patched code
   but pass (§5.3).  Each driver also runs the surrounding test workload
   (a channel-based work loop), so the patch's constant cost is amortised
   the way it is inside a real unit test. *)
let test_workload =
  "func workload() int {\n\
   \ttotal := 0\n\
   \tfor i := range 40 {\n\
   \t\tc := make(chan int, 1)\n\
   \t\tc <- i\n\
   \t\ttotal = total + <-c\n\
   \t}\n\
   \treturn total\n\
   }\n"

let overhead_cases =
  [
    ( "single-send (S1)",
      (* the result always wins the race because nothing feeds timeout *)
      "package p\n" ^ test_workload ^ "\
       func Fetch(timeout chan bool, url string) string {\n\
       \tresult := make(chan string)\n\
       \tgo func(u string) {\n\t\tresult <- u + \"/index\"\n\t}(url)\n\
       \tselect {\n\
       \tcase body := <-result:\n\t\treturn body\n\
       \tcase <-timeout:\n\t\treturn \"\"\n\
       \t}\n\
       }\n\
       func main() {\n\
       \tprintln(workload())\n\
       \ttimeout := make(chan bool, 1)\n\
       \tprintln(Fetch(timeout, \"u\"))\n\
       }" );
    ( "missing-interaction (S2)",
      (* the Fatal guard can fire statically but never at run time *)
      "package p\n" ^ test_workload ^ "\
       func start(stop chan bool) {\n\t<-stop\n}\n\
       func TestD(t *testing.T, name string) {\n\
       \tstop := make(chan bool)\n\
       \tgo start(stop)\n\
       \tif len(name) > 100 {\n\t\tt.Fatalf(\"name too long\")\n\t}\n\
       \tstop <- true\n\
       }\n\
       func main() {\n\tprintln(workload())\n\tvar t *testing.T\n\tTestD(t, \"short\")\n}" );
    ( "loop-send (S3)",
      (* zero inputs: the producer exits before ever sending *)
      "package p\n" ^ test_workload ^ "\
       func Inter(abort chan bool, n int) int {\n\
       \tsched := make(chan string)\n\
       \tgo func(k int) {\n\t\tfor i := range k {\n\t\t\tsched <- \"l\"\n\t\t}\n\t}(n)\n\
       \tselect {\n\tcase <-abort:\n\t\treturn 0\n\tcase <-sched:\n\t\treturn 1\n\t}\n\
       }\n\
       func main() {\n\
       \tprintln(workload())\n\
       \tabort := make(chan bool, 1)\n\
       \tabort <- true\n\
       \tprintln(Inter(abort, 0))\n\
       }" );
  ]

let e6 () =
  header
    "E6 | Patch runtime overhead in scheduler steps (paper: avg 0.26%, max\n\
    \   | 3.77% wall-clock over the unit tests covering each patch)";
  Printf.printf "%-26s %12s %12s %10s\n" "bug shape" "orig steps" "patched"
    "overhead";
  let overheads =
    List.filter_map
      (fun (name, src) ->
        let r = analyse ~name:"e6" [ src ] in
        let source = typed_of r in
        let patched =
          List.fold_left
            (fun prog (_, o) ->
              match o with G.Fixed f -> f.patched | G.Not_fixed _ -> prog)
            source
            (G.fix_all source (bmoc_of r))
        in
        (* average steps over schedules where the original does not leak,
           so both versions do comparable work *)
        let steps prog =
          let total = ref 0 and n = ref 0 in
          for seed = 1 to 30 do
            let r = Goruntime.Interp.run ~seed prog in
            if r.leaked = [] then begin
              total := !total + r.steps;
              incr n
            end
          done;
          if !n = 0 then None
          else Some (float_of_int !total /. float_of_int !n)
        in
        match (steps source, steps patched) with
        | Some s0, Some s1 ->
            let ov = 100. *. (s1 -. s0) /. max 1. s0 in
            Printf.printf "%-26s %12.1f %12.1f %9.2f%%\n" name s0 s1 ov;
            Some ov
        | _ ->
            Printf.printf "%-26s (no leak-free schedule to compare)\n" name;
            None)
      overhead_cases
  in
  match overheads with
  | [] -> ()
  | _ ->
      let avg =
        List.fold_left ( +. ) 0. overheads
        /. float_of_int (List.length overheads)
      in
      let mx = List.fold_left max neg_infinity overheads in
      Printf.printf "\navg %.2f%%  max %.2f%%   (paper: avg 0.26%%, max 3.77%%)\n"
        avg mx

(* ------------------------------------------------------------- E7 --- *)

let e7 () =
  header
    "E7 | Patch readability: changed source lines per strategy (paper: S1 = 1,\n\
    \   | S2 = 4, S3 avg 10.3 max 16; overall avg 2.67)";
  let by_strategy = Hashtbl.create 4 in
  List.iter
    (fun (s : Score.app_score) ->
      List.iter
        (fun (_, o) ->
          match o with
          | G.Fixed f ->
              let cur =
                Option.value
                  (Hashtbl.find_opt by_strategy f.strategy)
                  ~default:[]
              in
              Hashtbl.replace by_strategy f.strategy (f.changed_lines :: cur)
          | G.Not_fixed _ -> ())
        s.fix_details)
    (Lazy.force scores);
  let all = ref [] in
  List.iter
    (fun (strat, paper) ->
      match Hashtbl.find_opt by_strategy strat with
      | Some lines ->
          all := lines @ !all;
          let n = List.length lines in
          let avg =
            float_of_int (List.fold_left ( + ) 0 lines) /. float_of_int n
          in
          let mx = List.fold_left max 0 lines in
          Printf.printf "%-38s n=%3d  avg %.2f  max %d   (paper: %s)\n"
            (G.strategy_str strat) n avg mx paper
      | None -> Printf.printf "%-38s none generated\n" (G.strategy_str strat))
    [
      (G.S1_increase_buffer, "always 1");
      (G.S2_defer_op, "4");
      (G.S3_add_stop, "avg 10.3, max 16");
    ];
  match !all with
  | [] -> ()
  | lines ->
      Printf.printf "\noverall avg %.2f changed lines   (paper: 2.67)\n"
        (float_of_int (List.fold_left ( + ) 0 lines)
        /. float_of_int (List.length lines))

(* ------------------------------------------------------------- E8 --- *)

let e8 () =
  header
    "E8 | GFix execution time (paper: ~98% of patch generation is SSA/alias\n\
    \   | preprocessing; the source transformation itself is fast)";
  Printf.printf "%-14s %14s %14s %10s\n" "app" "preproc (s)" "patching (s)"
    "% preproc";
  let apps = [ "docker"; "etcd"; "go"; "grpc" ] in
  (* a private engine: E8 measures *cold* preprocessing, so it must not
     be served compiles cached by earlier experiments *)
  let cold = Gcatch.Passes.engine () in
  List.iter
    (fun name ->
      let app = Option.get (Gocorpus.Apps.find name) in
      let t0 = Clock.now_s () in
      (* preprocessing: parse, type check, lower, alias, call graph, and
         detection — everything GFix consumes *)
      let r = E.analyse cold ~name app.sources in
      let t1 = Clock.now_s () in
      ignore (G.fix_all (typed_of r) (bmoc_of r));
      let t2 = Clock.now_s () in
      let pre = t1 -. t0 and fix = t2 -. t1 in
      Printf.printf "%-14s %14.3f %14.3f %9.1f%%\n" name pre fix
        (100. *. pre /. max 1e-9 (pre +. fix)))
    apps

(* ----------------------------------------------------------- micro --- *)

let micro () =
  header
    "micro | per-stage timings (Bechamel test definitions, mean of 25 runs)";
  let open Bechamel in
  let fig1_src =
    "package p\n"
    ^ (Gocorpus.Patterns.instantiate Gocorpus.Patterns.P_single_send_select 1)
        .src
  in
  let parsed =
    Minigo.Typecheck.check_program (Minigo.Parser.parse_string fig1_src)
  in
  let ir = Goir.Lower.lower_program parsed in
  let bbolt = Option.get (Gocorpus.Apps.find "bbolt") in
  let tests =
    [
      Test.make ~name:"parse+typecheck figure-1"
        (Staged.stage (fun () ->
             ignore
               (Minigo.Typecheck.check_program
                  (Minigo.Parser.parse_string fig1_src))));
      Test.make ~name:"lower to IR"
        (Staged.stage (fun () -> ignore (Goir.Lower.lower_program parsed)));
      Test.make ~name:"alias analysis"
        (Staged.stage (fun () -> ignore (Goanalysis.Alias.analyse ir)));
      Test.make ~name:"BMOC detection (figure-1)"
        (Staged.stage (fun () -> ignore (Gcatch.Bmoc.detect_full ir)));
      Test.make ~name:"full analysis (bbolt, cached compile)"
        (Staged.stage (fun () ->
             ignore (analyse ~name:"bbolt" bbolt.sources)));
      Test.make ~name:"engine artifact lookup (cache hit)"
        (Staged.stage (fun () ->
             ignore (E.artifacts (Lazy.force engine) ~name:"bbolt" bbolt.sources)));
      Test.make ~name:"run figure-1 on the scheduler"
        (Staged.stage (fun () ->
             ignore (Goruntime.Interp.run ~entry:"ExecTask1" parsed)));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  (* Compact before sampling: per-sample GC stabilization costs are
     proportional to the live heap, so any garbage left by previously
     run experiments would be billed to every sample here. *)
  Gc.compact ();
  let cfg =
    Benchmark.cfg ~limit:300 ~quota:(Time.second 0.4) ~kde:None ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let t0 = Clock.now_s () in
      let raw = Benchmark.all cfg [ instance ] test in
      let wall = Clock.elapsed_since t0 in
      let results = Analyze.all ols instance raw in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ ns_per_run ] ->
              Printf.printf "%-38s %12.3f ms/run  (r² %s, %4.1fs)\n" name
                (ns_per_run /. 1e6)
                (match Analyze.OLS.r_square result with
                | Some r -> Printf.sprintf "%.3f" r
                | None -> "-")
                wall
          | _ -> Printf.printf "%-38s (no estimate)\n" name)
        results)
    tests

(* micro runs first: its per-stage timings stabilize the GC before every
   sample, and that stabilization is priced by the live heap — run last,
   it would measure the macro experiments' artifact caches instead of
   the stages under test (3x slower and noisier estimates). *)
let all =
  [
    ("micro", micro); ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4);
    ("e5", e5); ("e6", e6); ("e7", e7); ("e8", e8);
  ]

let () =
  let names = List.tl (Array.to_list Sys.argv) in
  let chosen =
    match names with
    | [] -> all
    | names -> List.filter (fun (n, _) -> List.mem n names) all
  in
  List.iter
    (fun (_, f) ->
      (* every experiment starts with an empty memory tier for the
         standalone detector (micro and E5 time [Bmoc.detect_full]), so
         its numbers do not depend on which experiments ran before.  The
         shared engine keeps its verdicts across experiments, as it
         keeps its compiles and records; E8, which times cold runs,
         analyses on an engine of its own. *)
      Gcatch.Solve_cache.reset_memory ();
      f ())
    chosen;
  if Lazy.is_val engine then begin
    line ();
    print_endline ("engine " ^ E.stats_str (Lazy.force engine))
  end
