(* Benchmark harness: regenerates every evaluation artifact of the paper.

     dune exec bench/main.exe            # all experiments E1..E8 + micro
     dune exec bench/main.exe e1 e5      # a subset
     dune exec bench/main.exe micro      # Bechamel micro-benchmarks only
     dune exec bench/main.exe -- --jobs 4             # parallel detectors
     dune exec bench/main.exe -- --json BENCH.json    # machine-readable out

   Each experiment prints the measured reproduction next to the number
   the paper reports; EXPERIMENTS.md records a snapshot of this output.

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
module Pool = Goengine.Pool
module D = Goengine.Diagnostics
module M = Goobs.Metrics

(* --jobs N: size of the domain pool the detectors fan out on. *)
let jobs_flag = ref 1

(* One staged engine drives every experiment: E1's per-app compiles are
   reused by E5/E6/E8 and by E4's second (WaitGroup-extension) sweep, so
   each distinct source set is parsed/typechecked/lowered exactly once
   per bench run. *)
let engine = lazy (E.create ~jobs:!jobs_flag ())

let analyse ?cfg ~name sources =
  Gcatch.Driver.analyse_with (Lazy.force engine) ?cfg ~name sources

let line () = print_endline (String.make 78 '-')

let header title =
  line ();
  print_endline title;
  line ()

(* The per-app sweep fans out across the pool.  Apps are compiled first
   (sequentially, filling the shared artifact cache) so the parallel part
   is pure detection; [Pool.map] keeps results in input order and a
   nested per-channel fan-out inside a worker forks real scheduled tasks
   with the same input-order assembly, so the scores are identical at
   every jobs setting. *)
let scores : Score.app_score list Lazy.t =
  lazy
    (let e = Lazy.force engine in
     let apps = Gocorpus.Apps.all () in
     List.iter
       (fun (app : Gocorpus.Apps.app) ->
         ignore (E.artifacts e ~name:app.spec.name app.sources))
       apps;
     Pool.map ~pool:(E.pool e) (fun app -> Score.score_app ~engine:e app) apps)

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
        s.analysis.stats.solver_calls s.analysis.stats.total_path_events)
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
        s.analysis.bmoc)
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
      let a = analyse ~name:e.bs_name [ "package b\n" ^ e.bs_src ] in
      let found = a.bmoc <> [] in
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
  let wg_cfg =
    {
      Gcatch.Bmoc.default_config with
      path_cfg = { Gcatch.Pathenum.default_config with model_waitgroup = true };
    }
  in
  let detected_ext = ref 0 in
  List.iter
    (fun (e : Gocorpus.Bugset.entry) ->
      (* same sources, new config: the engine serves the compile from
         its cache and only detection re-runs *)
      let a = analyse ~cfg:wg_cfg ~name:e.bs_name [ "package b\n" ^ e.bs_src ] in
      if a.bmoc <> [] then incr detected_ext)
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
        let _, stats = Gcatch.Bmoc.detect ~cfg ir in
        (Clock.elapsed_since t0, stats)
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
        let a = analyse ~name:"e6" [ src ] in
        let patched =
          List.fold_left
            (fun prog (_, o) ->
              match o with G.Fixed f -> f.patched | G.Not_fixed _ -> prog)
            a.source
            (G.fix_all a.source a.bmoc)
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
        match (steps a.source, steps patched) with
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
  let cold = E.create () in
  List.iter
    (fun name ->
      let app = Option.get (Gocorpus.Apps.find name) in
      let t0 = Clock.now_s () in
      (* preprocessing: parse, type check, lower, alias, call graph, and
         detection — everything GFix consumes *)
      let a = Gcatch.Driver.analyse_with cold ~name app.sources in
      let t1 = Clock.now_s () in
      ignore (G.fix_all a.source a.bmoc);
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
        (Staged.stage (fun () -> ignore (Gcatch.Bmoc.detect ir)));
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

(* ---------------------------------------------------- e2 parallel --- *)

(* Scalability of the detector fan-out: the largest corpus app analysed
   through the full pass registry at jobs=1/2/4.  Compilation happens
   outside the timer (each engine's artifact cache is pre-filled), so the
   measured time is detection only — the part the pool parallelises.
   The diagnostics JSON must be byte-identical across job counts. *)
type par_point = {
  pp_jobs : int;
  pp_seconds : float;
  pp_diags : string;
  pp_passes : (string * float) list; (* per-pass wall time, seconds *)
}

type par_result = {
  par_app : string;
  par_loc : int;
  par_points : par_point list;
  par_identical : bool;
}

let par_result : par_result option ref = ref None

let e2par () =
  header
    "E2p | Parallel detection: largest corpus app through the full pass
    \    | registry at --jobs 1/2/4 (byte-identical diagnostics required)";
  let apps = Gocorpus.Apps.all () in
  let app =
    List.fold_left
      (fun (acc : Gocorpus.Apps.app) (a : Gocorpus.Apps.app) ->
        if a.loc > acc.loc then a else acc)
      (List.hd apps) apps
  in
  Printf.printf "app: %s (%d LoC); hardware threads: %d

" app.spec.name
    app.loc
    (Domain.recommended_domain_count ());
  Printf.printf "%6s %12s %10s
" "jobs" "time (s)" "speedup";
  let points =
    List.map
      (fun jobs ->
        let e = E.create ~passes:(Gcatch.Passes.all ()) ~jobs () in
        (* compile outside the timer *)
        let a = E.artifacts e ~name:app.spec.name app.sources in
        ignore (Lazy.force a.E.a_callgraph);
        let t0 = Clock.now_s () in
        let r = E.analyse e ~name:app.spec.name app.sources in
        let dt = Clock.elapsed_since t0 in
        {
          pp_jobs = jobs;
          pp_seconds = dt;
          pp_diags = D.list_to_json r.E.r_diags;
          pp_passes =
            List.map
              (fun (pr : E.pass_run) -> (pr.E.pr_pass, pr.E.pr_elapsed_s))
              r.E.r_passes;
        })
      [ 1; 2; 4 ]
  in
  let base = (List.hd points).pp_seconds in
  List.iter
    (fun p ->
      Printf.printf "%6d %12.3f %9.2fx
" p.pp_jobs p.pp_seconds
        (base /. max 1e-9 p.pp_seconds))
    points;
  let identical =
    List.for_all (fun p -> p.pp_diags = (List.hd points).pp_diags) points
  in
  Printf.printf "
diagnostics byte-identical across jobs: %b
" identical;
  if not identical then failwith "e2par: diagnostics differ across job counts";
  par_result :=
    Some
      {
        par_app = app.spec.name;
        par_loc = app.loc;
        par_points = points;
        par_identical = identical;
      }

(* ------------------------------------------------------- E-incr --- *)

(* The PR-4 incremental tier: per-channel verdicts are content-addressed
   and cached (memory tier always; disk tier under a cache dir), so a
   warm re-run of an unchanged program resolves every channel without
   touching the solver.  Measured per app: a cold run (empty cache), a
   warm run (memory tier), and a warm-from-disk run (memory tier
   dropped, simulating a fresh process). *)
type incr_point = {
  ip_app : string;
  ip_cold_s : float;
  ip_warm_s : float;
  ip_disk_s : float;
  ip_hits : int;   (* cache hits during the warm (memory) run *)
  ip_misses : int; (* misses during the cold run = distinct problems *)
}

let incr_results : incr_point list ref = ref []

let counter_now name =
  match
    List.assoc_opt name (Goobs.Metrics.counters_list Goobs.Metrics.default)
  with
  | Some v -> v
  | None -> 0

let eincr () =
  header
    "E-incr | Incremental solving and the solve cache: cold vs warm\n\
    \       | detection, memory tier and warm-from-disk (PR 4)";
  let apps = [ "bbolt"; "grpc"; "go-ethereum" ] in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gcatch-bench-cache-%d" (Unix.getpid ()))
  in
  let clear_dir () =
    if Sys.file_exists dir then
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir)
  in
  clear_dir ();
  Printf.printf "%-14s %10s %10s %10s %9s %7s %7s\n" "app" "cold (s)"
    "warm (s)" "disk (s)" "speedup" "miss" "hit";
  let results =
    List.map
      (fun name ->
        let app = Option.get (Gocorpus.Apps.find name) in
        let a = E.artifacts (Lazy.force engine) ~name app.sources in
        let ir = Lazy.force a.E.a_ir in
        let cfg = { Gcatch.Bmoc.default_config with cache_dir = Some dir } in
        Gcatch.Solve_cache.reset_memory ();
        let m0 = counter_now "bmoc.solve_cache_miss" in
        let t0 = Clock.now_s () in
        let bugs_cold, _ = Gcatch.Bmoc.detect ~cfg ir in
        let cold = Clock.elapsed_since t0 in
        let misses = counter_now "bmoc.solve_cache_miss" - m0 in
        let h0 = counter_now "bmoc.solve_cache_hit" in
        let t0 = Clock.now_s () in
        let bugs_warm, _ = Gcatch.Bmoc.detect ~cfg ir in
        let warm = Clock.elapsed_since t0 in
        let hits = counter_now "bmoc.solve_cache_hit" - h0 in
        (* drop the memory tier: the next run is served from disk *)
        Gcatch.Solve_cache.reset_memory ();
        let t0 = Clock.now_s () in
        let bugs_disk, _ = Gcatch.Bmoc.detect ~cfg ir in
        let disk = Clock.elapsed_since t0 in
        let same bugs =
          List.map R.bmoc_str bugs = List.map R.bmoc_str bugs_cold
        in
        if not (same bugs_warm && same bugs_disk) then
          failwith ("e-incr: warm verdicts differ from cold on " ^ name);
        Printf.printf "%-14s %10.3f %10.3f %10.3f %8.1fx %7d %7d\n" name cold
          warm disk
          (cold /. max 1e-6 warm)
          misses hits;
        {
          ip_app = name;
          ip_cold_s = cold;
          ip_warm_s = warm;
          ip_disk_s = disk;
          ip_hits = hits;
          ip_misses = misses;
        })
      apps
  in
  clear_dir ();
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  incr_results := results;
  let tot f = List.fold_left (fun acc p -> acc +. f p) 0. results in
  Printf.printf
    "\ntotal: cold %.3fs, warm %.3fs (%.0fx), warm-from-disk %.3fs (%.0fx)\n\
     (verdicts checked identical across all three runs)\n"
    (tot (fun p -> p.ip_cold_s))
    (tot (fun p -> p.ip_warm_s))
    (tot (fun p -> p.ip_cold_s) /. max 1e-6 (tot (fun p -> p.ip_warm_s)))
    (tot (fun p -> p.ip_disk_s))
    (tot (fun p -> p.ip_cold_s) /. max 1e-6 (tot (fun p -> p.ip_disk_s)))

(* --------------------------------------------------------- E-fe --- *)

(* The PR-7 parallel incremental frontend: a ~100k LoC synthetic app
   (corpus filler, split over many files) compiled per file through the
   effects scheduler with per-file content-addressed caching.  Measured:
   cold end-to-end analysis at jobs 1/2/4 with the per-stage wall-time
   breakdown (diagnostics must be byte-identical), then the incremental
   path — a cold run that fills a disk cache dir, a one-file edit, and a
   re-analysis through a fresh engine (simulating a fresh process):
   every unedited file's lex/parse/typecheck is served from the cache
   and only the edited file recompiles. *)
type fe_point = {
  fp_jobs : int;
  fp_seconds : float;
  fp_stages : (string * float) list; (* per-stage wall time, ms *)
  fp_diags : string;
}

type fe_result = {
  fe_files : int;
  fe_loc : int;
  fe_points : fe_point list; (* cold, jobs 1/2/4 *)
  fe_cold_s : float; (* cold run that fills the disk tier (jobs 1) *)
  fe_warm_s : float; (* one-file edit, fresh engine, warm disk tier *)
  fe_warm_lex_runs : int; (* files re-lexed on the warm run *)
  fe_identical : bool; (* diags identical across jobs and cold/warm *)
}

let fe_result : fe_result option ref = ref None

let fe_stages =
  [ "lex"; "parse"; "sig"; "typecheck"; "lower"; "assemble"; "facts";
    "alias"; "callgraph" ]

let efe () =
  header
    "E-fe | Parallel incremental frontend: ~100k LoC synthetic app,\n\
    \     | per-file compilation at jobs 1/2/4, then a one-file edit\n\
    \     | against a warm per-file disk cache (PR 7)";
  let nfiles = 50 and per_file = 2000 in
  let sources =
    List.init nfiles (fun i ->
        "package app\n"
        ^ Gocorpus.Filler.generate ~seed:i ~target_lines:per_file)
  in
  let loc =
    List.fold_left
      (fun acc s -> acc + List.length (String.split_on_char '\n' s))
      0 sources
  in
  Printf.printf "app: %d file(s), %d LoC; hardware threads: %d\n\n" nfiles loc
    (Domain.recommended_domain_count ());
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gcatch-bench-fe-%d" (Unix.getpid ()))
  in
  let clear_dir () =
    if Sys.file_exists dir then
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir)
  in
  (* a fresh engine per measurement: empty memory tiers, so a run with
     no cache dir is genuinely cold and a cached run measures the disk
     tier alone (as a fresh process would see it) *)
  let analyse_fresh ~jobs ~cache_dir srcs =
    Gcatch.Solve_cache.reset_memory ();
    let cfg = { Gcatch.Bmoc.default_config with cache_dir } in
    let e = Gcatch.Passes.engine ~cfg ~jobs () in
    let t0 = Clock.now_s () in
    let r = E.analyse e ~name:"fe-app" srcs in
    (e, r, Clock.elapsed_since t0)
  in
  Printf.printf "%6s %12s %10s %12s\n" "jobs" "cold (s)" "kLoC/s" "stages";
  let points =
    List.map
      (fun jobs ->
        let e, r, dt = analyse_fresh ~jobs ~cache_dir:None sources in
        let reg = E.registry e in
        let stages =
          List.filter_map
            (fun s ->
              let ms =
                Goobs.Metrics.h_sum
                  (Goobs.Metrics.histogram reg ("stage." ^ s ^ ".ms"))
              in
              if ms > 0.0 then Some (s, ms) else None)
            fe_stages
        in
        Printf.printf "%6d %12.3f %10.1f %12s\n" jobs dt
          (float_of_int loc /. 1000.0 /. max 1e-9 dt)
          (String.concat " "
             (List.map (fun (s, ms) -> Printf.sprintf "%s=%.0fms" s ms) stages));
        {
          fp_jobs = jobs;
          fp_seconds = dt;
          fp_stages = stages;
          fp_diags = D.list_to_json r.E.r_diags;
        })
      [ 1; 2; 4 ]
  in
  let jobs_identical =
    List.for_all (fun p -> p.fp_diags = (List.hd points).fp_diags) points
  in
  if not jobs_identical then
    failwith "e-fe: diagnostics differ across job counts";
  (* the incremental path: cold run fills the disk tier, then one file
     gains a trailing comment and a fresh engine re-analyses *)
  clear_dir ();
  let _, r_cold, cold = analyse_fresh ~jobs:1 ~cache_dir:(Some dir) sources in
  let edited =
    List.mapi
      (fun i s -> if i = nfiles - 1 then s ^ "// trailing edit\n" else s)
      sources
  in
  let e_warm, r_warm, warm =
    analyse_fresh ~jobs:1 ~cache_dir:(Some dir) edited
  in
  let lex_runs = E.counter_value e_warm "stage.lex.runs" in
  let warm_identical =
    D.list_to_json r_warm.E.r_diags = D.list_to_json r_cold.E.r_diags
  in
  clear_dir ();
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  Printf.printf
    "\nincremental (one-file edit, fresh engine, warm disk tier):\n\
    \  cold %.3fs (%.1f kLoC/s)  warm %.3fs (%.1f kLoC/s)  speedup %.1fx\n\
    \  files re-lexed on the warm run: %d of %d\n\
     diagnostics identical across jobs and cold/warm: %b\n"
    cold
    (float_of_int loc /. 1000.0 /. max 1e-9 cold)
    warm
    (float_of_int loc /. 1000.0 /. max 1e-9 warm)
    (cold /. max 1e-9 warm)
    lex_runs nfiles
    (jobs_identical && warm_identical);
  if not warm_identical then
    failwith "e-fe: warm diagnostics differ from cold";
  if lex_runs <> 1 then
    failwith
      (Printf.sprintf "e-fe: warm run re-lexed %d file(s), expected 1"
         lex_runs);
  fe_result :=
    Some
      {
        fe_files = nfiles;
        fe_loc = loc;
        fe_points = points;
        fe_cold_s = cold;
        fe_warm_s = warm;
        fe_warm_lex_runs = lex_runs;
        fe_identical = jobs_identical && warm_identical;
      }

(* E-robust (PR 5): supervision-boundary overhead on the clean path.
   Two places the resilience layer could tax a healthy run: the
   per-function fault boundary in the traditional checkers, and the
   fault sites' fast path (one atomic load per trigger — worst case an
   armed plan that never matches, which adds a spec scan per trigger).
   Both are measured as medians over repeated runs; the acceptance
   target is < 1 % (EXPERIMENTS.md E-robust). *)
type robust_point = {
  rp_app : string;
  rp_bare_s : float;    (* five checkers, no metrics registry (bare) *)
  rp_guarded_s : float; (* same walks behind per-function boundaries *)
  rp_clean_s : float;   (* BMOC detection, no fault plan armed *)
  rp_armed_s : float;   (* BMOC detection, armed never-firing plan *)
}

let robust_results : robust_point list ref = ref []

let erobust () =
  header
    "E-robust | Supervision-boundary overhead on the clean path:\n\
    \         | bare vs guarded checker walks, unarmed vs armed-but-\n\
    \         | never-firing fault plan (PR 5)";
  let apps = [ "bbolt"; "grpc"; "go-ethereum" ] in
  let reps = 9 in
  let median l =
    let a = List.sort compare l in
    List.nth a (List.length a / 2)
  in
  (* the checker walks are sub-millisecond; batch them per sample so the
     clock reads work, not timer granularity *)
  let walk_batch = 50 in
  let time ?(n = 1) f =
    let t0 = Clock.now_s () in
    for _ = 1 to n do
      ignore (f ())
    done;
    Clock.elapsed_since t0 /. float_of_int n
  in
  let med ?n f = median (List.init reps (fun _ -> time ?n f)) in
  let pct over base = 100.0 *. ((over /. max 1e-9 base) -. 1.0) in
  Printf.printf "%-14s %10s %10s %7s %10s %10s %7s %9s\n" "app" "bare (ms)"
    "guard (ms)" "ovh" "clean (s)" "armed (s)" "ovh" "ovh/run";
  let results =
    List.map
      (fun name ->
        let app = Option.get (Gocorpus.Apps.find name) in
        let a = E.artifacts (Lazy.force engine) ~name app.sources in
        let ir = Lazy.force a.E.a_ir in
        let alias = Lazy.force a.E.a_alias in
        let cg = Lazy.force a.E.a_callgraph in
        let prims = Gcatch.Primitives.collect ir alias in
        let walk ?metrics () =
          List.length
            (Gcatch.Traditional.check_missing_unlock ?metrics prims alias ir)
          + List.length
              (Gcatch.Traditional.check_double_lock ?metrics prims alias cg ir)
          + List.length
              (Gcatch.Traditional.check_conflicting_order ?metrics prims alias
                 ir)
          + List.length
              (Gcatch.Traditional.check_field_race ?metrics prims alias ir)
          + List.length (Gcatch.Traditional.check_fatal_in_child ?metrics ir)
        in
        let bare = med ~n:walk_batch (fun () -> walk ()) in
        let reg = Goobs.Metrics.create () in
        let guarded = med ~n:walk_batch (fun () -> walk ~metrics:reg ()) in
        (* the solve cache would hide the solver work the fast path sits
           in; detection must actually reach every fault site *)
        let cfg = { Gcatch.Bmoc.default_config with solve_cache = false } in
        let clean = med (fun () -> Gcatch.Bmoc.detect ~cfg ir) in
        (match Goengine.Faults.parse "solver:*@zz-never-matches!raise" with
        | Ok specs -> Goengine.Faults.set_plan specs
        | Error e -> failwith e);
        let armed = med (fun () -> Gcatch.Bmoc.detect ~cfg ir) in
        Goengine.Faults.clear ();
        Printf.printf
          "%-14s %10.4f %10.4f %6.1f%% %10.4f %10.4f %6.1f%% %8.2f%%\n" name
          (1000. *. bare) (1000. *. guarded) (pct guarded bare) clean armed
          (pct armed clean)
          (* the per-function boundary's absolute cost as a share of one
             whole detection run — the number the < 1 % target is about *)
          (100.0 *. (guarded -. bare) /. max 1e-9 clean);
        {
          rp_app = name;
          rp_bare_s = bare;
          rp_guarded_s = guarded;
          rp_clean_s = clean;
          rp_armed_s = armed;
        })
      apps
  in
  robust_results := results;
  let tot f = List.fold_left (fun acc p -> acc +. f p) 0. results in
  Printf.printf
    "\ntotal: per-function boundaries cost %+.3f ms over %.1f ms of \
     detection (%+.2f%% of a run);\narmed-but-silent fault plan %+.2f%% vs \
     unarmed\n"
    (1000. *. (tot (fun p -> p.rp_guarded_s) -. tot (fun p -> p.rp_bare_s)))
    (1000. *. tot (fun p -> p.rp_clean_s))
    (100.0
    *. (tot (fun p -> p.rp_guarded_s) -. tot (fun p -> p.rp_bare_s))
    /. max 1e-9 (tot (fun p -> p.rp_clean_s)))
    (pct (tot (fun p -> p.rp_armed_s)) (tot (fun p -> p.rp_clean_s)))

(* ------------------------------------------------------- E-sched --- *)

(* The PR-6 effects scheduler: nested fan-out with deliberately skewed
   per-channel costs.  Under the old barrier pool an inner per-channel
   map collapsed to an inline loop, so a 10x channel serialised its
   whole group behind it; under the scheduler the inner fan-out forks
   real stealable tasks and the skew is absorbed by whichever domains
   are free.  Both variants run through [with_scheduler] so the
   comparison isolates exactly the nested-fan-out semantics (outer-only
   parallelism vs full nesting), not session setup. *)
type sched_point = {
  sp_outer : int;
  sp_inner : int;
  sp_skew : int;
  sp_barrier_s : float;
  sp_sched_s : float;
  sp_spawned : int;
  sp_stolen : int;
}

let sched_result : sched_point option ref = ref None

let esched () =
  header
    "E-sched | Effects scheduler: nested fan-out with skewed channel\n\
    \        | costs (one 10x channel) at jobs 4 - barrier-style\n\
    \        | outer-only parallelism vs nested scheduling (PR 6)";
  let pool = Pool.get ~jobs:4 in
  let inner_costs = [ 10; 1; 1; 1; 1; 1; 1; 1 ] in
  let outer = 2 in
  let groups = List.init outer (fun _ -> inner_costs) in
  (* one cost unit of deterministic integer churn standing in for a
     per-channel solve; [opaque_identity] keeps it from being folded *)
  let spin = 40_000 in
  let work cost =
    let acc = ref 0 in
    for _ = 1 to cost * spin do
      acc := Sys.opaque_identity ((!acc * 1103515245) + 12345)
    done;
    !acc
  in
  let barrier () =
    (* the old pool's nested-map semantics: outer parallel, inner inline *)
    Pool.with_scheduler ~pool (fun () ->
        Pool.map ~pool (fun g -> List.map work g) groups)
  in
  let sched () =
    Pool.with_scheduler ~pool (fun () ->
        Pool.map ~pool (fun g -> Pool.map ~pool work g) groups)
  in
  if barrier () <> sched () then failwith "e-sched: variant results differ";
  let reps = 7 in
  let median l = List.nth (List.sort compare l) (List.length l / 2) in
  let time f =
    let t0 = Clock.now_s () in
    ignore (f ());
    Clock.elapsed_since t0
  in
  let med f = median (List.init reps (fun _ -> time f)) in
  let b = med barrier in
  let spawned0 = counter_now "sched.tasks_spawned" in
  let stolen0 = counter_now "sched.tasks_stolen" in
  let s = med sched in
  let spawned = counter_now "sched.tasks_spawned" - spawned0 in
  let stolen = counter_now "sched.tasks_stolen" - stolen0 in
  Printf.printf
    "outer groups: %d; channels/group: %d (one 10x); jobs: 4; hardware \
     threads: %d\n\n"
    outer
    (List.length inner_costs)
    (Domain.recommended_domain_count ());
  Printf.printf "%-24s %10s\n" "variant" "med (ms)";
  Printf.printf "%-24s %10.3f\n" "barrier (outer only)" (1000. *. b);
  Printf.printf "%-24s %10.3f\n" "scheduler (nested)" (1000. *. s);
  Printf.printf
    "\nspeedup: %.2fx; %d task(s) spawned, %d stolen over %d scheduled \
     rep(s)\n"
    (b /. max 1e-9 s)
    spawned stolen reps;
  sched_result :=
    Some
      {
        sp_outer = outer;
        sp_inner = List.length inner_costs;
        sp_skew = 10;
        sp_barrier_s = b;
        sp_sched_s = s;
        sp_spawned = spawned;
        sp_stolen = stolen;
      }

(* ------------------------------------------------------- E-obs2 --- *)

(* Goscope v2 overhead: the full observability stack (HTTP telemetry
   endpoint + JSONL run journal + sampling profiler) armed vs a bare
   run, on the e-fe synthetic app.  The acceptance target is < 2 % wall
   overhead (EXPERIMENTS.md E-obs2); diagnostics must stay
   byte-identical, and /metrics must serve live data from the armed
   run's process. *)
type obs2_point = {
  ob_files : int;
  ob_loc : int;
  ob_base_s : float;
  ob_obs_s : float;
  ob_overhead_pct : float; (* median of paired armed/bare ratios *)
  ob_journal_events : int;
  ob_samples : int;
  ob_identical : bool;
}

let obs2_result : obs2_point option ref = ref None

let eobs2 () =
  header
    "E-obs2 | Goscope v2 overhead: telemetry endpoint + JSONL journal\n\
    \       | + sampling profiler armed vs bare run, jobs 4 (PR 8)";
  let nfiles = 50 and per_file = 2000 in
  let sources =
    List.init nfiles (fun i ->
        "package app\n"
        ^ Gocorpus.Filler.generate ~seed:i ~target_lines:per_file)
  in
  let loc =
    List.fold_left
      (fun acc s -> acc + List.length (String.split_on_char '\n' s))
      0 sources
  in
  Printf.printf "app: %d file(s), %d LoC; hardware threads: %d\n\n" nfiles loc
    (Domain.recommended_domain_count ());
  let reps = 15 in
  let analyse_once () =
    (* a fresh engine and a cold solve memo per rep: both variants do
       the full compile + solve work every time.  The major heap is
       settled first so neither variant inherits the other's GC debt. *)
    Gcatch.Solve_cache.reset_memory ();
    Gc.full_major ();
    let e = Gcatch.Passes.engine ~jobs:4 () in
    let t0 = Clock.now_s () in
    let r = E.analyse e ~name:"obs-app" sources in
    (D.list_to_json r.E.r_diags, Clock.elapsed_since t0)
  in
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i =
      i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
    in
    go 0
  in
  let jpath = Filename.temp_file "gcatch-bench-obs" ".jsonl" in
  let handlers =
    [
      ( "/metrics",
        fun () ->
          Goobs.Telemetry.text
            (Goobs.Metrics.to_prometheus Goobs.Metrics.default) );
      ( "/healthz",
        fun () ->
          let ok, body = Goengine.Supervise.healthz_json () in
          Goobs.Telemetry.json ~status:(if ok then 200 else 503) body );
    ]
  in
  (* one armed rep: the whole stack up the way `gcatch --telemetry-addr
     ... --journal ... --sample-hz 97` arms it, torn down afterwards;
     only the analysis itself is timed *)
  Goobs.Sampler.reset ();
  let run_armed () =
    let srv =
      match Goobs.Telemetry.start ~addr:"127.0.0.1:0" ~handlers () with
      | Ok t -> t
      | Error e -> failwith ("e-obs2: telemetry start: " ^ e)
    in
    Goobs.Trace.enable_spines ();
    let sampler = Goobs.Sampler.start ~hz:97 in
    Goobs.Journal.open_ ~path:jpath;
    let out = analyse_once () in
    let code, body = Goobs.Telemetry.fetch srv "/metrics" in
    if code <> 200 || not (contains ~needle:"gcatch_" body) then
      failwith "e-obs2: /metrics did not serve live data";
    let hcode, _ = Goobs.Telemetry.fetch srv "/healthz" in
    if hcode <> 200 then failwith "e-obs2: /healthz not healthy";
    Goobs.Journal.close ();
    Goobs.Sampler.stop sampler;
    Goobs.Trace.disable ();
    Goobs.Telemetry.stop srv;
    out
  in
  (* wall-clock on a shared box drifts over seconds (thermal, noisy
     neighbours), so each bare run is paired with an adjacent armed run
     and the drift cancels in the per-pair ratio; the order inside a
     pair alternates so residual within-pair drift cancels across pairs
     too.  The median ratio is the overhead estimate, the minima are
     reported for scale. *)
  let pairs =
    List.init reps (fun i ->
        if i mod 2 = 0 then (analyse_once (), run_armed ())
        else
          let o = run_armed () in
          let b = analyse_once () in
          (b, o))
  in
  let minimum l = List.fold_left min (List.hd l) (List.tl l) in
  let base = minimum (List.map (fun ((_, t), _) -> t) pairs) in
  let obs = minimum (List.map (fun (_, (_, t)) -> t) pairs) in
  let ratios =
    List.sort compare
      (List.map (fun ((_, b), (_, o)) -> o /. max 1e-9 b) pairs)
  in
  let ratio = List.nth ratios (List.length ratios / 2) in
  let base_diags = fst (fst (List.hd pairs)) in
  let obs_diags = fst (snd (List.hd pairs)) in
  let samples = Goobs.Sampler.total_samples () in
  Goobs.Sampler.reset ();
  let jevents = (Goobs.Journal.summarize_file jpath).Goobs.Journal.s_events in
  (try Sys.remove jpath with Sys_error _ -> ());
  let identical = obs_diags = base_diags in
  let overhead = 100.0 *. (ratio -. 1.0) in
  Printf.printf "%-28s %10s %10s\n"
    (Printf.sprintf "variant (min of %d)" reps)
    "wall (s)" "kLoC/s";
  Printf.printf "%-28s %10.3f %10.1f\n" "bare" base
    (float_of_int loc /. 1000.0 /. max 1e-9 base);
  Printf.printf "%-28s %10.3f %10.1f\n" "telemetry+journal+sampler" obs
    (float_of_int loc /. 1000.0 /. max 1e-9 obs);
  Printf.printf
    "\noverhead: %+.2f%% (target < 2%%); %d journal event(s)/run, %d stack \
     sample(s) @ 97 Hz\ndiagnostics identical with observers armed: %b\n"
    overhead jevents samples identical;
  if not identical then
    failwith "e-obs2: diagnostics differ with observers armed";
  obs2_result :=
    Some
      {
        ob_files = nfiles;
        ob_loc = loc;
        ob_base_s = base;
        ob_obs_s = obs;
        ob_overhead_pct = overhead;
        ob_journal_events = jevents;
        ob_samples = samples;
        ob_identical = identical;
      }

(* ---------------------------------------------------- E-serve (PR 9) --- *)

type serve_point = {
  vp_clients : int;
  vp_requests : int;
  vp_seconds : float;
  vp_rps : float;
  vp_p50_ms : float;
  vp_p95_ms : float;
}

type serve_result = {
  sv_files : int;
  sv_loc : int;
  sv_cold_s : float; (* one-shot analysis, fresh engine *)
  sv_first_req_s : float; (* daemon's first (cold) request *)
  sv_steady_s : float; (* median warm one-file-edit request *)
  sv_hot_s : float; (* repeated identical request (artifact hit) *)
  sv_identical : bool; (* daemon jobs 1/4 diags == one-shot bytes *)
  sv_points : serve_point list;
  sv_soak_requests : int;
  sv_soak_evictions : int;
  sv_soak_heap_mb : float;
  sv_soak_stable : bool;
}

let serve_result : serve_result option ref = ref None

type chaos_result = {
  ch_files : int;
  ch_loc : int;
  ch_cold_edit_s : float; (* one-file edit on a cold restarted daemon *)
  ch_warm_edit_s : float; (* same edit after a manifest preload *)
  ch_restart_speedup : float;
  ch_restart_identical : bool; (* warm edit diags == one-shot bytes *)
  ch_clients : int;
  ch_requests : int; (* soak requests attempted *)
  ch_succeeded : int; (* eventual 200s *)
  ch_availability : float;
  ch_p95_ms : float; (* eventual-success latency incl. retries *)
  ch_rebuilds : int; (* serve.engine_rebuilds delta over the storm *)
  ch_soak_identical : bool; (* every success byte-identical to one-shot *)
}

let chaos_result : chaos_result option ref = ref None

let eserve () =
  header
    "E-serve | gcatchd warm-process serving: cold one-shot vs steady-state\n\
    \       | daemon latency on the e-fe app, sustained throughput at\n\
    \       | 1/4/16 clients, and a 200-request soak under --max-cache-mb\n\
    \       | (PR 9)";
  let module Serve = Goserve.Serve in
  let module Proto = Goserve.Proto in
  let module T = Goobs.Telemetry in
  let module M = Goobs.Metrics in
  let body_of sources =
    let b = Buffer.create (1 lsl 16) in
    Buffer.add_string b
      "{\"schema\":\"gcatch-serve/1\",\"name\":\"cli\",\"files\":[";
    List.iteri
      (fun i src ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf "{\"path\":\"f%d.go\",\"src\":\"%s\"}" i
             (M.json_escape src)))
      sources;
    Buffer.add_string b "]}";
    Buffer.contents b
  in
  let rq body = { T.rq_path = "/analyse"; rq_headers = []; rq_body = body } in
  let diag_bytes body =
    match Proto.member_raw "run" body with
    | None -> failwith "e-serve: response has no run member"
    | Some run -> (
        match Proto.member_raw "diagnostics" run with
        | None -> failwith "e-serve: run has no diagnostics member"
        | Some d -> d)
  in
  let timed_post srv body =
    let t0 = Clock.now_s () in
    let r = Serve.handle_analyse srv (rq body) in
    let dt = Clock.elapsed_since t0 in
    if r.T.status <> 200 then
      failwith (Printf.sprintf "e-serve: status %d: %s" r.T.status r.T.body);
    (r, dt)
  in
  let percentile sorted p =
    let n = Array.length sorted in
    if n = 0 then nan
    else
      let idx = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
      sorted.(max 0 (min (n - 1) idx))
  in
  (* the same ~172 kLoC synthetic app e-fe measures, so the cold/steady
     comparison lines up with the frontend numbers *)
  let nfiles = 50 and per_file = 2000 in
  let sources =
    List.init nfiles (fun i ->
        "package app\n"
        ^ Gocorpus.Filler.generate ~seed:i ~target_lines:per_file)
  in
  let loc =
    List.fold_left
      (fun acc s -> acc + List.length (String.split_on_char '\n' s))
      0 sources
  in
  Printf.printf "app: %d file(s), %d LoC; hardware threads: %d\n\n" nfiles loc
    (Domain.recommended_domain_count ());
  (* cold one-shot: what `gcatch analyse` costs in a fresh process *)
  Gcatch.Solve_cache.reset_memory ();
  let one_shot = Gcatch.Passes.engine ~jobs:1 ~registry:(M.create ()) () in
  let t0 = Clock.now_s () in
  let r_one = E.analyse one_shot ~name:"cli" sources in
  let cold_s = Clock.elapsed_since t0 in
  let one_shot_diags =
    match Proto.member_raw "diagnostics" (E.run_to_json r_one) with
    | Some d -> d
    | None -> failwith "e-serve: one-shot run has no diagnostics member"
  in
  Printf.printf "cold one-shot (jobs 1): %.3fs (%.1f kLoC/s)\n" cold_s
    (float_of_int loc /. 1000.0 /. max 1e-9 cold_s);
  (* daemon at jobs 4, with the pass-result disk cache a deployed
     gcatchd gets from --cache-dir: the first request fills every tier,
     then steady-state requests each carry a fresh one-line edit of the
     last file — every request misses the whole-run artifact cache and
     re-uses the other 49 files' memos plus the per-function solve
     cache, which is the watch/IDE serving pattern *)
  Gcatch.Solve_cache.reset_memory ();
  let cache_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gcatch-bench-serve-%d" (Unix.getpid ()))
  in
  let clear_cache_dir () =
    if Sys.file_exists cache_dir then begin
      Array.iter
        (fun f ->
          try Sys.remove (Filename.concat cache_dir f) with Sys_error _ -> ())
        (Sys.readdir cache_dir);
      try Unix.rmdir cache_dir with Unix.Unix_error _ -> ()
    end
  in
  clear_cache_dir ();
  let detector =
    { Gcatch.Bmoc.default_config with cache_dir = Some cache_dir }
  in
  let cfg4 =
    { Serve.default_cfg with s_jobs = 4; s_max_queue = 64;
      s_detector = detector }
  in
  let srv4 = Serve.create ~cfg:cfg4 () in
  let _, first_req_s = timed_post srv4 (body_of sources) in
  Printf.printf "daemon first request (jobs 4, cold caches): %.3fs\n"
    first_req_s;
  (* steady state = the file-delta payload a watch/IDE client sends: 49
     unchanged files go by digest (the server remembered them on the
     first request), only the edited file carries source.  Each edit is
     unique, so every request misses the whole-run artifact cache and
     exercises the warm per-file memos *)
  let digests = List.map (fun s -> Digest.to_hex (Digest.string s)) sources in
  let last_src = List.nth sources (nfiles - 1) in
  let delta_body n =
    let b = Buffer.create (1 lsl 16) in
    Buffer.add_string b
      "{\"schema\":\"gcatch-serve/1\",\"name\":\"cli\",\"files\":[";
    List.iteri
      (fun i d ->
        if i > 0 then Buffer.add_char b ',';
        if i = nfiles - 1 then
          Buffer.add_string b
            (Printf.sprintf "{\"path\":\"f%d.go\",\"src\":\"%s\"}" i
               (M.json_escape (last_src ^ Printf.sprintf "// edit %d\n" n)))
        else
          Buffer.add_string b
            (Printf.sprintf "{\"path\":\"f%d.go\",\"digest\":\"%s\"}" i d))
      digests;
    Buffer.add_string b "]}";
    Buffer.contents b
  in
  let steady_lat =
    Array.init 9 (fun n -> snd (timed_post srv4 (delta_body n)))
  in
  Array.sort compare steady_lat;
  let steady_s = steady_lat.(Array.length steady_lat / 2) in
  let _, hot_s = timed_post srv4 (delta_body 8) in
  let speedup = cold_s /. max 1e-9 steady_s in
  Printf.printf
    "steady-state (one-file-edit delta payload, warm memos): median %.3fs\n\
     repeat of an already-analysed delta (artifact hit): %.4fs\n\
     steady-state speedup over cold one-shot: %.1fx\n\n"
    steady_s hot_s speedup;
  (* byte identity: the daemon's diagnostics at jobs 1 and jobs 4 must
     reproduce the one-shot bytes, including after the steady-state edits
     have churned the artifact LRU *)
  let r4, _ = timed_post srv4 (body_of sources) in
  let srv1 = Serve.create ~cfg:{ cfg4 with Serve.s_jobs = 1 } () in
  let r1, _ = timed_post srv1 (body_of sources) in
  let identical =
    diag_bytes r4.T.body = one_shot_diags
    && diag_bytes r1.T.body = one_shot_diags
  in
  Printf.printf "daemon diagnostics byte-identical to one-shot (jobs 1,4): %b\n\n"
    identical;
  if not identical then
    failwith "e-serve: daemon diagnostics differ from one-shot";
  (* sustained throughput: a small always-warm app served to 1/4/16
     concurrent clients cycling four request variants; measures the
     serving path (parse, coalesce table, artifact hit, render), with
     execution serialized under the daemon's run lock *)
  let small_app v =
    List.init 8 (fun i ->
        "package app\n"
        ^ Gocorpus.Filler.generate ~seed:(200 + i) ~target_lines:300
        ^ Printf.sprintf "// variant %d\n" v)
  in
  let variants = Array.init 4 (fun v -> body_of (small_app v)) in
  let srv_thr = Serve.create ~cfg:{ cfg4 with Serve.s_jobs = 1 } () in
  Array.iter (fun b -> ignore (timed_post srv_thr b)) variants;
  let total_requests = 96 in
  Printf.printf "%8s %10s %10s %10s %10s\n" "clients" "req/s" "p50 (ms)"
    "p95 (ms)" "wall (s)";
  let points =
    List.map
      (fun clients ->
        let per = max 1 (total_requests / clients) in
        let lats = Array.make (clients * per) 0.0 in
        let t0 = Clock.now_s () in
        let threads =
          List.init clients (fun c ->
              Thread.create
                (fun () ->
                  for i = 0 to per - 1 do
                    let b = variants.((c + i) mod Array.length variants) in
                    let _, dt = timed_post srv_thr b in
                    lats.((c * per) + i) <- dt
                  done)
                ())
        in
        List.iter Thread.join threads;
        let wall = Clock.elapsed_since t0 in
        Array.sort compare lats;
        let n = clients * per in
        let rps = float_of_int n /. max 1e-9 wall in
        let p50 = percentile lats 50.0 *. 1000.0 in
        let p95 = percentile lats 95.0 *. 1000.0 in
        Printf.printf "%8d %10.1f %10.3f %10.3f %10.3f\n" clients rps p50 p95
          wall;
        {
          vp_clients = clients;
          vp_requests = n;
          vp_seconds = wall;
          vp_rps = rps;
          vp_p50_ms = p50;
          vp_p95_ms = p95;
        })
      [ 1; 4; 16 ]
  in
  (* 200-request soak under a deliberately tiny --max-cache-mb: ten
     distinct apps cycle through a budget that cannot hold them all, so
     the LRU must evict; verdict bytes per app must never change *)
  Gcatch.Solve_cache.reset_memory ();
  let soak_cfg =
    {
      Serve.default_cfg with
      s_jobs = 1;
      s_max_cache_mb = 1;
      s_max_artifact_sets = 4;
      s_max_queue = 64;
    }
  in
  let srv_soak = Serve.create ~cfg:soak_cfg () in
  let soak_apps =
    Array.init 10 (fun v ->
        body_of
          (List.init 4 (fun i ->
               "package app\n"
               ^ Gocorpus.Filler.generate
                   ~seed:(300 + (v * 11) + i)
                   ~target_lines:250)))
  in
  let ev () =
    M.value (M.counter M.default "engine.file_mem_evictions")
    + M.value (M.counter M.default "engine.artifact_evictions")
    + M.value (M.counter M.default "bmoc.solve_cache_evictions")
  in
  let ev0 = ev () in
  let first_seen = Array.make (Array.length soak_apps) None in
  let soak_requests = 200 in
  let stable = ref true in
  let max_heap_words = ref 0 in
  for i = 0 to soak_requests - 1 do
    let v = i mod Array.length soak_apps in
    let r, _ = timed_post srv_soak soak_apps.(v) in
    let d = diag_bytes r.T.body in
    (match first_seen.(v) with
    | None -> first_seen.(v) <- Some d
    | Some d0 -> if d <> d0 then stable := false);
    if i mod 20 = 19 then
      max_heap_words := max !max_heap_words (Gc.quick_stat ()).Gc.heap_words
  done;
  (* drop the process-wide solve-cache budget the soak server installed,
     so later experiments run unbounded again *)
  Gcatch.Solve_cache.set_memory_budget_mb 0;
  let evictions = ev () - ev0 in
  let heap_mb =
    float_of_int (!max_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  Printf.printf
    "\nsoak: %d requests over %d apps at --max-cache-mb %d:\n\
    \  evictions %d  max heap %.1f MB  verdicts stable %b\n"
    soak_requests
    (Array.length soak_apps)
    soak_cfg.Serve.s_max_cache_mb evictions heap_mb !stable;
  clear_cache_dir ();
  if evictions = 0 then failwith "e-serve: soak produced no evictions";
  if not !stable then failwith "e-serve: soak verdicts changed under LRU";
  if speedup < 10.0 then
    failwith
      (Printf.sprintf "e-serve: steady-state speedup %.1fx below 10x" speedup);
  serve_result :=
    Some
      {
        sv_files = nfiles;
        sv_loc = loc;
        sv_cold_s = cold_s;
        sv_first_req_s = first_req_s;
        sv_steady_s = steady_s;
        sv_hot_s = hot_s;
        sv_identical = identical;
        sv_points = points;
        sv_soak_requests = soak_requests;
        sv_soak_evictions = evictions;
        sv_soak_heap_mb = heap_mb;
        sv_soak_stable = !stable;
      }

(* -------------------------------------------------------- e-chaos --- *)

(* E-chaos (PR 10): crash-only serving.  Two measurements:

   1. Restart warmth — a daemon restarted on its cache directory preloads
      the entries its warm-state manifest names and must answer a
      one-file edit from those memos at
      least 5x faster than a cold restart answering the same edit, with
      byte-identical diagnostics.

   2. Chaos soak — with connection-level faults recurring (truncated
      writes, dropped reads, stalled accepts), 8 retrying clients must
      still land >= 99% of their requests with byte-identical bodies;
      a solver-fault storm must then trip the quarantine and the
      rebuilt engine must answer correctly. *)
let echaos () =
  header
    "E-chaos | crash-only gcatchd: snapshot restart warmth, availability\n\
    \       | under connection chaos, and quarantine rebuild under a\n\
    \       | solver-fault storm (PR 10)";
  let module Serve = Goserve.Serve in
  let module Snapshot = Goserve.Snapshot in
  let module Proto = Goserve.Proto in
  let module T = Goobs.Telemetry in
  let module M = Goobs.Metrics in
  let module F = Goengine.Faults in
  let body_of sources =
    let b = Buffer.create (1 lsl 16) in
    Buffer.add_string b
      "{\"schema\":\"gcatch-serve/1\",\"name\":\"cli\",\"files\":[";
    List.iteri
      (fun i src ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf "{\"path\":\"f%d.go\",\"src\":\"%s\"}" i
             (M.json_escape src)))
      sources;
    Buffer.add_string b "]}";
    Buffer.contents b
  in
  let rq body = { T.rq_path = "/analyse"; rq_headers = []; rq_body = body } in
  let diag_bytes body =
    match Proto.member_raw "run" body with
    | None -> failwith "e-chaos: response has no run member"
    | Some run -> (
        match Proto.member_raw "diagnostics" run with
        | None -> failwith "e-chaos: run has no diagnostics member"
        | Some d -> d)
  in
  let one_shot_diags sources =
    let engine = Gcatch.Passes.engine ~jobs:1 ~registry:(M.create ()) () in
    let r = E.analyse engine ~name:"cli" sources in
    match Proto.member_raw "diagnostics" (E.run_to_json r) with
    | Some d -> d
    | None -> failwith "e-chaos: one-shot run has no diagnostics member"
  in
  let timed_post srv body =
    let t0 = Clock.now_s () in
    let r = Serve.handle_analyse srv (rq body) in
    let dt = Clock.elapsed_since t0 in
    if r.T.status <> 200 then
      failwith (Printf.sprintf "e-chaos: status %d: %s" r.T.status r.T.body);
    (r, dt)
  in
  let snap_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gcatch-bench-chaos-%d" (Unix.getpid ()))
  in
  let clear_snap_dir () =
    if Sys.file_exists snap_dir then begin
      Array.iter
        (fun f ->
          try Sys.remove (Filename.concat snap_dir f) with Sys_error _ -> ())
        (Sys.readdir snap_dir);
      try Unix.rmdir snap_dir with Unix.Unix_error _ -> ()
    end
  in
  clear_snap_dir ();
  (* ---- part 1: restart warmth ---- *)
  let nfiles = 20 and per_file = 1000 in
  let sources =
    List.init nfiles (fun i ->
        "package app\n"
        ^ Gocorpus.Filler.generate ~seed:(500 + i) ~target_lines:per_file)
  in
  let loc =
    List.fold_left
      (fun acc s -> acc + List.length (String.split_on_char '\n' s))
      0 sources
  in
  let edited =
    List.mapi
      (fun i s -> if i = nfiles - 1 then s ^ "// restart edit\n" else s)
      sources
  in
  let expect_edit = one_shot_diags edited in
  Printf.printf "app: %d file(s), %d LoC\n\n" nfiles loc;
  (* a deployed gcatchd points --cache-dir at one directory and gets the
     pass-result/per-file disk tiers plus the warm-state manifest from
     it; the cold control gets neither *)
  let detector = { Gcatch.Bmoc.default_config with cache_dir = Some snap_dir } in
  let cfg = { Serve.default_cfg with s_jobs = 1; s_detector = detector } in
  (* daemon's first life: the request rewrites the manifest *)
  Gcatch.Solve_cache.reset_memory ();
  let srv_a = Serve.create ~cfg () in
  ignore (timed_post srv_a (body_of sources));
  let manifest_bytes =
    try (Unix.stat (Snapshot.path ~dir:snap_dir)).Unix.st_size
    with Unix.Unix_error _ -> failwith "e-chaos: no manifest written"
  in
  (* cold restart control: no durable state, the edit pays a full run *)
  Gcatch.Solve_cache.reset_memory ();
  let srv_cold = Serve.create () in
  let _, cold_edit_s = timed_post srv_cold (body_of edited) in
  (* warm restart: a fresh server preloads the manifest before serving *)
  Gcatch.Solve_cache.reset_memory ();
  let srv_warm = Serve.create ~cfg () in
  if not (Serve.preload srv_warm) then failwith "e-chaos: manifest preload";
  let r_warm, warm_edit_s = timed_post srv_warm (body_of edited) in
  let restart_identical = diag_bytes r_warm.T.body = expect_edit in
  let restart_speedup = cold_edit_s /. max 1e-9 warm_edit_s in
  Printf.printf
    "one-file edit after restart:\n\
    \  cold restart (no cache directory): %.3fs\n\
    \  warm restart (manifest of %d bytes preloaded): %.3fs\n\
    \  restart warmth: %.1fx   diagnostics byte-identical: %b\n\n"
    cold_edit_s manifest_bytes warm_edit_s restart_speedup restart_identical;
  if not restart_identical then
    failwith "e-chaos: warm-restart diagnostics differ from one-shot";
  if restart_speedup < 5.0 then
    failwith
      (Printf.sprintf "e-chaos: restart warmth %.1fx below 5x" restart_speedup);
  (* ---- part 2: availability under connection chaos ---- *)
  Gcatch.Solve_cache.reset_memory ();
  let soak_cfg =
    {
      Serve.default_cfg with
      s_jobs = 1;
      s_max_queue = 16;
      s_detector = detector;
      s_quar_degraded = 3;
    }
  in
  let srv = Serve.create ~cfg:soak_cfg () in
  let server =
    match
      T.start ~addr:"127.0.0.1:0" ~post:(Serve.post_handlers srv)
        ~handlers:(Serve.handlers srv) ()
    with
    | Ok s -> s
    | Error e -> failwith ("e-chaos: telemetry start: " ^ e)
  in
  Fun.protect
    ~finally:(fun () ->
      F.clear ();
      T.stop server;
      Gcatch.Solve_cache.set_memory_budget_mb 0;
      clear_snap_dir ())
  @@ fun () ->
  let variants =
    Array.init 4 (fun v ->
        List.init 6 (fun i ->
            "package app\n"
            ^ Gocorpus.Filler.generate ~seed:(600 + (v * 13) + i)
                ~target_lines:250))
  in
  let expect = Array.map one_shot_diags variants in
  let bodies = Array.map body_of variants in
  (* warm all variants; the manifest they leave makes quarantine rebuilds
     restart warm *)
  Array.iter (fun b -> ignore (timed_post srv b)) bodies;
  (* the storm generator: re-arming the plan resets its nth counters, so
     the same early-occurrence faults keep recurring for the whole soak *)
  let chaos_on = Atomic.make true in
  let chaos_thread =
    Thread.create
      (fun () ->
        let plan =
          match
            F.parse
              "conn.write:1@/analyse!corrupt, conn.read:3!raise, \
               conn.accept:5!stall"
          with
          | Ok p -> p
          | Error e -> failwith ("e-chaos: plan: " ^ e)
        in
        (* 50% duty cycle: armed windows keep the faults recurring,
           clear windows guarantee a backed-off retry can always land *)
        while Atomic.get chaos_on do
          F.set_plan plan;
          Thread.delay 0.05;
          F.clear ();
          Thread.delay 0.05
        done)
      ()
  in
  let clients = 8 and per_client = 12 in
  let total = clients * per_client in
  let lats = Array.make total nan in
  let ok = Array.make total false in
  let ident = Array.make total true in
  let sa = T.self_addr server in
  let threads =
    List.init clients (fun c ->
        Thread.create
          (fun () ->
            for i = 0 to per_client - 1 do
              let v = (c + i) mod Array.length bodies in
              let idx = (c * per_client) + i in
              let t0 = Clock.now_s () in
              (match
                 T.request_retry ~max_attempts:8 ~seed:((c * 31) + i) sa
                   ~meth:"POST" ~path:"/analyse" ~body:bodies.(v) ()
               with
              | Ok (200, body) ->
                  ok.(idx) <- true;
                  ident.(idx) <- diag_bytes body = expect.(v)
              | Ok _ | Error _ -> ok.(idx) <- false);
              lats.(idx) <- Clock.elapsed_since t0
            done)
          ())
  in
  List.iter Thread.join threads;
  Atomic.set chaos_on false;
  Thread.join chaos_thread;
  F.clear ();
  let succeeded = Array.fold_left (fun a b -> if b then a + 1 else a) 0 ok in
  let soak_identical = Array.for_all (fun b -> b) ident in
  let availability = float_of_int succeeded /. float_of_int total in
  let sorted = Array.copy lats in
  Array.sort compare sorted;
  let p95 =
    sorted.(max 0 (min (total - 1) (int_of_float (ceil (0.95 *. float total)) - 1)))
    *. 1000.0
  in
  Printf.printf
    "chaos soak: %d clients x %d requests under recurring conn faults:\n\
    \  eventual successes %d/%d (%.1f%%)  p95 %.1f ms  bytes identical %b\n\n"
    clients per_client succeeded total (availability *. 100.0) p95
    soak_identical;
  (* ---- part 3: solver-fault storm trips the quarantine ---- *)
  let rebuilds0 = M.value (M.counter M.default "serve.engine_rebuilds") in
  (match F.parse "solver:*!raise" with
  | Ok p -> F.set_plan p
  | Error e -> failwith ("e-chaos: plan: " ^ e));
  let leak n =
    Printf.sprintf
      "package p\nfunc L%d() {\n\tch := make(chan int)\n\tgo func() {\n\t\tch \
       <- 1\n\t}()\n}\n"
      n
  in
  for n = 1 to 3 do
    let r = Serve.handle_analyse srv (rq (body_of [ leak n ])) in
    if r.T.status <> 200 then
      failwith (Printf.sprintf "e-chaos: storm request status %d" r.T.status)
  done;
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    M.value (M.counter M.default "serve.engine_rebuilds") <= rebuilds0
    && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.01
  done;
  F.clear ();
  let rebuilds =
    M.value (M.counter M.default "serve.engine_rebuilds") - rebuilds0
  in
  while Serve.quarantined srv do
    Thread.delay 0.01
  done;
  let r_after, _ = timed_post srv bodies.(0) in
  let after_ok = diag_bytes r_after.T.body = expect.(0) in
  Printf.printf
    "solver storm: engine rebuilds %d  post-rebuild bytes identical: %b\n"
    rebuilds after_ok;
  if rebuilds = 0 then failwith "e-chaos: solver storm tripped no rebuild";
  if not after_ok then
    failwith "e-chaos: post-rebuild diagnostics differ from one-shot";
  if availability < 0.99 then
    failwith
      (Printf.sprintf "e-chaos: availability %.3f below 0.99" availability);
  if not soak_identical then
    failwith "e-chaos: a surviving response differed from one-shot bytes";
  chaos_result :=
    Some
      {
        ch_files = nfiles;
        ch_loc = loc;
        ch_cold_edit_s = cold_edit_s;
        ch_warm_edit_s = warm_edit_s;
        ch_restart_speedup = restart_speedup;
        ch_restart_identical = restart_identical;
        ch_clients = clients;
        ch_requests = total;
        ch_succeeded = succeeded;
        ch_availability = availability;
        ch_p95_ms = p95;
        ch_rebuilds = rebuilds;
        ch_soak_identical = soak_identical;
      }

(* ------------------------------------------------------- json out --- *)

let write_json path (timings : (string * float) list) =
  let oc = open_out path in
  let experiments =
    String.concat ","
      (List.map
         (fun (n, s) ->
           Printf.sprintf {|{"name":"%s","seconds":%.6f}|} (M.json_escape n) s)
         timings)
  in
  let parallel =
    match !par_result with
    | None -> "null"
    | Some p ->
        let points =
          String.concat ","
            (List.map
               (fun pt ->
                 let passes =
                   String.concat ","
                     (List.map
                        (fun (n, s) ->
                          Printf.sprintf {|{"name":"%s","seconds":%.6f}|}
                            (M.json_escape n) s)
                        pt.pp_passes)
                 in
                 Printf.sprintf
                   {|{"jobs":%d,"seconds":%.6f,"passes":[%s]}|} pt.pp_jobs
                   pt.pp_seconds passes)
               p.par_points)
        in
        let seconds_at j =
          match List.find_opt (fun pt -> pt.pp_jobs = j) p.par_points with
          | Some pt -> pt.pp_seconds
          | None -> nan
        in
        let speedup j = seconds_at 1 /. max 1e-9 (seconds_at j) in
        Printf.sprintf
          {|{"app":"%s","loc":%d,"hw_threads":%d,"points":[%s],"speedup_jobs2":%.3f,"speedup_jobs4":%.3f,"diags_identical":%b}|}
          (M.json_escape p.par_app) p.par_loc
          (Domain.recommended_domain_count ())
          points (speedup 2) (speedup 4) p.par_identical
  in
  let e_incr =
    match !incr_results with
    | [] -> "null"
    | points ->
        Printf.sprintf {|[%s]|}
          (String.concat ","
             (List.map
                (fun p ->
                  Printf.sprintf
                    {|{"app":"%s","cold_s":%.6f,"warm_s":%.6f,"disk_s":%.6f,"hits":%d,"misses":%d}|}
                    (M.json_escape p.ip_app) p.ip_cold_s p.ip_warm_s p.ip_disk_s
                    p.ip_hits p.ip_misses)
                points))
  in
  let e_robust =
    match !robust_results with
    | [] -> "null"
    | points ->
        Printf.sprintf {|[%s]|}
          (String.concat ","
             (List.map
                (fun p ->
                  Printf.sprintf
                    {|{"app":"%s","bare_s":%.6f,"guarded_s":%.6f,"clean_s":%.6f,"armed_s":%.6f}|}
                    (M.json_escape p.rp_app) p.rp_bare_s p.rp_guarded_s
                    p.rp_clean_s p.rp_armed_s)
                points))
  in
  let e_fe =
    match !fe_result with
    | None -> "null"
    | Some f ->
        let points =
          String.concat ","
            (List.map
               (fun p ->
                 let stages =
                   String.concat ","
                     (List.map
                        (fun (s, ms) ->
                          Printf.sprintf {|{"stage":"%s","ms":%.3f}|}
                            (M.json_escape s) ms)
                        p.fp_stages)
                 in
                 Printf.sprintf
                   {|{"jobs":%d,"seconds":%.6f,"stages":[%s]}|} p.fp_jobs
                   p.fp_seconds stages)
               f.fe_points)
        in
        Printf.sprintf
          {|{"files":%d,"loc":%d,"hw_threads":%d,"points":[%s],"cold_s":%.6f,"warm_s":%.6f,"warm_speedup":%.3f,"warm_lex_runs":%d,"diags_identical":%b}|}
          f.fe_files f.fe_loc
          (Domain.recommended_domain_count ())
          points f.fe_cold_s f.fe_warm_s
          (f.fe_cold_s /. max 1e-9 f.fe_warm_s)
          f.fe_warm_lex_runs f.fe_identical
  in
  let e_sched =
    match !sched_result with
    | None -> "null"
    | Some p ->
        Printf.sprintf
          {|{"jobs":4,"outer":%d,"inner":%d,"skew":%d,"barrier_s":%.6f,"sched_s":%.6f,"speedup":%.3f,"tasks_spawned":%d,"tasks_stolen":%d}|}
          p.sp_outer p.sp_inner p.sp_skew p.sp_barrier_s p.sp_sched_s
          (p.sp_barrier_s /. max 1e-9 p.sp_sched_s)
          p.sp_spawned p.sp_stolen
  in
  let e_obs2 =
    match !obs2_result with
    | None -> "null"
    | Some p ->
        Printf.sprintf
          {|{"files":%d,"loc":%d,"jobs":4,"sample_hz":97,"base_s":%.6f,"obs_s":%.6f,"overhead_pct":%.3f,"journal_events":%d,"samples":%d,"diags_identical":%b}|}
          p.ob_files p.ob_loc p.ob_base_s p.ob_obs_s p.ob_overhead_pct
          p.ob_journal_events p.ob_samples p.ob_identical
  in
  let e_serve =
    match !serve_result with
    | None -> "null"
    | Some s ->
        let points =
          String.concat ","
            (List.map
               (fun p ->
                 Printf.sprintf
                   {|{"clients":%d,"requests":%d,"seconds":%.6f,"rps":%.3f,"p50_ms":%.3f,"p95_ms":%.3f}|}
                   p.vp_clients p.vp_requests p.vp_seconds p.vp_rps p.vp_p50_ms
                   p.vp_p95_ms)
               s.sv_points)
        in
        Printf.sprintf
          {|{"files":%d,"loc":%d,"hw_threads":%d,"cold_oneshot_s":%.6f,"first_request_s":%.6f,"steady_s":%.6f,"hot_s":%.6f,"steady_speedup":%.3f,"diags_identical":%b,"points":[%s],"soak":{"requests":%d,"evictions":%d,"max_heap_mb":%.2f,"verdicts_stable":%b}}|}
          s.sv_files s.sv_loc
          (Domain.recommended_domain_count ())
          s.sv_cold_s s.sv_first_req_s s.sv_steady_s s.sv_hot_s
          (s.sv_cold_s /. max 1e-9 s.sv_steady_s)
          s.sv_identical points s.sv_soak_requests s.sv_soak_evictions
          s.sv_soak_heap_mb s.sv_soak_stable
  in
  let e_chaos =
    match !chaos_result with
    | None -> "null"
    | Some c ->
        Printf.sprintf
          {|{"files":%d,"loc":%d,"cold_edit_s":%.6f,"warm_edit_s":%.6f,"restart_speedup":%.3f,"restart_identical":%b,"soak":{"clients":%d,"requests":%d,"succeeded":%d,"availability":%.4f,"p95_ms":%.3f,"rebuilds":%d,"bytes_identical":%b}}|}
          c.ch_files c.ch_loc c.ch_cold_edit_s c.ch_warm_edit_s
          c.ch_restart_speedup c.ch_restart_identical c.ch_clients
          c.ch_requests c.ch_succeeded c.ch_availability c.ch_p95_ms
          c.ch_rebuilds c.ch_soak_identical
  in
  (* the unified registry snapshot: engine stage/cache counters, pass
     runs, bmoc/pathenum/pool/gfix counters accumulated over the run *)
  let metrics =
    String.concat ","
      (List.map
         (fun (k, v) -> Printf.sprintf {|"%s":%d|} (M.json_escape k) v)
         (Goobs.Metrics.counters_list Goobs.Metrics.default))
  in
  Printf.fprintf oc
    {|{"schema":"gcatch-bench/9","jobs":%d,"experiments":[%s],"e2_parallel":%s,"e_incr":%s,"e_fe":%s,"e_robust":%s,"e_sched":%s,"e_obs2":%s,"e_serve":%s,"e_chaos":%s,"metrics":{%s}}|}
    !jobs_flag experiments parallel e_incr e_fe e_robust e_sched e_obs2
    e_serve e_chaos metrics;
  output_char oc '
';
  close_out oc;
  Printf.printf "wrote %s
" path

(* ------------------------------------------------------------ main --- *)

(* micro runs first: its per-stage timings stabilize the GC before every
   sample, and that stabilization is priced by the live heap — run last,
   it would measure the macro experiments' artifact caches instead of
   the stages under test (3x slower and noisier estimates). *)
let all =
  [
    ("micro", micro); ("e1", e1); ("e2", e2); ("e2par", e2par); ("e3", e3);
    ("e4", e4); ("e5", e5); ("e6", e6); ("e7", e7); ("e8", e8);
    ("e-incr", eincr); ("e-fe", efe); ("e-robust", erobust);
    ("e-sched", esched); ("e-obs2", eobs2); ("e-serve", eserve);
    ("e-chaos", echaos);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* --jobs N and --json FILE, everything else selects experiments *)
  let json_path = ref None in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some j when j >= 1 -> jobs_flag := j
        | _ ->
            Goobs.Log.error "--jobs expects a positive integer";
            exit 2);
        parse acc rest
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse acc rest
    | ("--jobs" | "--json") :: [] ->
        Goobs.Log.error "missing argument";
        exit 2
    | a :: rest -> parse (a :: acc) rest
  in
  let names = parse [] args in
  let chosen =
    match names with
    | [] -> all
    | names -> List.filter (fun (n, _) -> List.mem n names) all
  in
  let timings =
    List.map
      (fun (n, f) ->
        (* every experiment starts with an empty solve-cache memory tier,
           so its numbers do not depend on which experiments ran before *)
        Gcatch.Solve_cache.reset_memory ();
        let t0 = Clock.now_s () in
        f ();
        (n, Clock.elapsed_since t0))
      chosen
  in
  (match !json_path with None -> () | Some path -> write_json path timings);
  if Lazy.is_val engine then begin
    line ();
    print_endline ("engine " ^ E.stats_str (Lazy.force engine))
  end
