(* GFix tests: the three strategies, the dispatcher's rejection reasons,
   patch diff sizes, and dynamic validation of every generated patch. *)

module G = Gcatch.Gfix
module R = Gcatch.Report

let analyse src = Pipeline.analyse ~name:"input" [ "package p\n" ^ src ]

let fix_first src =
  let a = analyse src in
  match a.bmoc with
  | [] -> Alcotest.fail "detector found nothing to fix"
  | bug :: _ -> (a, G.dispatch a.source bug)

let expect_strategy name expected src =
  let _, outcome = fix_first src in
  match outcome with
  | G.Fixed f ->
      Alcotest.(check string) name
        (G.strategy_str expected)
        (G.strategy_str f.strategy);
      f
  | G.Not_fixed r -> Alcotest.failf "%s: not fixed: %s" name r

let expect_rejected name substr src =
  let _, outcome = fix_first src in
  match outcome with
  | G.Fixed f -> Alcotest.failf "%s: unexpectedly fixed via %s" name f.description
  | G.Not_fixed r ->
      let contains s sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
        n = 0 || go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: reason %S mentions %S" name r substr)
        true (contains r substr)

let validate_patch name (a : Pipeline.t) (f : G.fix) =
  (* dynamic check only when the program has a main to drive *)
  if Minigo.Ast.find_func a.source "main" <> None then begin
    let seeds = 25 in
    let _, before, _, _ = Goruntime.Interp.run_schedules ~seeds a.source in
    let _, after, _, _ = Goruntime.Interp.run_schedules ~seeds f.patched in
    Alcotest.(check int) (name ^ ": patched never leaks") 0 after;
    ignore before
  end

let fig1_with_main =
  "func Exec(ctx context.Context, r string) (string, error) {\n\
   \toutDone := make(chan error)\n\
   \tgo func(a string) {\n\t\toutDone <- nil\n\t}(r)\n\
   \tselect {\n\
   \tcase err := <-outDone:\n\t\tif err != nil {\n\t\t\treturn \"\", err\n\t\t}\n\
   \tcase <-ctx.Done():\n\t\treturn \"\", ctx.Err()\n\
   \t}\n\
   \treturn \"ok\", nil\n\
   }\n\
   func main() {\n\
   \tctx := background()\n\
   \tgo func(c context.Context) {\n\t\tcancel(c)\n\t}(ctx)\n\
   \tr, err := Exec(ctx, \"x\")\n\
   \tprintln(r, err)\n\
   }"

let test_s1_figure1 () =
  let a, outcome = fix_first fig1_with_main in
  match outcome with
  | G.Fixed f ->
      Alcotest.(check string) "strategy"
        (G.strategy_str G.S1_increase_buffer)
        (G.strategy_str f.strategy);
      Alcotest.(check int) "one changed line" 1 f.changed_lines;
      (* the patch is exactly make(chan error, 1) *)
      let printed = Minigo.Pretty.program_str f.patched in
      Alcotest.(check bool) "buffer bumped" true
        (let sub = "make(chan error, 1)" in
         let n = String.length sub in
         let rec go i =
           i + n <= String.length printed
           && (String.sub printed i n = sub || go (i + 1))
         in
         go 0);
      validate_patch "S1" a f
  | G.Not_fixed r -> Alcotest.failf "figure 1 not fixed: %s" r

let test_s2_figure3 () =
  let src =
    "func start(stop chan bool) {\n\tn := 0\n\tn++\n\t<-stop\n}\n\
     func TestD(t *testing.T) {\n\
     \tstop := make(chan bool)\n\
     \tgo start(stop)\n\
     \terr := errorf(\"x\")\n\
     \tif err != nil {\n\t\tt.Fatalf(\"fail\")\n\t}\n\
     \tstop <- true\n\
     }\n\
     func main() {\n\tvar t *testing.T\n\tTestD(t)\n}"
  in
  let a, outcome = fix_first src in
  match outcome with
  | G.Fixed f ->
      Alcotest.(check string) "strategy" (G.strategy_str G.S2_defer_op)
        (G.strategy_str f.strategy);
      (* the original send must be gone and a defer added *)
      let fd = Option.get (Minigo.Ast.find_func f.patched "TestD") in
      let has_defer_send =
        List.exists
          (fun (s : Minigo.Ast.stmt) ->
            match s.s with
            | Minigo.Ast.DeferStmt (Minigo.Ast.DeferSend _) -> true
            | _ -> false)
          fd.body
      in
      let has_plain_send =
        List.exists
          (fun (s : Minigo.Ast.stmt) ->
            match s.s with Minigo.Ast.Send _ -> true | _ -> false)
          fd.body
      in
      Alcotest.(check bool) "defer send added" true has_defer_send;
      Alcotest.(check bool) "original send removed" false has_plain_send;
      validate_patch "S2" a f
  | G.Not_fixed r -> Alcotest.failf "figure 3 not fixed: %s" r

let test_s2_defer_close () =
  (* all o1s are closes: the patch defers the close *)
  let src =
    "func start(stop chan bool) {\n\t<-stop\n}\n\
     func Run(t *testing.T) {\n\
     \tstop := make(chan bool)\n\
     \tgo start(stop)\n\
     \terr := errorf(\"x\")\n\
     \tif err != nil {\n\t\tt.Fatalf(\"fail\")\n\t}\n\
     \tclose(stop)\n\
     }"
  in
  let _, outcome = fix_first src in
  match outcome with
  | G.Fixed f -> (
      let fd = Option.get (Minigo.Ast.find_func f.patched "Run") in
      match
        List.find_opt
          (fun (s : Minigo.Ast.stmt) ->
            match s.s with
            | Minigo.Ast.DeferStmt (Minigo.Ast.DeferClose _) -> true
            | _ -> false)
          fd.body
      with
      | Some _ -> ()
      | None -> Alcotest.fail "expected defer close(stop)")
  | G.Not_fixed r -> Alcotest.failf "close variant not fixed: %s" r

let test_s3_figure4 () =
  let src =
    "func Inter(abort chan bool, n int) int {\n\
     \tsched := make(chan string)\n\
     \tgo func(k int) {\n\t\tfor i := range k {\n\t\t\tsched <- \"l\"\n\t\t}\n\t}(n)\n\
     \tfor {\n\
     \t\tselect {\n\tcase <-abort:\n\t\treturn 0\n\tcase line := <-sched:\n\t\tif len(line) == 0 {\n\t\t\treturn 1\n\t\t}\n\t}\n\
     \t}\n\
     }\n\
     func main() {\n\tabort := make(chan bool, 1)\n\tabort <- true\n\tprintln(Inter(abort, 2))\n}"
  in
  let a, outcome = fix_first src in
  match outcome with
  | G.Fixed f ->
      Alcotest.(check string) "strategy" (G.strategy_str G.S3_add_stop)
        (G.strategy_str f.strategy);
      (* a stop channel must be declared and deferred-closed *)
      let fd = Option.get (Minigo.Ast.find_func f.patched "Inter") in
      let has_stop_decl =
        List.exists
          (fun (s : Minigo.Ast.stmt) ->
            match s.s with
            | Minigo.Ast.Define ([ v ], { e = Minigo.Ast.MakeChan _; _ }) ->
                v = "schedStop"
            | _ -> false)
          fd.body
      in
      Alcotest.(check bool) "stop channel declared" true has_stop_decl;
      validate_patch "S3" a f
  | G.Not_fixed r -> Alcotest.failf "figure 4 not fixed: %s" r

(* ---- rejections (the paper's §5.3 unfixed categories) ---- *)

let test_reject_parent_blocked () =
  expect_rejected "parent blocked" "parent"
    "func Wait(flag bool) int {\n\
     \tack := make(chan int)\n\
     \tgo func(skip bool) {\n\t\tif skip {\n\t\t\treturn\n\t\t}\n\t\tack <- 1\n\t}(flag)\n\
     \tv := <-ack\n\
     \treturn v\n\
     }"

let test_reject_side_effects () =
  expect_rejected "side effects after o2" "side effect"
    "type St struct {\n\tcount int\n}\n\
     func Rec(ctx context.Context, s St) int {\n\
     \tfin := make(chan bool)\n\
     \tgo func(x St) {\n\t\tfin <- true\n\t\tx.count = x.count + 1\n\t\tprintln(\"updated\")\n\t}(s)\n\
     \tselect {\n\tcase <-fin:\n\t\treturn s.count\n\tcase <-ctx.Done():\n\t\treturn 0\n\t}\n\
     }"

let test_reject_mutex_bug () =
  let src =
    "type Box struct {\n\tmu sync.Mutex\n\tv int\n}\n\
     func Handoff(x int) int {\n\
     \tb := Box{v: x}\n\
     \tready := make(chan bool)\n\
     \tgo func(bb Box) {\n\t\tbb.mu.Lock()\n\t\tready <- true\n\t\tbb.mu.Unlock()\n\t}(b)\n\
     \tb.mu.Lock()\n\
     \t<-ready\n\
     \tb.mu.Unlock()\n\
     \treturn b.v\n\
     }"
  in
  let a = analyse src in
  let outcomes = G.fix_all a.source a.bmoc in
  Alcotest.(check bool) "mutex-involved bugs skipped" true
    (List.for_all
       (fun ((b : R.bmoc_bug), o) ->
         match (b.kind, o) with
         | R.Chan_and_mutex, G.Not_fixed _ -> true
         | R.Chan_and_mutex, G.Fixed _ -> false
         | R.Chan_only, _ -> true)
       outcomes)

(* ---- diff metric ---- *)

let test_changed_lines_identity () =
  Alcotest.(check int) "no change" 0 (Gcatch.Patch.changed_lines "a\nb\nc" "a\nb\nc")

let test_changed_lines_replace () =
  Alcotest.(check int) "one replacement" 1
    (Gcatch.Patch.changed_lines "a\nb\nc" "a\nX\nc")

let test_changed_lines_insert () =
  Alcotest.(check int) "pure insertion" 2
    (Gcatch.Patch.changed_lines "a\nc" "a\nb1\nb2\nc")

let prop_diff_zero_iff_equal =
  QCheck.Test.make ~name:"changed_lines = 0 iff texts equal" ~count:100
    QCheck.(pair (small_list (string_gen_of_size Gen.(0 -- 5) Gen.printable))
              (small_list (string_gen_of_size Gen.(0 -- 5) Gen.printable)))
    (fun (a, b) ->
      let clean =
        List.map (String.map (fun c -> if c = '\n' then '_' else c))
      in
      let a = String.concat "\n" (clean a) and b = String.concat "\n" (clean b) in
      (Gcatch.Patch.changed_lines a b = 0) = (a = b))

(* every corpus fix validates dynamically when wrapped in a driver *)
let test_all_strategies_small_diffs () =
  (* S1 changes 1 line; S2 a handful; S3 the most — the paper's ordering *)
  let f1 = expect_strategy "s1" G.S1_increase_buffer fig1_with_main in
  Alcotest.(check bool) "S1 = 1 line" true (f1.changed_lines = 1);
  let src3 =
    "func Inter(abort chan bool, n int) int {\n\
     \tsched := make(chan string)\n\
     \tgo func(k int) {\n\t\tfor i := range k {\n\t\t\tsched <- \"l\"\n\t\t}\n\t}(n)\n\
     \tselect {\n\tcase <-abort:\n\t\treturn 0\n\tcase <-sched:\n\t\treturn 1\n\t}\n\
     }"
  in
  let _, o3 = fix_first src3 in
  match o3 with
  | G.Fixed f3 ->
      Alcotest.(check bool) "S3 larger than S1" true (f3.changed_lines > f1.changed_lines)
  | G.Not_fixed r -> Alcotest.failf "s3 not fixed: %s" r

(* ---- the changed-line count diffs only the rewritten function ---- *)

let whole_program_count (prog : Minigo.Ast.program) (f : G.fix) =
  Gcatch.Patch.changed_lines
    (Minigo.Pretty.program_str prog)
    (Minigo.Pretty.program_str f.patched)

let test_count_equals_whole_program () =
  let fixes =
    List.concat_map
      (fun (app : Gocorpus.Apps.app) ->
        let a = Pipeline.analyse ~name:app.spec.name app.sources in
        List.filter_map
          (fun (_, o) ->
            match o with
            | G.Fixed f -> Some (app.spec.name, a.source, f)
            | G.Not_fixed _ -> None)
          (G.fix_all a.source a.bmoc))
      (Gocorpus.Apps.all ())
  in
  (* E1's 48 true-positive fixes plus the 11 false positives GFix also
     patches when asked to *)
  Alcotest.(check int) "corpus fixes" 59 (List.length fixes);
  List.iter
    (fun (name, prog, (f : G.fix)) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: %s" name f.description)
        (whole_program_count prog f) f.changed_lines)
    fixes

(* A second file declares a function of the buggy one's name with the
   same statements: only the reported declaration is rewritten. *)
let test_count_name_in_two_files () =
  let a = analyse fig1_with_main in
  let bug = List.hd a.bmoc in
  let exec = Option.get (Minigo.Ast.find_func a.source "Exec") in
  let twin =
    {
      Minigo.Ast.package = "p";
      decls = [ Minigo.Ast.Dfunc { exec with fname = exec.fname } ];
      source_name = "twin.go";
    }
  in
  let prog = a.source @ [ twin ] in
  match G.dispatch prog bug with
  | G.Fixed f ->
      Alcotest.(check int) "one changed line" 1 f.changed_lines;
      Alcotest.(check int) "equals the whole-program diff"
        (whole_program_count prog f) f.changed_lines;
      Alcotest.(check bool) "the twin file is shared, not rebuilt" true
        (List.nth f.patched 1 == twin)
  | G.Not_fixed r -> Alcotest.failf "figure 1 not fixed: %s" r

(* A goroutine literal called with fewer arguments than parameters (an
   untyped program) has no bound parameter: the channel is the captured
   name, and dispatch returns an outcome instead of raising. *)
let test_goroutine_arity_mismatch () =
  let a = analyse fig1_with_main in
  let bug = List.hd a.bmoc in
  let strip (s : Minigo.Ast.stmt) =
    match s.s with
    | Minigo.Ast.GoFuncLit (ps, body, _) ->
        [ { s with s = Minigo.Ast.GoFuncLit (ps, body, []) } ]
    | _ -> [ s ]
  in
  let exec = Option.get (Minigo.Ast.find_func a.source "Exec") in
  let stripped, _ = Gcatch.Patch.rewrite_func a.source exec strip in
  match G.dispatch stripped bug with
  | G.Fixed f ->
      Alcotest.(check string) "strategy"
        (G.strategy_str G.S1_increase_buffer)
        (G.strategy_str f.strategy)
  | G.Not_fixed r -> Alcotest.failf "not fixed: %s" r

(* Every fixable bug of an app lands in [fix_to_fixpoint]'s output:
   re-detecting it finds no bug [fix_all] can still fix.  docker and
   etcd have the most fixes per program (18 and 14). *)
let test_fixpoint_applies_every_fix () =
  List.iter
    (fun name ->
      let app = Option.get (Gocorpus.Apps.find name) in
      let a = Pipeline.analyse ~name app.sources in
      let final = G.fix_to_fixpoint a.source (G.fix_all a.source a.bmoc) in
      let bugs =
        (Gcatch.Bmoc.detect_full (Goir.Lower.lower_program final)).f_bugs
      in
      let fixable =
        List.filter
          (fun (_, o) ->
            match o with G.Fixed _ -> true | G.Not_fixed _ -> false)
          (G.fix_all final bugs)
      in
      Alcotest.(check (list string))
        (name ^ ": no fixable bug left")
        []
        (List.map (fun (b, _) -> R.bmoc_str b) fixable))
    [ "docker"; "etcd" ]

let tests =
  [
    Alcotest.test_case "Strategy-I on figure 1" `Quick test_s1_figure1;
    Alcotest.test_case "Strategy-II on figure 3" `Quick test_s2_figure3;
    Alcotest.test_case "Strategy-II defers close" `Quick test_s2_defer_close;
    Alcotest.test_case "Strategy-III on figure 4" `Quick test_s3_figure4;
    Alcotest.test_case "reject: parent blocked" `Quick test_reject_parent_blocked;
    Alcotest.test_case "reject: side effects" `Quick test_reject_side_effects;
    Alcotest.test_case "reject: mutex involved" `Quick test_reject_mutex_bug;
    Alcotest.test_case "diff: identity" `Quick test_changed_lines_identity;
    Alcotest.test_case "diff: replacement" `Quick test_changed_lines_replace;
    Alcotest.test_case "diff: insertion" `Quick test_changed_lines_insert;
    QCheck_alcotest.to_alcotest prop_diff_zero_iff_equal;
    Alcotest.test_case "strategy diff ordering" `Quick test_all_strategies_small_diffs;
    Alcotest.test_case "changed lines equal the whole-program diff" `Quick
      test_count_equals_whole_program;
    Alcotest.test_case "changed lines: name declared in two files" `Quick
      test_count_name_in_two_files;
    Alcotest.test_case "fixpoint applies every fix" `Quick
      test_fixpoint_applies_every_fix;
    Alcotest.test_case "goroutine arity mismatch is an outcome" `Quick
      test_goroutine_arity_mismatch;
  ]
