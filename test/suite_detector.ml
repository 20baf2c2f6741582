(* GCatch detector tests: BMOC detection on the paper's figure bugs and
   their fixed variants, disentangling, suspicious groups, feasibility
   filtering, and traditional checkers. *)

module R = Gcatch.Report

let analyse src = Pipeline.analyse ~name:"input" [ "package p\n" ^ src ]

let bmoc_count src = List.length (analyse src).bmoc

let has_trad kind src =
  List.exists (fun (t : R.trad_bug) -> t.tkind = kind) (analyse src).trad

let trad_count kind src =
  List.length
    (List.filter (fun (t : R.trad_bug) -> t.tkind = kind) (analyse src).trad)

(* ---- BMOC: the figure bugs ---- *)

let fig1 =
  "func Exec(ctx context.Context, r string) (string, error) {\n\
   \toutDone := make(chan error)\n\
   \tgo func(a string) {\n\t\toutDone <- nil\n\t}(r)\n\
   \tselect {\n\
   \tcase err := <-outDone:\n\t\tif err != nil {\n\t\t\treturn \"\", err\n\t\t}\n\
   \tcase <-ctx.Done():\n\t\treturn \"\", ctx.Err()\n\
   \t}\n\
   \treturn \"ok\", nil\n\
   }"

let fig1_fixed =
  "func Exec(ctx context.Context, r string) (string, error) {\n\
   \toutDone := make(chan error, 1)\n\
   \tgo func(a string) {\n\t\toutDone <- nil\n\t}(r)\n\
   \tselect {\n\
   \tcase err := <-outDone:\n\t\tif err != nil {\n\t\t\treturn \"\", err\n\t\t}\n\
   \tcase <-ctx.Done():\n\t\treturn \"\", ctx.Err()\n\
   \t}\n\
   \treturn \"ok\", nil\n\
   }"

let test_figure1_detected () =
  let a = analyse fig1 in
  Alcotest.(check int) "one BMOC bug" 1 (List.length a.bmoc);
  let bug = List.hd a.bmoc in
  Alcotest.(check int) "one blocked op" 1 (List.length bug.blocked);
  let op = List.hd bug.blocked in
  Alcotest.(check string) "blocked op kind" "send" (R.op_kind_str op.bo_kind);
  Alcotest.(check bool) "blocked in the child" true
    (String.length op.bo_func > 4 && String.contains op.bo_func '$')

let test_figure1_fixed_clean () =
  Alcotest.(check int) "buffered variant clean" 0 (bmoc_count fig1_fixed)

let test_figure1_witness_sensible () =
  let a = analyse fig1 in
  let bug = List.hd a.bmoc in
  (* the witness schedule must place the blocked send last *)
  let blocked_pp = (List.hd bug.blocked).bo_pp in
  let blocked_order = List.assoc blocked_pp bug.witness in
  Alcotest.(check bool) "blocked op last in witness" true
    (List.for_all (fun (pp, o) -> pp = blocked_pp || o < blocked_order) bug.witness)

let test_figure3_detected () =
  let src =
    "func start(stop chan bool) {\n\t<-stop\n}\n\
     func TestD(t *testing.T) {\n\
     \tstop := make(chan bool)\n\
     \tgo start(stop)\n\
     \terr := errorf(\"x\")\n\
     \tif err != nil {\n\t\tt.Fatalf(\"fail\")\n\t}\n\
     \tstop <- true\n\
     }"
  in
  Alcotest.(check bool) "missing-interaction detected" true (bmoc_count src >= 1)

let test_figure4_detected () =
  let src =
    "func Inter(abort chan bool, n int) int {\n\
     \tsched := make(chan string)\n\
     \tgo func(k int) {\n\t\tfor i := range k {\n\t\t\tsched <- \"l\"\n\t\t}\n\t}(n)\n\
     \tselect {\n\tcase <-abort:\n\t\treturn 0\n\tcase <-sched:\n\t\treturn 1\n\t}\n\
     }"
  in
  Alcotest.(check bool) "loop-send detected" true (bmoc_count src >= 1)

let test_double_recv_detected () =
  let src =
    "func Twice() int {\n\tc := make(chan int)\n\tgo func() {\n\t\tc <- 1\n\t}()\n\ta := <-c\n\tb := <-c\n\treturn a + b\n}"
  in
  Alcotest.(check bool) "second recv blocks" true (bmoc_count src >= 1)

let test_matched_pair_clean () =
  let src =
    "func Ok() int {\n\tc := make(chan int)\n\tgo func() {\n\t\tc <- 1\n\t}()\n\treturn <-c\n}"
  in
  Alcotest.(check int) "rendezvous is clean" 0 (bmoc_count src)

let test_buffered_send_clean () =
  let src = "func Ok() {\n\tc := make(chan int, 2)\n\tc <- 1\n\tc <- 2\n}" in
  Alcotest.(check int) "buffered sends fit" 0 (bmoc_count src)

let test_buffered_overflow_detected () =
  let src = "func Bad() {\n\tc := make(chan int, 1)\n\tc <- 1\n\tc <- 2\n}" in
  Alcotest.(check bool) "third send overflows" true (bmoc_count src >= 1)

let test_close_unblocks_recv () =
  let src =
    "func Ok() int {\n\tc := make(chan int)\n\tgo func() {\n\t\tclose(c)\n\t}()\n\treturn <-c\n}"
  in
  Alcotest.(check int) "close satisfies recv" 0 (bmoc_count src)

let test_chan_mutex_deadlock () =
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
  Alcotest.(check bool) "chan+mutex deadlock found" true (List.length a.bmoc >= 1);
  Alcotest.(check bool) "classified as BMOC_M" true
    (List.exists (fun (b : R.bmoc_bug) -> b.kind = R.Chan_and_mutex) a.bmoc)

let test_no_mutex_no_deadlock () =
  let src =
    "type Box struct {\n\tmu sync.Mutex\n\tv int\n}\n\
     func Handoff(x int) int {\n\
     \tb := Box{v: x}\n\
     \tready := make(chan bool)\n\
     \tgo func(bb Box) {\n\t\tbb.mu.Lock()\n\t\tbb.mu.Unlock()\n\t\tready <- true\n\t}(b)\n\
     \tb.mu.Lock()\n\
     \tb.mu.Unlock()\n\
     \t<-ready\n\
     \treturn b.v\n\
     }"
  in
  Alcotest.(check int) "well-nested version clean" 0 (bmoc_count src)

let test_feasibility_filter () =
  (* both branches compare the same read-only parameter: the combination
     taking contradictory branches must be filtered *)
  let src =
    "func Ok(flag bool) int {\n\
     \tc := make(chan int, 1)\n\
     \tif flag == true {\n\t\tc <- 1\n\t}\n\
     \tif flag == true {\n\t\treturn <-c\n\t}\n\
     \treturn 0\n\
     }"
  in
  Alcotest.(check int) "conflicting conditions filtered" 0 (bmoc_count src)

let test_constant_condition_pruned () =
  let src =
    "func Ok() int {\n\tc := make(chan int, 1)\n\tif 1 > 2 {\n\t\treturn <-c\n\t}\n\treturn 0\n}"
  in
  Alcotest.(check int) "statically false branch pruned" 0 (bmoc_count src)

let test_disentangling_pset () =
  (* the running example: ctx.Done() must stay out of outDone's Pset *)
  let prog =
    Minigo.Typecheck.check_program
      (Minigo.Parser.parse_string ("package p\n" ^ fig1))
  in
  let ir = Goir.Lower.lower_program prog in
  let alias = Goanalysis.Alias.analyse ir in
  let cg = Goanalysis.Callgraph.build ~alias ir in
  let prims = Gcatch.Primitives.collect ir alias in
  let dis = Gcatch.Disentangle.build prims cg in
  List.iter
    (fun c ->
      match c with
      | Goanalysis.Alias.Achan _ ->
          let pset = Gcatch.Disentangle.pset dis c in
          Alcotest.(check int) "pset contains only outDone" 1 (List.length pset)
      | _ -> ())
    (Gcatch.Primitives.channels prims)

let test_ablation_still_finds_fig1 () =
  let cfg = { Gcatch.Bmoc.default_config with disentangle = false } in
  let src = "func main() {\n\tc := make(chan int)\n\tgo func() {\n\t\tc <- 1\n\t}()\n}" in
  let a = Pipeline.analyse ~cfg ~name:"abl" [ "package p\n" ^ src ] in
  Alcotest.(check bool) "whole-program mode detects too" true
    (List.length a.bmoc >= 1)

(* ---- traditional checkers ---- *)

let test_forget_unlock () =
  let src =
    "type Q struct {\n\tmu sync.Mutex\n\tn int\n}\n\
     func Upd(q Q, a int) error {\n\
     \tq.mu.Lock()\n\
     \tif a < 0 {\n\t\treturn errorf(\"neg\")\n\t}\n\
     \tq.n = q.n + a\n\
     \tq.mu.Unlock()\n\
     \treturn nil\n\
     }"
  in
  Alcotest.(check bool) "missing unlock" true (has_trad R.Forget_unlock src)

let test_balanced_lock_clean () =
  let src =
    "type Q struct {\n\tmu sync.Mutex\n\tn int\n}\n\
     func Upd(q Q, a int) error {\n\
     \tq.mu.Lock()\n\
     \tif a < 0 {\n\t\tq.mu.Unlock()\n\t\treturn errorf(\"neg\")\n\t}\n\
     \tq.n = q.n + a\n\
     \tq.mu.Unlock()\n\
     \treturn nil\n\
     }"
  in
  Alcotest.(check bool) "balanced locking clean" false (has_trad R.Forget_unlock src)

let test_double_lock_direct () =
  let src =
    "type C struct {\n\tmu sync.Mutex\n}\nfunc f(c C) {\n\tc.mu.Lock()\n\tc.mu.Lock()\n\tc.mu.Unlock()\n\tc.mu.Unlock()\n}"
  in
  Alcotest.(check bool) "direct double lock" true (has_trad R.Double_lock src)

let test_double_lock_via_call () =
  let src =
    "type C struct {\n\tmu sync.Mutex\n\tn int\n}\n\
     func flush(c C) {\n\tc.mu.Lock()\n\tc.n = 0\n\tc.mu.Unlock()\n}\n\
     func reload(c C) {\n\tc.mu.Lock()\n\tflush(c)\n\tc.mu.Unlock()\n}\n\
     func run(x int) {\n\tc := C{n: x}\n\treload(c)\n}"
  in
  Alcotest.(check bool) "double lock via callee" true (has_trad R.Double_lock src)

let test_conflicting_order () =
  let src =
    "type P struct {\n\tma sync.Mutex\n\tmb sync.Mutex\n\ta int\n\tb int\n}\n\
     func ab(p P) {\n\tp.ma.Lock()\n\tp.mb.Lock()\n\tp.a = 1\n\tp.mb.Unlock()\n\tp.ma.Unlock()\n}\n\
     func ba(p P) {\n\tp.mb.Lock()\n\tp.ma.Lock()\n\tp.b = 1\n\tp.ma.Unlock()\n\tp.mb.Unlock()\n}\n\
     func run(x int) {\n\tp := P{a: x, b: x}\n\tgo ab(p)\n\tgo ba(p)\n}"
  in
  Alcotest.(check bool) "AB/BA cycle" true (has_trad R.Conflict_lock src)

let test_consistent_order_clean () =
  let src =
    "type P struct {\n\tma sync.Mutex\n\tmb sync.Mutex\n\ta int\n}\n\
     func ab(p P) {\n\tp.ma.Lock()\n\tp.mb.Lock()\n\tp.a = 1\n\tp.mb.Unlock()\n\tp.ma.Unlock()\n}\n\
     func ab2(p P) {\n\tp.ma.Lock()\n\tp.mb.Lock()\n\tp.a = 2\n\tp.mb.Unlock()\n\tp.ma.Unlock()\n}\n\
     func run(x int) {\n\tp := P{a: x}\n\tgo ab(p)\n\tgo ab2(p)\n}"
  in
  Alcotest.(check bool) "consistent order clean" false (has_trad R.Conflict_lock src)

let test_field_race () =
  let src =
    "type M struct {\n\tmu sync.Mutex\n\thits int\n}\n\
     func bump(m M) {\n\tm.mu.Lock()\n\tm.hits = m.hits + 1\n\tm.mu.Unlock()\n}\n\
     func read(m M) int {\n\tm.mu.Lock()\n\tv := m.hits\n\tm.mu.Unlock()\n\treturn v\n}\n\
     func reset(m M) {\n\tm.hits = 0\n}\n\
     func run(x int) int {\n\tm := M{hits: x}\n\tgo bump(m)\n\tgo bump(m)\n\treset(m)\n\treturn read(m)\n}"
  in
  Alcotest.(check int) "one racy access" 1 (trad_count R.Struct_field_race src)

let test_fatal_in_child () =
  let src =
    "func TestX(t *testing.T) {\n\tc := make(chan bool, 1)\n\tgo func() {\n\t\tt.Fatal(\"boom\")\n\t\tc <- true\n\t}()\n\tsleep(1)\n}"
  in
  Alcotest.(check bool) "Fatal in child goroutine" true (has_trad R.Fatal_in_child src)

let test_fatal_in_parent_clean () =
  let src = "func TestX(t *testing.T) {\n\tt.Fatal(\"boom\")\n}" in
  Alcotest.(check bool) "Fatal in test goroutine is fine" false
    (has_trad R.Fatal_in_child src)

let tests =
  [
    Alcotest.test_case "figure 1 detected" `Quick test_figure1_detected;
    Alcotest.test_case "figure 1 fixed is clean" `Quick test_figure1_fixed_clean;
    Alcotest.test_case "witness schedule sensible" `Quick test_figure1_witness_sensible;
    Alcotest.test_case "figure 3 detected" `Quick test_figure3_detected;
    Alcotest.test_case "figure 4 detected" `Quick test_figure4_detected;
    Alcotest.test_case "double recv detected" `Quick test_double_recv_detected;
    Alcotest.test_case "matched pair clean" `Quick test_matched_pair_clean;
    Alcotest.test_case "buffered sends clean" `Quick test_buffered_send_clean;
    Alcotest.test_case "buffer overflow detected" `Quick test_buffered_overflow_detected;
    Alcotest.test_case "close unblocks recv" `Quick test_close_unblocks_recv;
    Alcotest.test_case "chan+mutex deadlock" `Quick test_chan_mutex_deadlock;
    Alcotest.test_case "well-nested lock clean" `Quick test_no_mutex_no_deadlock;
    Alcotest.test_case "feasibility filter" `Quick test_feasibility_filter;
    Alcotest.test_case "constant condition pruned" `Quick test_constant_condition_pruned;
    Alcotest.test_case "disentangling keeps ctx out of pset" `Quick test_disentangling_pset;
    Alcotest.test_case "ablation mode still detects" `Quick test_ablation_still_finds_fig1;
    Alcotest.test_case "forget unlock" `Quick test_forget_unlock;
    Alcotest.test_case "balanced lock clean" `Quick test_balanced_lock_clean;
    Alcotest.test_case "double lock direct" `Quick test_double_lock_direct;
    Alcotest.test_case "double lock via call" `Quick test_double_lock_via_call;
    Alcotest.test_case "conflicting lock order" `Quick test_conflicting_order;
    Alcotest.test_case "consistent order clean" `Quick test_consistent_order_clean;
    Alcotest.test_case "field race" `Quick test_field_race;
    Alcotest.test_case "Fatal in child" `Quick test_fatal_in_child;
    Alcotest.test_case "Fatal in parent clean" `Quick test_fatal_in_parent_clean;
  ]
