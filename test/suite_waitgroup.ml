(* The WaitGroup modeling extension (§6): off by default — matching the
   paper's coverage study, which counts WaitGroup bugs as misses — and
   able to find exactly those bugs when enabled. *)

let wg_cfg =
  {
    Gcatch.Bmoc.default_config with
    path_cfg = { Gcatch.Pathenum.default_config with model_waitgroup = true };
  }

let analyse ?(wg = true) src =
  let cfg = if wg then wg_cfg else Gcatch.Bmoc.default_config in
  Pipeline.analyse ~cfg ~name:"wg" [ "package p\n" ^ src ]

let buggy_skip_done =
  "func Gather(skip bool) {\n\
   \tvar wg sync.WaitGroup\n\
   \twg.Add(1)\n\
   \tgo func(s bool) {\n\t\tif s {\n\t\t\treturn\n\t\t}\n\t\twg.Done()\n\t}(skip)\n\
   \twg.Wait()\n\
   }"

let balanced =
  "func Gather() {\n\
   \tvar wg sync.WaitGroup\n\
   \twg.Add(1)\n\
   \tgo func() {\n\t\twg.Done()\n\t}()\n\
   \twg.Wait()\n\
   }"

let test_off_by_default () =
  let a = analyse ~wg:false buggy_skip_done in
  Alcotest.(check int) "paper behaviour: WaitGroup bugs missed" 0
    (List.length a.bmoc)

let test_skip_done_detected () =
  let a = analyse buggy_skip_done in
  Alcotest.(check bool) "missed Done blocks Wait" true (List.length a.bmoc >= 1);
  let bug = List.hd a.bmoc in
  Alcotest.(check bool) "blocked op is the Wait" true
    (List.exists
       (fun (o : Gcatch.Report.blocked_op) -> o.bo_kind = Gcatch.Report.Kwg_wait)
       bug.blocked)

let test_balanced_clean () =
  let a = analyse balanced in
  Alcotest.(check int) "balanced Add/Done is clean" 0 (List.length a.bmoc)

let test_add_two_one_done () =
  let src =
    "func G() {\n\
     \tvar wg sync.WaitGroup\n\
     \twg.Add(2)\n\
     \tgo func() {\n\t\twg.Done()\n\t}()\n\
     \twg.Wait()\n\
     }"
  in
  Alcotest.(check bool) "Add(2) with one Done blocks" true
    (List.length (analyse src).bmoc >= 1)

let test_add_two_two_dones () =
  let src =
    "func G() {\n\
     \tvar wg sync.WaitGroup\n\
     \twg.Add(2)\n\
     \tgo func() {\n\t\twg.Done()\n\t}()\n\
     \tgo func() {\n\t\twg.Done()\n\t}()\n\
     \twg.Wait()\n\
     }"
  in
  Alcotest.(check int) "Add(2) with two Dones is clean" 0
    (List.length (analyse src).bmoc)

let test_unknown_delta_unmodelable () =
  (* Add(n) with a runtime value: the extension must stay silent rather
     than guess *)
  let src =
    "func G(n int) {\n\
     \tvar wg sync.WaitGroup\n\
     \twg.Add(n)\n\
     \tgo func() {\n\t\twg.Done()\n\t}()\n\
     \twg.Wait()\n\
     }"
  in
  Alcotest.(check int) "non-constant Add is not modelled" 0
    (List.length (analyse src).bmoc)

let test_bugset_waitgroup_class_recovered () =
  (* the E4 miss class becomes detectable for constant Add(1) shapes *)
  let src =
    "func Gather(n int) {\n\
     \tvar wg sync.WaitGroup\n\
     \tfor i := range n {\n\
     \t\twg.Add(1)\n\
     \t\tgo func(k int) {\n\t\t\tif k == 0 {\n\t\t\t\treturn\n\t\t\t}\n\t\t\twg.Done()\n\t\t}(i)\n\
     \t}\n\
     \twg.Wait()\n\
     }"
  in
  Alcotest.(check bool) "loop-spawn skip-Done found" true
    (List.length (analyse src).bmoc >= 1)

let test_dynamic_agreement () =
  (* the buggy program leaks at runtime; the balanced one never does *)
  let run src =
    let prog =
      Minigo.Typecheck.check_program
        (Minigo.Parser.parse_string
           ("package p\n" ^ src ^ "\nfunc main() {\n\tGather(true)\n}"))
    in
    let _, leaks, _, _ = Goruntime.Interp.run_schedules ~seeds:10 prog in
    leaks
  in
  Alcotest.(check bool) "buggy leaks dynamically" true (run buggy_skip_done > 0)

let tests =
  [
    Alcotest.test_case "off by default (paper parity)" `Quick test_off_by_default;
    Alcotest.test_case "skipped Done detected" `Quick test_skip_done_detected;
    Alcotest.test_case "balanced Add/Done clean" `Quick test_balanced_clean;
    Alcotest.test_case "Add(2), one Done" `Quick test_add_two_one_done;
    Alcotest.test_case "Add(2), two Dones clean" `Quick test_add_two_two_dones;
    Alcotest.test_case "non-constant Add unmodelable" `Quick
      test_unknown_delta_unmodelable;
    Alcotest.test_case "loop-spawn miss class recovered" `Quick
      test_bugset_waitgroup_class_recovered;
    Alcotest.test_case "dynamic agreement" `Quick test_dynamic_agreement;
  ]
