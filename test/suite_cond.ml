(* sync.Cond support — the paper's §6 encoding, implemented: a condition
   variable is an unbuffered channel; Wait receives; Signal is a select
   with a send arm and a default (lost when nobody waits); Broadcast is a
   send loop with a default exit.  Static and dynamic semantics are both
   covered, and both agree. *)

module R = Gcatch.Report

let analyse src = Pipeline.analyse ~name:"input" [ "package p\n" ^ src ]

let run ?(seed = 5) src =
  let prog =
    Minigo.Typecheck.check_program
      (Minigo.Parser.parse_string ("package p\n" ^ src))
  in
  Goruntime.Interp.run ~seed prog

(* ---- runtime semantics ---- *)

let test_wait_signal () =
  let r =
    run
      "func main() {\n\
       \tvar cv sync.Cond\n\
       \tdone := make(chan bool)\n\
       \tgo func() {\n\t\tcv.Wait()\n\t\tprintln(\"woken\")\n\t\tdone <- true\n\t}()\n\
       \tsleep(2)\n\
       \tcv.Signal()\n\
       \t<-done\n\
       }"
  in
  Alcotest.(check (list string)) "wait then signal" [ "woken" ] r.output;
  Alcotest.(check int) "no leaks" 0 (List.length r.leaked)

let test_lost_signal () =
  (* signal before any waiter: the waiter blocks forever, like Go *)
  let r =
    run
      "func main() {\n\
       \tvar cv sync.Cond\n\
       \tcv.Signal()\n\
       \tgo func() {\n\t\tcv.Wait()\n\t\tprintln(\"never\")\n\t}()\n\
       \tsleep(2)\n\
       }"
  in
  Alcotest.(check int) "waiter leaked" 1 (List.length r.leaked);
  Alcotest.(check (list string)) "no output" [] r.output

let test_broadcast_wakes_all () =
  let r =
    run
      "func main() {\n\
       \tvar cv sync.Cond\n\
       \tdone := make(chan bool, 3)\n\
       \tfor i := range 3 {\n\
       \t\tgo func(k int) {\n\t\t\tcv.Wait()\n\t\t\tdone <- true\n\t\t}(i)\n\
       \t}\n\
       \tsleep(3)\n\
       \tcv.Broadcast()\n\
       \t<-done\n\
       \t<-done\n\
       \t<-done\n\
       \tprintln(\"all woken\")\n\
       }"
  in
  Alcotest.(check (list string)) "broadcast" [ "all woken" ] r.output;
  Alcotest.(check int) "no leaks" 0 (List.length r.leaked)

let test_signal_wakes_one () =
  let r =
    run
      "func main() {\n\
       \tvar cv sync.Cond\n\
       \tdone := make(chan bool, 2)\n\
       \tgo func() {\n\t\tcv.Wait()\n\t\tdone <- true\n\t}()\n\
       \tgo func() {\n\t\tcv.Wait()\n\t\tdone <- true\n\t}()\n\
       \tsleep(3)\n\
       \tcv.Signal()\n\
       \t<-done\n\
       \tprintln(\"one woken\")\n\
       }"
  in
  Alcotest.(check (list string)) "signal wakes one" [ "one woken" ] r.output;
  Alcotest.(check int) "the other waiter leaks" 1 (List.length r.leaked)

(* ---- static detection ---- *)

let test_missing_signal_detected () =
  (* a Wait that no Signal can ever unblock: the §6 encoding makes this a
     BMOC bug (a receive with no matching send) *)
  let a =
    analyse
      "func f() {\n\
       \tvar cv sync.Cond\n\
       \tgo func() {\n\t\tcv.Wait()\n\t}()\n\
       }"
  in
  Alcotest.(check bool) "wait without signal detected" true
    (List.length a.bmoc >= 1);
  Alcotest.(check bool) "blocked op is the Wait's receive" true
    (List.exists
       (fun (b : R.bmoc_bug) ->
         List.exists
           (fun (o : R.blocked_op) -> o.bo_kind = R.Krecv)
           b.blocked)
       a.bmoc)

let test_lost_signal_race_detected () =
  (* spawn-then-signal is a genuine lost-signal race: when the Signal
     fires before the child reaches Wait, the select takes its default
     and the waiter blocks forever.  The detector must flag it — and the
     runtime must manifest it on some schedule. *)
  let src =
    "func main() {\n\
     \tvar cv sync.Cond\n\
     \tgo func() {\n\t\tcv.Wait()\n\t}()\n\
     \tcv.Signal()\n\
     }"
  in
  let a = analyse src in
  Alcotest.(check bool) "lost-signal race detected" true
    (List.length a.bmoc >= 1);
  let leaks = ref 0 in
  for seed = 1 to 30 do
    if (run ~seed src).leaked <> [] then incr leaks
  done;
  Alcotest.(check bool) "race manifests on some schedules" true (!leaks > 0);
  Alcotest.(check bool) "and not on others" true (!leaks < 30)

let test_signal_never_blocks () =
  (* a signal with no waiter must NOT be reported: its select has a
     default clause *)
  let a = analyse "func f() {\n\tvar cv sync.Cond\n\tcv.Signal()\n}" in
  Alcotest.(check int) "lone signal clean" 0 (List.length a.bmoc)

let test_broadcast_never_blocks () =
  let a = analyse "func f() {\n\tvar cv sync.Cond\n\tcv.Broadcast()\n}" in
  Alcotest.(check int) "lone broadcast clean" 0 (List.length a.bmoc)

let test_ir_shape () =
  (* the lowering must produce the sketch's select-with-default *)
  let ir =
    Pipeline.compile_ir ~name:"cond"
      [ "package p\nfunc f() {\n\tvar cv sync.Cond\n\tcv.Signal()\n\tcv.Wait()\n}" ]
  in
  let f = Option.get (Goir.Ir.find_func ir "f") in
  let has_default_select =
    Array.exists
      (fun (b : Goir.Ir.block) ->
        match b.term with
        | Tselect ([ { arm_op = Arm_send _; _ } ], Some _, _) -> true
        | _ -> false)
      f.blocks
  in
  let has_recv =
    Goir.Ir.fold_insts
      (fun acc (i : Goir.Ir.inst) ->
        acc || match i.idesc with Irecv _ -> true | _ -> false)
      false f
  in
  let has_chan_creation =
    Goir.Ir.fold_insts
      (fun acc (i : Goir.Ir.inst) ->
        acc || match i.idesc with Imake_chan (_, _, Some 0) -> true | _ -> false)
      false f
  in
  Alcotest.(check bool) "Signal is select+send+default" true has_default_select;
  Alcotest.(check bool) "Wait is a receive" true has_recv;
  Alcotest.(check bool) "Cond is an unbuffered channel" true has_chan_creation

let tests =
  [
    Alcotest.test_case "runtime: wait/signal" `Quick test_wait_signal;
    Alcotest.test_case "runtime: lost signal" `Quick test_lost_signal;
    Alcotest.test_case "runtime: broadcast wakes all" `Quick
      test_broadcast_wakes_all;
    Alcotest.test_case "runtime: signal wakes one" `Quick test_signal_wakes_one;
    Alcotest.test_case "static: missing signal detected" `Quick
      test_missing_signal_detected;
    Alcotest.test_case "lost-signal race (static + dynamic)" `Quick
      test_lost_signal_race_detected;
    Alcotest.test_case "static: lone signal clean" `Quick
      test_signal_never_blocks;
    Alcotest.test_case "static: lone broadcast clean" `Quick
      test_broadcast_never_blocks;
    Alcotest.test_case "IR lowering shape (§6 sketch)" `Quick test_ir_shape;
  ]
