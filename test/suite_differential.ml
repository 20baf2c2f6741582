(* Differential testing: the static detector against the runtime.

   For a family of generated producer/consumer programs with known
   send/receive balances, the two oracles must agree:

   - if the balance is broken (more sends than drains on an unbuffered or
     undersized channel, or receives that can never be satisfied), GCatch
     must report a BMOC bug AND the runtime must leak a goroutine on
     every schedule;
   - if the balance holds, GCatch must stay silent AND the runtime must
     never leak over many schedules.

   This is the strongest evidence the constraint system (§3.4) encodes
   channel semantics faithfully: both sides are independent
   implementations of the same semantics. *)

let program ~cap ~sends ~recvs =
  Printf.sprintf
    "package p\n\
     func main() {\n\
     \tc := make(chan int, %d)\n\
     \tgo func() {\n\
     %s\tdone := 0\n\
     \t_ = done\n\
     \t}()\n\
     %s}\n"
    cap
    (String.concat ""
       (List.init sends (fun i -> Printf.sprintf "\t\tc <- %d\n" i)))
    (String.concat "" (List.init recvs (fun _ -> "\t<-c\n")))

let static_buggy src =
  let a = Pipeline.analyse ~name:"diff" [ src ] in
  a.bmoc <> []

let dynamic_leaky src =
  let prog = Minigo.Typecheck.check_program (Minigo.Parser.parse_string src) in
  let leaks = ref 0 in
  for seed = 1 to 15 do
    let r = Goruntime.Interp.run ~seed prog in
    if r.leaked <> [] then incr leaks
  done;
  (* these straight-line programs have deterministic blocking behaviour:
     either every schedule leaks or none does *)
  if !leaks = 0 then false
  else if !leaks = 15 then true
  else Alcotest.failf "schedule-dependent leak (%d/15) in:\n%s" !leaks src

(* the balance analysis for this program family: sends block iff there
   are more sends than receives + buffer space; receives block iff there
   are more receives than sends *)
let expected_buggy ~cap ~sends ~recvs =
  sends > recvs + cap || recvs > sends

let test_case_for ~cap ~sends ~recvs () =
  let src = program ~cap ~sends ~recvs in
  let expected = expected_buggy ~cap ~sends ~recvs in
  let got_static = static_buggy src in
  let got_dynamic = dynamic_leaky src in
  Alcotest.(check bool)
    (Printf.sprintf "static verdict (cap=%d sends=%d recvs=%d)" cap sends recvs)
    expected got_static;
  Alcotest.(check bool)
    (Printf.sprintf "dynamic verdict (cap=%d sends=%d recvs=%d)" cap sends
       recvs)
    expected got_dynamic

(* enumerate the whole family within the detector's loop-free regime *)
let grid_tests =
  List.concat_map
    (fun cap ->
      List.concat_map
        (fun sends ->
          List.filter_map
            (fun recvs ->
              if sends = 0 && recvs = 0 then None
              else
                Some
                  (Alcotest.test_case
                     (Printf.sprintf "cap=%d sends=%d recvs=%d" cap sends recvs)
                     `Quick
                     (test_case_for ~cap ~sends ~recvs)))
            [ 0; 1; 2; 3 ])
        [ 0; 1; 2; 3 ])
    [ 0; 1; 2 ]

(* property: random (cap, sends, recvs) triples agree between the two
   oracles and the closed-form expectation *)
let prop_agreement =
  QCheck.Test.make ~name:"static = dynamic = closed form" ~count:30
    QCheck.(triple (int_range 0 2) (int_range 0 4) (int_range 0 4))
    (fun (cap, sends, recvs) ->
      QCheck.assume (sends + recvs > 0);
      let src = program ~cap ~sends ~recvs in
      let expected = expected_buggy ~cap ~sends ~recvs in
      static_buggy src = expected && dynamic_leaky src = expected)

let tests = grid_tests @ [ QCheck_alcotest.to_alcotest prop_agreement ]
