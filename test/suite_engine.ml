(* Staged-engine tests: structured diagnostics for malformed input (no
   escaping exceptions), artifact cache-hit behaviour on repeated
   analysis, pass selection, and the JSON renderer. *)

module E = Goengine.Engine
module D = Goengine.Diagnostics

let fig1 =
  "package p\n\
   func Exec(ctx context.Context, r string) (string, error) {\n\
   \toutDone := make(chan error)\n\
   \tgo func(a string) {\n\t\toutDone <- nil\n\t}(r)\n\
   \tselect {\n\
   \tcase err := <-outDone:\n\t\tif err != nil {\n\t\t\treturn \"\", err\n\t\t}\n\
   \tcase <-ctx.Done():\n\t\treturn \"\", ctx.Err()\n\
   \t}\n\
   \treturn \"ok\", nil\n\
   }"

let clean = "package p\nfunc main() {\n\tprintln(1)\n}\n"
let parse_error_src = "package p\nfunc main( {}\n"
let type_error_src = "package p\nfunc main() {\n\tx := 1 + \"s\"\n\tprintln(x)\n}\n"

let analyse ?only ?extra engine src =
  E.analyse ?only ?extra engine ~name:"t" [ src ]

let passes_of (d : D.t list) = List.map (fun (d : D.t) -> d.D.pass) d

(* ---- structured diagnostics instead of exceptions ---- *)

let test_parse_error_diag () =
  let engine = Gcatch.Passes.engine () in
  let r = analyse engine parse_error_src in
  Alcotest.(check bool) "frontend failed" true (E.frontend_failed r);
  Alcotest.(check int) "one diagnostic" 1 (List.length r.E.r_diags);
  let d = List.hd r.E.r_diags in
  Alcotest.(check string) "pass" "frontend/parse" d.D.pass;
  Alcotest.(check bool) "severity error" true (D.is_error d);
  Alcotest.(check bool) "has a location" true (d.D.loc <> None);
  Alcotest.(check bool) "no passes ran" true (r.E.r_passes = [])

let test_type_error_diag () =
  let engine = Gcatch.Passes.engine () in
  let r = analyse engine type_error_src in
  Alcotest.(check bool) "frontend failed" true (E.frontend_failed r);
  let d = List.hd r.E.r_diags in
  Alcotest.(check string) "pass" "frontend/typecheck" d.D.pass

let test_clean_run () =
  let engine = Gcatch.Passes.engine () in
  let r = analyse engine clean in
  Alcotest.(check bool) "frontend ok" false (E.frontend_failed r);
  Alcotest.(check int) "no diagnostics" 0 (List.length r.E.r_diags);
  (* every default pass ran: bmoc + the five traditional checkers *)
  Alcotest.(check int) "six default passes" 6 (List.length r.E.r_passes)

let test_bug_diag_payload () =
  let engine = Gcatch.Passes.engine () in
  let r = analyse engine fig1 in
  let bmoc = Gcatch.Passes.bmoc_bugs r.E.r_diags in
  Alcotest.(check int) "one BMOC bug via payload" 1 (List.length bmoc);
  Alcotest.(check bool) "diag from the bmoc pass" true
    (List.mem "bmoc" (passes_of r.E.r_diags));
  let b = List.hd bmoc in
  Alcotest.(check int) "typed report intact" 1 (List.length b.Gcatch.Report.blocked)

(* ---- artifact cache ---- *)

let test_cache_hit_on_repeat () =
  let engine = Gcatch.Passes.engine () in
  let r1 = analyse engine fig1 in
  let r2 = analyse engine fig1 in
  let c = E.counter_value engine in
  (* the acceptance criterion: two analyses, exactly one frontend run;
     stage/cache counters are served from the engine's metrics registry *)
  Alcotest.(check int) "one lex" 1 (c "stage.lex.runs");
  Alcotest.(check int) "one parse" 1 (c "stage.parse.runs");
  Alcotest.(check int) "one typecheck" 1 (c "stage.typecheck.runs");
  Alcotest.(check int) "one lower" 1 (c "stage.lower.runs");
  Alcotest.(check int) "one cache hit" 1 (c "engine.cache_hits");
  Alcotest.(check int) "one cache miss" 1 (c "engine.cache_misses");
  Alcotest.(check bool) "first run was cold" false r1.E.r_from_cache;
  Alcotest.(check bool) "second run was cached" true r2.E.r_from_cache;
  (* detector results are unaffected by caching *)
  Alcotest.(check int) "same diagnostics" (List.length r1.E.r_diags)
    (List.length r2.E.r_diags);
  (* a different source set is a fresh compile *)
  let _ = analyse engine clean in
  Alcotest.(check int) "second miss" 2 (E.counter_value engine "engine.cache_misses")

let test_cache_memoizes_errors () =
  let engine = Gcatch.Passes.engine () in
  let r1 = analyse engine parse_error_src in
  let r2 = analyse engine parse_error_src in
  (* the failing parse also runs exactly once; the memoized exception is
     re-rendered as the same diagnostic *)
  Alcotest.(check int) "one parse attempt" 1
    (E.counter_value engine "stage.parse.runs");
  Alcotest.(check int) "same message" 0
    (compare
       (List.map (fun (d : D.t) -> d.D.message) r1.E.r_diags)
       (List.map (fun (d : D.t) -> d.D.message) r2.E.r_diags))

let test_driver_shim_shares_compile () =
  (* the legacy Driver API rides the same engine machinery: two analyses
     through one engine compile once, detect twice *)
  let engine = E.create () in
  let a1 = Gcatch.Driver.analyse_with engine ~name:"d" [ fig1 ] in
  let a2 = Gcatch.Driver.analyse_with engine ~name:"d" [ fig1 ] in
  Alcotest.(check int) "one parse" 1
    (E.counter_value engine "stage.parse.runs");
  Alcotest.(check bool) "same compiled IR shared" true (a1.ir == a2.ir);
  Alcotest.(check int) "same findings" (List.length a1.bmoc)
    (List.length a2.bmoc)

(* ---- pass registry ---- *)

let test_pass_selection () =
  let engine = Gcatch.Passes.engine () in
  let r = analyse ~only:[ "trad.fatal-child" ] engine fig1 in
  Alcotest.(check int) "one pass ran" 1 (List.length r.E.r_passes);
  Alcotest.(check int) "bmoc not run, no diags" 0 (List.length r.E.r_diags);
  (* nonblocking is off by default and can be opted in *)
  let r2 = analyse ~extra:[ "nonblocking" ] engine fig1 in
  Alcotest.(check int) "seven passes with extra" 7 (List.length r2.E.r_passes)

let test_unknown_pass_rejected () =
  (* a typo'd pass name must not silently select zero passes and report
     the sources clean *)
  let engine = Gcatch.Passes.engine () in
  Alcotest.check_raises "unknown name in only"
    (Invalid_argument "Engine.analyse: unknown pass \"no-such-pass\"")
    (fun () -> ignore (analyse ~only:[ "no-such-pass" ] engine fig1));
  Alcotest.check_raises "unknown name in extra"
    (Invalid_argument "Engine.analyse: unknown pass \"no-such-pass\"")
    (fun () -> ignore (analyse ~extra:[ "no-such-pass" ] engine fig1))

let test_duplicate_pass_rejected () =
  let engine = Gcatch.Passes.engine () in
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Engine.register: duplicate pass bmoc") (fun () ->
      E.register engine (Gcatch.Passes.bmoc_pass ()))

(* ---- JSON rendering ---- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_json_output () =
  let engine = Gcatch.Passes.engine () in
  let r = analyse engine fig1 in
  let j = E.run_to_json r in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json contains " ^ needle) true
        (contains ~needle j))
    [
      {|"frontend_ok":true|};
      {|"pass":"bmoc"|};
      {|"severity":"error"|};
      {|"bmoc.solver_calls"|};
      {|"line":3|};
    ];
  let rerr = analyse engine parse_error_src in
  let jerr = E.run_to_json rerr in
  Alcotest.(check bool) "error run marked" true
    (contains ~needle:{|"frontend_ok":false|} jerr);
  Alcotest.(check bool) "frontend pass named" true
    (contains ~needle:{|"pass":"frontend/parse"|} jerr)

let test_json_escaping () =
  let d = D.v ~pass:"p" "quote \" backslash \\ newline \n tab \t" in
  let j = D.to_json d in
  Alcotest.(check bool) "escaped" true
    (contains ~needle:{|quote \" backslash \\ newline \n tab \t|} j)

(* ---- derived per-record state follows the artifact LRU ---- *)

(* The traditional checkers' primitive map (which holds a whole IR
   program) must go when the engine evicts its artifact record, not
   outlive it in a process-wide table. *)
let test_prims_follow_artifact_lru () =
  let max_entries = 4 and sets = 12 in
  let e = Gcatch.Passes.engine ~max_entries () in
  let maps = Weak.create sets in
  let analyse_set i =
    let src = Printf.sprintf "package p\nfunc F%d() {\n\tprintln(%d)\n}\n" i i in
    match (analyse e src).E.r_artifacts with
    | Some a -> Weak.set maps i (Some (Gcatch.Passes.prims_for a))
    | None -> Alcotest.fail "frontend failed"
  in
  for i = 0 to sets - 1 do
    analyse_set i
  done;
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to sets - 1 do
    if Weak.check maps i then incr live
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d primitive maps live, at most %d" !live sets
       max_entries)
    true (!live <= max_entries)

let tests =
  [
    Alcotest.test_case "parse error -> diagnostic" `Quick test_parse_error_diag;
    Alcotest.test_case "type error -> diagnostic" `Quick test_type_error_diag;
    Alcotest.test_case "clean run" `Quick test_clean_run;
    Alcotest.test_case "bug payload recovery" `Quick test_bug_diag_payload;
    Alcotest.test_case "cache hit on repeat" `Quick test_cache_hit_on_repeat;
    Alcotest.test_case "cache memoizes errors" `Quick test_cache_memoizes_errors;
    Alcotest.test_case "driver shim shares compile" `Quick
      test_driver_shim_shares_compile;
    Alcotest.test_case "pass selection" `Quick test_pass_selection;
    Alcotest.test_case "unknown pass rejected" `Quick
      test_unknown_pass_rejected;
    Alcotest.test_case "duplicate pass rejected" `Quick
      test_duplicate_pass_rejected;
    Alcotest.test_case "json output" `Quick test_json_output;
    Alcotest.test_case "json escaping" `Quick test_json_escaping;
    Alcotest.test_case "primitive maps follow the artifact LRU" `Quick
      test_prims_follow_artifact_lru;
  ]
