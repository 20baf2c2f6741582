(* Parallel incremental frontend tests (PR 7): a one-file edit
   recompiles exactly one file, AST interning round-trips, diagnostics
   are byte-identical at any job count, per-file artifacts survive a
   process restart through the disk tier, and a per-file frontend fault
   only recompiles the stubbed file on the salvage retry. *)

module E = Goengine.Engine
module D = Goengine.Diagnostics
module F = Goobs.Faults
module P = Goengine.Pool

let fig1_body =
  "(ctx context.Context, r string) (string, error) {\n\
   \toutDone := make(chan error)\n\
   \tgo func(a string) {\n\t\toutDone <- nil\n\t}(r)\n\
   \tselect {\n\
   \tcase err := <-outDone:\n\t\tif err != nil {\n\t\t\treturn \"\", err\n\t\t}\n\
   \tcase <-ctx.Done():\n\t\treturn \"\", ctx.Err()\n\
   \t}\n\
   \treturn \"ok\", nil\n\
   }\n"

let fig1 = "package p\nfunc Exec" ^ fig1_body
let helper1 = "package p\nfunc helperOne() {\n\tprintln(1)\n}\n"
let helper2 = "package p\nfunc helperTwo() {\n\tprintln(2)\n}\n"
let srcs = [ fig1; helper1; helper2 ]
let diags_json (r : E.run) = D.list_to_json r.E.r_diags
let counter = E.counter_value

let with_clean_faults f = Fun.protect ~finally:F.clear f

(* ------------------------------------------- per-file invalidation --- *)

(* Appending a trailing comment to one file must recompile that file and
   nothing else: every per-file stage counter moves by exactly one, the
   siblings are served from the memory tier, and (because the edit is
   semantically inert) the diagnostics do not change. *)
let test_one_file_edit_recompiles_one_file () =
  let e = Gcatch.Passes.engine () in
  let r1 = E.analyse e ~name:"incr" srcs in
  Alcotest.(check int) "cold: one lex per file" 3 (counter e "stage.lex.runs");
  Alcotest.(check int) "cold: one parse per file" 3
    (counter e "stage.parse.runs");
  Alcotest.(check int) "cold: one typecheck per file" 3
    (counter e "stage.typecheck.runs");
  Alcotest.(check int) "cold: one lower per file" 3
    (counter e "stage.lower.runs");
  let edited = [ fig1; helper1; helper2 ^ "// trailing edit\n" ] in
  let r2 = E.analyse e ~name:"incr" edited in
  Alcotest.(check int) "warm: exactly one re-lex" 4 (counter e "stage.lex.runs");
  Alcotest.(check int) "warm: exactly one re-parse" 4
    (counter e "stage.parse.runs");
  Alcotest.(check int) "warm: exactly one re-typecheck" 4
    (counter e "stage.typecheck.runs");
  Alcotest.(check int) "warm: exactly one re-lower" 4
    (counter e "stage.lower.runs");
  Alcotest.(check bool) "siblings hit the memory tier" true
    (counter e "engine.file_mem_hit" > 0);
  Alcotest.(check string) "comment edit keeps diagnostics byte-identical"
    (diags_json r1) (diags_json r2)

(* A signature edit invalidates the typed/lowered tiers of every file
   (the environment fingerprint changed) but still re-parses only the
   edited file. *)
let test_signature_edit_reparses_one_file () =
  let e = Gcatch.Passes.engine () in
  let _ = E.analyse e ~name:"sig" srcs in
  let edited =
    [ fig1; helper1; "package p\nfunc helperTwo(x int) {\n\tprintln(x)\n}\n" ]
  in
  let _ = E.analyse e ~name:"sig" edited in
  Alcotest.(check int) "one re-parse" 4 (counter e "stage.parse.runs");
  Alcotest.(check int) "all files re-typechecked" 6
    (counter e "stage.typecheck.runs")

(* parsing has its own wall span apart from the signature stage, so the
   --profile frontend section reports it; a warm rerun parses nothing
   and adds no span *)
let test_profile_reports_parse () =
  let module M = Goobs.Metrics in
  let reg = M.create () in
  let e = Gcatch.Passes.engine ~registry:reg () in
  let _ = E.analyse e ~name:"prof" srcs in
  let spans () = M.h_count (M.histogram reg "stage.parse.ms") in
  Alcotest.(check int) "one parse span" 1 (spans ());
  let report = E.frontend_report e in
  let has needle =
    let n = String.length needle and h = String.length report in
    let rec go i = i + n <= h && (String.sub report i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "parse line printed" true (has "  stage parse ");
  let _ = E.analyse e ~name:"prof" srcs in
  Alcotest.(check int) "warm rerun: no parse span" 1 (spans ());
  Alcotest.(check int) "one parse per file" 3 (counter e "stage.parse.runs")

let test_signature_fingerprint () =
  let fp srcs =
    Minigo.Typecheck.signature_fingerprint
      (Minigo.Parser.parse_program ~name:"fp" srcs)
  in
  let base = fp [ helper1 ] in
  Alcotest.(check string) "body edit keeps the fingerprint" base
    (fp [ "package p\nfunc helperOne() {\n\tprintln(42)\n}\n" ]);
  Alcotest.(check bool) "signature edit changes the fingerprint" true
    (base <> fp [ "package p\nfunc helperOne(x int) {\n\tprintln(x)\n}\n" ])

(* ---------------------------------------------------------- intern --- *)

(* Interning must be a semantic no-op: the rebuilt AST is structurally
   equal and pretty-prints byte-identically, while equal atoms from
   different physical buffers collapse to one pooled instance. *)
let test_intern_round_trip () =
  let prog = Minigo.Parser.parse_program ~name:"intern" srcs in
  let interned = Minigo.Intern.program prog in
  Alcotest.(check bool) "structurally equal" true (interned = prog);
  Alcotest.(check string) "pretty-prints identically"
    (Minigo.Pretty.program_str prog)
    (Minigo.Pretty.program_str interned);
  let a = Minigo.Intern.str (String.concat "" [ "out"; "Done" ]) in
  let b = Minigo.Intern.str (String.concat "" [ "outD"; "one" ]) in
  Alcotest.(check bool) "equal strings share one pooled instance" true (a == b);
  let st = Minigo.Intern.stats () in
  Alcotest.(check bool) "pool has entries" true (st.Minigo.Intern.st_strings > 0);
  Alcotest.(check bool) "pool served hits" true (st.Minigo.Intern.st_hits > 0)

(* ------------------------------------------------ jobs determinism --- *)

let test_jobs_identical_diagnostics () =
  let run jobs =
    diags_json (E.analyse (Gcatch.Passes.engine ~jobs ()) ~name:"par" srcs)
  in
  Alcotest.(check string) "jobs=1 and jobs=4 byte-identical" (run 1) (run 4)

(* [Pool.map ?grain] must keep input order and raise the
   smallest-failing-index exception regardless of chunking. *)
let test_pool_map_grain () =
  let pool = P.get ~jobs:4 in
  let xs = List.init 37 Fun.id in
  Alcotest.(check (list int)) "order preserved under chunking"
    (List.map succ xs)
    (P.map ~pool ~grain:5 succ xs);
  match
    P.map ~pool ~grain:4
      (fun i -> if i mod 7 = 3 then failwith (string_of_int i) else i)
      xs
  with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure m ->
      Alcotest.(check string) "smallest failing index wins" "3" m

(* ------------------------------------------------------- disk tier --- *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

(* A fresh engine (fresh process in real life) pointed at the same
   --cache-dir re-reads sibling artifacts from disk: a one-file edit
   costs one lex/parse/typecheck even with empty memory tiers, and the
   diagnostics match the cold run byte for byte. *)
let test_disk_cache_warm_restart () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gcatch-fe-test-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = { Gcatch.Bmoc.default_config with cache_dir = Some dir } in
  let r1 = E.analyse (Gcatch.Passes.engine ~cfg ()) ~name:"disk" srcs in
  Alcotest.(check bool) "cold run left artifacts on disk" true
    (Array.exists
       (fun f -> Filename.check_suffix f ".lower")
       (Sys.readdir dir));
  let e2 = Gcatch.Passes.engine ~cfg () in
  let edited = [ fig1; helper1; helper2 ^ "// trailing edit\n" ] in
  let r2 = E.analyse e2 ~name:"disk" edited in
  Alcotest.(check int) "restart + edit: one lex" 1 (counter e2 "stage.lex.runs");
  Alcotest.(check int) "restart + edit: one parse" 1
    (counter e2 "stage.parse.runs");
  Alcotest.(check int) "restart + edit: one typecheck" 1
    (counter e2 "stage.typecheck.runs");
  Alcotest.(check bool) "siblings came from disk" true
    (counter e2 "engine.file_disk_hit" > 0);
  Alcotest.(check string) "diagnostics byte-identical across restart"
    (diags_json r1) (diags_json r2)

(* --------------------------------------------- per-file fault salvage --- *)

(* An injected fault in one file's frontend unit degrades that file and
   spares its siblings — and the salvage retry recompiles only the
   stubbed file, serving the siblings from the per-file memory tier. *)
let test_frontend_fault_salvages_per_file () =
  with_clean_faults @@ fun () ->
  (match F.parse "frontend@file1!raise" with
  | Ok specs -> F.set_plan specs
  | Error e -> Alcotest.fail e);
  let e = Gcatch.Passes.engine () in
  let r = E.analyse e ~name:"inj" [ fig1; helper1 ] in
  Alcotest.(check bool) "frontend survived" false (E.frontend_failed r);
  Alcotest.(check bool) "fault diagnostic present" true
    (List.exists (fun (d : D.t) -> d.D.pass = "frontend/fault") r.E.r_diags);
  Alcotest.(check int) "sibling's BMOC bug intact" 1
    (List.length (Gcatch.Passes.bmoc_bugs r.E.r_diags));
  (* attempt 1 lexes file0 and faults in file1; the retry recomputes
     only the stub, so each per-file counter moves three times total *)
  Alcotest.(check int) "lex ran per file, once more for the stub" 3
    (counter e "stage.lex.runs");
  Alcotest.(check int) "parse ran per file, once more for the stub" 3
    (counter e "stage.parse.runs");
  Alcotest.(check bool) "sibling served from the memory tier" true
    (counter e "engine.file_mem_hit" > 0)

let tests =
  [
    Alcotest.test_case "one-file edit recompiles one file" `Quick
      test_one_file_edit_recompiles_one_file;
    Alcotest.test_case "signature edit re-parses one file" `Quick
      test_signature_edit_reparses_one_file;
    Alcotest.test_case "profile reports parse" `Quick
      test_profile_reports_parse;
    Alcotest.test_case "signature fingerprint" `Quick
      test_signature_fingerprint;
    Alcotest.test_case "intern round-trip" `Quick test_intern_round_trip;
    Alcotest.test_case "jobs-identical diagnostics" `Quick
      test_jobs_identical_diagnostics;
    Alcotest.test_case "pool map grain" `Quick test_pool_map_grain;
    Alcotest.test_case "disk cache warm restart" `Quick
      test_disk_cache_warm_restart;
    Alcotest.test_case "frontend fault salvages per file" `Quick
      test_frontend_fault_salvages_per_file;
  ]
