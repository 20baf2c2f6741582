(* Supervision-layer tests (PR 5): deterministic fault injection, fault
   containment at every boundary (frontend file, detector pass, channel,
   checker function, cache access), the solver degradation ladder, and
   the deadline/heap watchdogs' orderly partial flush. *)

module E = Goengine.Engine
module D = Goengine.Diagnostics
module F = Goobs.Faults
module S = Goengine.Supervise
module M = Goobs.Metrics
module SC = Gcatch.Solve_cache

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

(* three independent buggy channels: enough roots for a real pool batch *)
let three_chans =
  "package p\nfunc ExecA" ^ fig1_body ^ "func ExecB" ^ fig1_body ^ "func ExecC"
  ^ fig1_body

let clean = "package p\nfunc main() {\n\tprintln(1)\n}\n"
let parse_error_src = "package p\nfunc main( {}\n"

let no_cache_cfg =
  { Gcatch.Bmoc.default_config with solve_cache = false; cache_dir = None }

let compile_ir src = Pipeline.compile_ir ~name:"faults-ir" [ src ]

let with_clean_faults f =
  Fun.protect
    ~finally:(fun () ->
      F.clear ();
      S.clear_deadline ();
      S.clear_max_heap ())
    f

let health snap k = S.health_get snap k
let diag_strs diags = List.map D.render_human diags

let fault_kinds (diags : D.t list) : S.kind list =
  List.filter_map
    (fun d -> Option.map (fun f -> f.S.fi_kind) (S.fault_of d))
    diags

(* ----------------------------------------------------- plan grammar --- *)

let test_plan_parse () =
  (match F.parse "solver" with
  | Ok [ sp ] ->
      Alcotest.(check string) "site" "solver" sp.F.s_site;
      Alcotest.(check bool) "first occurrence" true (sp.F.s_which = F.Nth 1);
      Alcotest.(check bool) "default action" true (sp.F.s_action = F.Raise)
  | _ -> Alcotest.fail "single site should parse");
  (match F.parse "frontend:3@file2!stall, cache.write:*!corrupt" with
  | Ok [ a; b ] ->
      Alcotest.(check bool) "nth" true (a.F.s_which = F.Nth 3);
      Alcotest.(check bool) "key" true (a.F.s_key = Some "file2");
      Alcotest.(check bool) "stall" true (a.F.s_action = F.Stall);
      Alcotest.(check bool) "every" true (b.F.s_which = F.Every);
      Alcotest.(check bool) "corrupt" true (b.F.s_action = F.Corrupt)
  | _ -> Alcotest.fail "two-item plan should parse");
  (* a seeded plan places the unpinned fault on a reproducible early
     occurrence *)
  (match (F.parse "seed=5,solver", F.parse "seed=5,solver") with
  | Ok [ a ], Ok [ b ] ->
      Alcotest.(check bool) "seeded nth reproducible" true
        (a.F.s_which = b.F.s_which);
      (match a.F.s_which with
      | F.Nth n -> Alcotest.(check bool) "seeded nth early" true (n >= 1 && n <= 4)
      | F.Every -> Alcotest.fail "seeded placement must be an Nth")
  | _ -> Alcotest.fail "seeded plan should parse");
  let bad s =
    match F.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (s ^ " should be rejected")
  in
  bad "bogus-site";
  bad "solver:0";
  bad "solver!explode";
  bad "seed=x,solver"

(* The seeded placement is a pure, stable function of (seed, site):
   string-keyed MD5, not a polymorphic hash that may drift across
   compiler versions.  These values are pinned — a change here breaks
   every recorded fault-plan reproduction, so it must be deliberate
   and come with a format-version note. *)
let test_seeded_nth_pinned () =
  let pin seed site expect =
    Alcotest.(check int)
      (Printf.sprintf "seeded_nth %d %s" seed site)
      expect (F.seeded_nth seed site)
  in
  pin 5 "solver" 2;
  pin 5 "frontend" 1;
  pin 7 "solver" 3;
  pin 42 "pool" 3;
  pin 1 "cache.read" 2;
  pin 123 "conn.write" 2;
  pin 0 "snapshot.read" 3;
  match F.parse "seed=5,solver" with
  | Ok [ sp ] ->
      Alcotest.(check bool) "parse uses the pinned placement" true
        (sp.F.s_which = F.Nth 2)
  | _ -> Alcotest.fail "seeded plan should parse"

let test_fire_counts () =
  with_clean_faults (fun () ->
      (match F.parse "solver:2" with
      | Ok specs -> F.set_plan specs
      | Error e -> Alcotest.fail e);
      Alcotest.(check bool) "1st trigger clean" true
        (F.fire ~site:"solver" ~key:"a" () = None);
      Alcotest.(check bool) "2nd trigger fires" true
        (F.fire ~site:"solver" ~key:"b" () = Some F.Raise);
      Alcotest.(check bool) "3rd trigger clean" true
        (F.fire ~site:"solver" ~key:"c" () = None);
      Alcotest.(check bool) "other sites never fire" true
        (F.fire ~site:"pool" () = None))

(* ------------------------------------------------- frontend salvage --- *)

(* A broken sibling file must not take down the rest of the source set:
   the failing file degrades to its frontend diagnostic plus a salvage
   note, and every other file's diagnostics are intact. *)
let test_parse_failure_spares_siblings () =
  let engine = Gcatch.Passes.engine () in
  let r = E.analyse engine ~name:"salvage" [ fig1; parse_error_src ] in
  Alcotest.(check bool) "frontend survived" false (E.frontend_failed r);
  let bugs = Gcatch.Passes.bmoc_bugs r.E.r_diags in
  Alcotest.(check int) "sibling's BMOC bug intact" 1 (List.length bugs);
  Alcotest.(check bool) "parse diagnostic present" true
    (List.exists (fun (d : D.t) -> d.D.pass = "frontend/parse") r.E.r_diags);
  Alcotest.(check bool) "salvage note present" true
    (List.mem S.Degraded (fault_kinds r.E.r_diags));
  Alcotest.(check int) "one degraded unit" 1
    (health r.E.r_health S.h_degraded);
  (* the single-file failure path is untouched: still exactly one
     diagnostic and no passes *)
  let r1 = E.analyse engine ~name:"salvage1" [ parse_error_src ] in
  Alcotest.(check bool) "single file still fails" true (E.frontend_failed r1);
  Alcotest.(check int) "single diagnostic" 1 (List.length r1.E.r_diags);
  Alcotest.(check bool) "no passes ran" true (r1.E.r_passes = [])

let test_injected_frontend_fault_spares_siblings () =
  with_clean_faults (fun () ->
      (match F.parse "frontend@file1" with
      | Ok specs -> F.set_plan specs
      | Error e -> Alcotest.fail e);
      let engine = Gcatch.Passes.engine () in
      let r = E.analyse engine ~name:"inj" [ fig1; clean ] in
      Alcotest.(check bool) "frontend survived" false (E.frontend_failed r);
      Alcotest.(check bool) "fault diagnostic present" true
        (List.exists (fun (d : D.t) -> d.D.pass = "frontend/fault") r.E.r_diags);
      Alcotest.(check int) "sibling's BMOC bug intact" 1
        (List.length (Gcatch.Passes.bmoc_bugs r.E.r_diags));
      Alcotest.(check int) "one degraded unit" 1
        (health r.E.r_health S.h_degraded))

(* ------------------------------------------------ solver containment --- *)

let test_solver_crash_contained_jobs () =
  with_clean_faults (fun () ->
      (* pick a concrete channel from a clean run, then fault it by key:
         key selection is schedule-independent, so jobs=1 and jobs=4 must
         agree byte for byte *)
      let clean_r =
        Gcatch.Bmoc.detect_full ~cfg:no_cache_cfg (compile_ir three_chans)
      in
      Alcotest.(check int) "three clean bugs" 3
        (List.length clean_r.Gcatch.Bmoc.f_bugs);
      let objs =
        List.map
          (fun (b : Gcatch.Report.bmoc_bug) ->
            Goanalysis.Alias.obj_str b.Gcatch.Report.channel)
          clean_r.Gcatch.Bmoc.f_bugs
      in
      (* the longest obj_str cannot be a substring of any other, so the
         key selector hits exactly one channel *)
      let target =
        List.fold_left
          (fun a b -> if String.length b > String.length a then b else a)
          (List.hd objs) objs
      in
      let plan = Printf.sprintf "solver:*@%s!raise" target in
      let run jobs =
        (match F.parse plan with
        | Ok specs -> F.set_plan specs
        | Error e -> Alcotest.fail e);
        let engine =
          Gcatch.Passes.engine ~cfg:no_cache_cfg ~jobs ()
        in
        E.analyse ~only:[ "bmoc" ] engine ~name:"solver-crash"
          [ three_chans ]
      in
      let r1 = run 1 in
      let r4 = run 4 in
      Alcotest.(check (list string))
        "jobs 1 and 4 byte-identical diagnostics"
        (diag_strs r1.E.r_diags) (diag_strs r4.E.r_diags);
      Alcotest.(check bool) "same health ledger" true
        (r1.E.r_health = r4.E.r_health);
      Alcotest.(check int) "other channels' bugs intact" 2
        (List.length (Gcatch.Passes.bmoc_bugs r1.E.r_diags));
      Alcotest.(check bool) "degraded diagnostic present" true
        (List.mem S.Degraded (fault_kinds r1.E.r_diags));
      Alcotest.(check int) "one degraded unit" 1
        (health r1.E.r_health S.h_degraded))

(* a worker crash in the pool is contained at the pass boundary: the
   other passes still report, the run completes *)
let test_pool_crash_contained () =
  with_clean_faults (fun () ->
      (match F.parse "pool" with
      | Ok specs -> F.set_plan specs
      | Error e -> Alcotest.fail e);
      let engine = Gcatch.Passes.engine ~cfg:no_cache_cfg ~jobs:4 () in
      let r = E.analyse engine ~name:"pool-crash" [ three_chans ] in
      Alcotest.(check int) "all passes reported" 6 (List.length r.E.r_passes);
      Alcotest.(check bool) "internal-error diagnostic present" true
        (List.mem S.Internal_error (fault_kinds r.E.r_diags)
        || (* jobs may be clamped to 1 on a single-core runner, where the
              pool site never triggers and the run is simply clean *)
        Goengine.Pool.recommended_jobs () = 1))

(* --------------------------------------------------- retry ladder ----- *)

let test_retry_ladder_recovers () =
  with_clean_faults (fun () ->
      (* first solve attempt times out (injected), the rung-1 retry at
         reduced bounds succeeds: the verdict is recovered instead of
         skipped *)
      (match F.parse "solver:1!timeout" with
      | Ok specs -> F.set_plan specs
      | Error e -> Alcotest.fail e);
      let cfg =
        {
          no_cache_cfg with
          retry_rungs = 2;
          path_cfg =
            {
              Gcatch.Pathenum.default_config with
              solver_timeout_ms = Some 60_000;
            };
        }
      in
      let reg = M.create () in
      let r = Gcatch.Bmoc.detect_full ~cfg ~metrics:reg (compile_ir fig1) in
      Alcotest.(check int) "bug recovered at reduced bounds" 1
        (List.length r.Gcatch.Bmoc.f_bugs);
      Alcotest.(check int) "nothing skipped" 0
        (List.length r.Gcatch.Bmoc.f_skipped);
      (match r.Gcatch.Bmoc.f_notes with
      | [ { Gcatch.Bmoc.cn_note = `Recovered 1; _ } ] -> ()
      | _ -> Alcotest.fail "expected exactly one rung-1 recovery note");
      Alcotest.(check int) "one retried unit" 1
        (health (M.counters_list reg) S.h_retried))

let test_ladder_exhaustion_still_skips () =
  with_clean_faults (fun () ->
      (* every attempt times out: the ladder runs out of rungs and the
         channel is skipped exactly as before the ladder existed *)
      (match F.parse "solver:*!timeout" with
      | Ok specs -> F.set_plan specs
      | Error e -> Alcotest.fail e);
      let cfg =
        {
          no_cache_cfg with
          retry_rungs = 2;
          path_cfg =
            {
              Gcatch.Pathenum.default_config with
              solver_timeout_ms = Some 60_000;
            };
        }
      in
      let reg = M.create () in
      let r = Gcatch.Bmoc.detect_full ~cfg ~metrics:reg (compile_ir fig1) in
      Alcotest.(check int) "no bugs" 0 (List.length r.Gcatch.Bmoc.f_bugs);
      Alcotest.(check int) "channel skipped" 1
        (List.length r.Gcatch.Bmoc.f_skipped);
      Alcotest.(check int) "skip counted" 1
        (health (M.counters_list reg) S.h_skipped);
      Alcotest.(check int) "retry counted" 1
        (health (M.counters_list reg) S.h_retried))

(* ------------------------------------------------------- watchdogs ---- *)

let check_pressure_flush label r =
  Alcotest.(check bool) (label ^ ": frontend ok") false (E.frontend_failed r);
  Alcotest.(check int) (label ^ ": all passes reported") 6
    (List.length r.E.r_passes);
  List.iter
    (fun (pr : E.pass_run) ->
      match fault_kinds pr.E.pr_diags with
      | [ S.Skipped ] -> ()
      | _ -> Alcotest.fail (label ^ ": pass " ^ pr.E.pr_pass ^ " not skipped"))
    r.E.r_passes;
  Alcotest.(check int) (label ^ ": six skipped units") 6
    (health r.E.r_health S.h_skipped);
  Alcotest.(check bool) (label ^ ": not an error") true (E.errors r = [])

let test_deadline_flushes_partial () =
  with_clean_faults (fun () ->
      S.set_deadline_ms 0;
      (* the deadline is "now": no pass may start, yet the run flushes an
         orderly result — frontend artifacts, six skip diagnostics, and a
         health ledger — identically every time *)
      let engine = Gcatch.Passes.engine () in
      let r1 = E.analyse engine ~name:"deadline" [ fig1 ] in
      let r2 = E.analyse engine ~name:"deadline" [ fig1 ] in
      check_pressure_flush "deadline" r1;
      Alcotest.(check (list string))
        "deterministic flush"
        (diag_strs r1.E.r_diags) (diag_strs r2.E.r_diags);
      S.clear_deadline ();
      let r3 = E.analyse engine ~name:"deadline" [ fig1 ] in
      Alcotest.(check bool) "cleared deadline runs passes" true
        (Gcatch.Passes.bmoc_bugs r3.E.r_diags <> []))

let test_heap_watchdog_flushes_partial () =
  with_clean_faults (fun () ->
      (* a 0 MB ceiling is exceeded by construction, so the latch trips
         at arming time: deterministic, no dependence on GC timing *)
      S.set_max_heap_mb 0;
      let engine = Gcatch.Passes.engine () in
      let r = E.analyse engine ~name:"heap" [ fig1 ] in
      check_pressure_flush "heap" r;
      S.clear_max_heap ();
      Alcotest.(check bool) "latch cleared" true (S.pressure () = None))

(* -------------------------------------------------- cache hardening --- *)

let count_warnings ~needle f =
  let hits = ref 0 in
  Goobs.Log.set_sink (fun line ->
      let nl = String.length needle and ll = String.length line in
      let rec find i =
        i + nl <= ll && (String.sub line i nl = needle || find (i + 1))
      in
      if nl > 0 && find 0 then incr hits);
  Fun.protect ~finally:Goobs.Log.reset_sink f;
  !hits

let test_vanished_cache_dir_degrades_once () =
  with_clean_faults (fun () ->
      SC.reset_memory ();
      (* a cache dir whose parent is gone cannot be recreated: the
         frontend, pass and solve tiers share it, and it must retire with
         ONE warning, not one per entry or per tier *)
      let dir =
        Filename.concat
          (Filename.concat (Filename.get_temp_dir_name ())
             (Printf.sprintf "gcatch-vanished-%d" (Unix.getpid ())))
          "cache"
      in
      let cfg = { Gcatch.Bmoc.default_config with cache_dir = Some dir } in
      let warnings =
        count_warnings ~needle:"directory unavailable" (fun () ->
            let r =
              E.analyse (Gcatch.Passes.engine ~cfg ()) ~name:"vanished"
                [ three_chans ]
            in
            Alcotest.(check int) "verdicts unaffected" 3
              (List.length (Gcatch.Passes.bmoc_bugs r.E.r_diags)))
      in
      Alcotest.(check int) "exactly one warning" 1 warnings;
      SC.reset_memory ())

let test_cache_fault_injection_is_besteffort () =
  with_clean_faults (fun () ->
      let counter name =
        Option.value
          (List.assoc_opt name (M.counters_list M.default))
          ~default:0
      in
      let dir =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "gcatch-faulty-cache-%d" (Unix.getpid ()))
      in
      Fun.protect
        ~finally:(fun () ->
          if Sys.file_exists dir then begin
            Array.iter
              (fun f ->
                try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
              (Sys.readdir dir);
            try Unix.rmdir dir with Unix.Unix_error _ -> ()
          end;
          SC.reset_memory ())
        (fun () ->
          let cfg = { Gcatch.Bmoc.default_config with cache_dir = Some dir } in
          let ir = compile_ir fig1 in
          (* every store faults: analysis is unaffected, errors counted,
             nothing written *)
          SC.reset_memory ();
          (match F.parse "cache.write:*!raise" with
          | Ok specs -> F.set_plan specs
          | Error e -> Alcotest.fail e);
          let w0 = counter "store.write_error" in
          let a = Gcatch.Bmoc.detect_full ~cfg ir in
          Alcotest.(check int) "verdict unaffected by write faults" 1
            (List.length a.Gcatch.Bmoc.f_bugs);
          Alcotest.(check bool) "write errors counted" true
            (counter "store.write_error" > w0);
          (* now let stores succeed, then fault every read: entries are
             recomputed, errors counted, verdicts identical *)
          F.clear ();
          SC.reset_memory ();
          let b = Gcatch.Bmoc.detect_full ~cfg ir in
          (match F.parse "cache.read:*!raise" with
          | Ok specs -> F.set_plan specs
          | Error e -> Alcotest.fail e);
          SC.reset_memory ();
          let r0 = counter "store.read_error" in
          let c = Gcatch.Bmoc.detect_full ~cfg ir in
          Alcotest.(check bool) "read errors counted" true
            (counter "store.read_error" > r0);
          Alcotest.(check (list string))
            "verdicts identical under cache faults"
            (List.map Gcatch.Report.bmoc_str b.Gcatch.Bmoc.f_bugs)
            (List.map Gcatch.Report.bmoc_str c.Gcatch.Bmoc.f_bugs)))

(* A pass result counts as stored only once it is on disk: with the
   cache directory replaced by a regular file, every store fails, is
   counted as a write error, and leaves the store counter alone. *)
let test_pass_cache_counts_only_written_stores () =
  with_clean_faults (fun () ->
      let counter name =
        Option.value
          (List.assoc_opt name (M.counters_list M.default))
          ~default:0
      in
      let dir =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "gcatch-pass-store-%d" (Unix.getpid ()))
      in
      let remove () =
        if Sys.file_exists dir then
          if Sys.is_directory dir then begin
            Array.iter
              (fun f -> Sys.remove (Filename.concat dir f))
              (Sys.readdir dir);
            Unix.rmdir dir
          end
          else Sys.remove dir
      in
      remove ();
      Fun.protect ~finally:remove (fun () ->
          let cfg = { Gcatch.Bmoc.default_config with cache_dir = Some dir } in
          let engine = Gcatch.Passes.engine ~cfg () in
          let r1 = E.analyse engine ~name:"pass-store" [ fig1 ] in
          let stores = E.counter_value engine "engine.pass_cache_store" in
          Alcotest.(check bool) "cold run stored pass results" true
            (stores > 0);
          remove ();
          let oc = open_out_bin dir in
          output_string oc "not a directory";
          close_out oc;
          let w0 = counter "store.write_error" in
          let warnings =
            count_warnings ~needle:"directory unavailable" (fun () ->
                let r2 = E.analyse engine ~name:"pass-store" [ fig1 ] in
                Alcotest.(check (list string))
                  "verdicts unaffected" (diag_strs r1.E.r_diags)
                  (diag_strs r2.E.r_diags))
          in
          Alcotest.(check int) "failed stores not counted" stores
            (E.counter_value engine "engine.pass_cache_store");
          Alcotest.(check bool) "write errors counted" true
            (counter "store.write_error" > w0);
          Alcotest.(check int) "one warning" 1 warnings))

(* ------------------------------------------------- clean-path parity --- *)

let test_clean_path_unchanged () =
  (* with no plan armed and no watchdogs, the supervision layer must not
     change a byte of the diagnostics, at jobs=1 and jobs=4 alike *)
  with_clean_faults (fun () ->
      let run jobs =
        let engine = Gcatch.Passes.engine ~cfg:no_cache_cfg ~jobs () in
        E.analyse engine ~name:"parity" [ three_chans ]
      in
      let r1 = run 1 in
      let r4 = run 4 in
      Alcotest.(check (list string))
        "jobs parity" (diag_strs r1.E.r_diags) (diag_strs r4.E.r_diags);
      Alcotest.(check int) "no degraded units" 0
        (health r1.E.r_health S.h_degraded);
      Alcotest.(check int) "no skipped units" 0
        (health r1.E.r_health S.h_skipped);
      Alcotest.(check bool) "attempted = ok" true
        (health r1.E.r_health S.h_attempted = health r1.E.r_health S.h_ok))

let tests =
  [
    Alcotest.test_case "fault-plan grammar" `Quick test_plan_parse;
    Alcotest.test_case "seeded placement pinned values" `Quick
      test_seeded_nth_pinned;
    Alcotest.test_case "nth-trigger firing" `Quick test_fire_counts;
    Alcotest.test_case "parse failure spares siblings" `Quick
      test_parse_failure_spares_siblings;
    Alcotest.test_case "injected frontend fault spares siblings" `Quick
      test_injected_frontend_fault_spares_siblings;
    Alcotest.test_case "solver crash contained, jobs 1 = jobs 4" `Quick
      test_solver_crash_contained_jobs;
    Alcotest.test_case "pool crash contained at pass boundary" `Quick
      test_pool_crash_contained;
    Alcotest.test_case "retry ladder recovers a channel" `Quick
      test_retry_ladder_recovers;
    Alcotest.test_case "ladder exhaustion still skips" `Quick
      test_ladder_exhaustion_still_skips;
    Alcotest.test_case "deadline flushes partial results" `Quick
      test_deadline_flushes_partial;
    Alcotest.test_case "heap watchdog flushes partial results" `Quick
      test_heap_watchdog_flushes_partial;
    Alcotest.test_case "vanished cache dir degrades once" `Quick
      test_vanished_cache_dir_degrades_once;
    Alcotest.test_case "cache faults are best-effort" `Quick
      test_cache_fault_injection_is_besteffort;
    Alcotest.test_case "clean path byte-identical" `Quick
      test_clean_path_unchanged;
    Alcotest.test_case "pass cache counts only written stores" `Quick
      test_pass_cache_counts_only_written_stores;
  ]
