(* Crash-only gcatchd tests: a restarted server answers a one-file edit
   from the cache directory's entries with byte-identical diagnostics
   (even when some entries are gone), a solver-fault storm quarantines the engine and a background rebuild restores
   byte-correct service, the retrying client honours Retry-After against
   a saturated queue and rides out connection-level chaos, and the
   journal's fsync policy keeps events durable without a clean close. *)

module E = Goengine.Engine
module F = Goobs.Faults
module M = Goobs.Metrics
module T = Goobs.Telemetry
module J = Goobs.Journal
module Serve = Goserve.Serve
module Proto = Goserve.Proto

(* a leaking channel: one BMOC bug per copy *)
let leak name =
  Printf.sprintf
    "package p\nfunc %s() {\n\tch := make(chan int)\n\tgo func() {\n\t\tch \
     <- 1\n\t}()\n}\n"
    name

let clean = "package p\nfunc Clean() {\n\tprintln(1)\n}\n"
let clean_edited = "package p\nfunc Clean() {\n\tprintln(2)\n}\n"
let pv name = M.value (M.counter M.default name)

let body_of_sources sources =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"schema\":\"gcatch-serve/1\",\"name\":\"cli\",\"files\":[";
  List.iteri
    (fun i src ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"path\":\"f%d.go\",\"src\":\"%s\"}" i
           (M.json_escape src)))
    sources;
  Buffer.add_string b "]}";
  Buffer.contents b

let diag_bytes_of_response body =
  match Proto.member_raw "run" body with
  | None -> Alcotest.fail "response has no run member"
  | Some run -> (
      match Proto.member_raw "diagnostics" run with
      | None -> Alcotest.fail "run has no diagnostics member"
      | Some d -> d)

let local_diag_bytes ~jobs sources =
  let engine = Gcatch.Passes.engine ~jobs ~registry:(M.create ()) () in
  let r = E.analyse engine ~name:"cli" sources in
  match Proto.member_raw "diagnostics" (E.run_to_json r) with
  | Some d -> d
  | None -> Alcotest.fail "local run has no diagnostics member"

let with_server ?cfg f =
  let srv = Serve.create ?cfg () in
  match
    T.start ~addr:"127.0.0.1:0"
      ~post:(Serve.post_handlers srv)
      ~handlers:(Serve.handlers srv) ()
  with
  | Error e -> Alcotest.fail e
  | Ok server ->
      Fun.protect ~finally:(fun () -> T.stop server) (fun () -> f srv server)

let temp_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gcatch-crash-%d-%.0f" (Unix.getpid ())
         (Unix.gettimeofday () *. 1e6))
  in
  Unix.mkdir d 0o755;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun n -> try Sys.remove (Filename.concat dir n) with _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with _ -> ()
  end

let wait_for ?(timeout = 10.0) pred =
  let deadline = Unix.gettimeofday () +. timeout in
  while (not (pred ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  Alcotest.(check bool) "condition reached before timeout" true (pred ())

let set_plan s =
  match F.parse s with
  | Ok specs -> F.set_plan specs
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------ warm restart --- *)

(* gcatchd's configuration for a cache directory. *)
let cfg_at ?(cfg = Serve.default_cfg) dir =
  {
    cfg with
    Serve.s_detector = { Gcatch.Bmoc.default_config with cache_dir = Some dir };
  }

(* Counter deltas over [f]. *)
let deltas names f =
  let before = List.map pv names in
  let r = f () in
  (r, List.map2 (fun n b -> (n, pv n - b)) names before)

let entries dir suffix =
  List.filter
    (fun n -> Filename.check_suffix n suffix)
    (Array.to_list (Sys.readdir dir))

let edited = [ leak "Snap"; clean_edited ]

(* The edit posted after each restart: its status and diagnostics
   (byte-identical to [expect], a cold one-shot run on an engine of its
   own) are checked, and the deltas of [names] over the request are returned. *)
let post_edit ~expect server names =
  let (code, body), d =
    deltas names (fun () ->
        T.fetch_post server "/analyse" (body_of_sources edited))
  in
  Alcotest.(check int) "edit status" 200 code;
  Alcotest.(check string) "edit diagnostics byte-identical" expect
    (diag_bytes_of_response body);
  fun n -> List.assoc n d

(* Server A analyses a two-file program on a fresh cache directory. *)
let warm_up cfg =
  with_server ~cfg (fun _ server ->
      let code, _ =
        T.fetch_post server "/analyse" (body_of_sources [ leak "Snap"; clean ])
      in
      Alcotest.(check int) "warm-up status" 200 code)

(* A fresh server B on server A's cache directory (the restarted daemon)
   answers a one-file edit: only the edited file compiles, the unchanged
   file and its channel's verdict are read back from disk, and the
   diagnostics are byte-identical to a cold one-shot run.  No server
   leaves any state beside the cache entries. *)
let test_restart_reads_disk () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = cfg_at dir in
  let expect = local_diag_bytes ~jobs:1 edited in
  warm_up cfg;
  with_server ~cfg (fun _ server ->
      let d =
        post_edit ~expect server
          [
            "stage.typecheck.runs";
            "stage.lower.runs";
            "engine.file_disk_hit";
            "bmoc.solve_cache_disk_hit";
          ]
      in
      Alcotest.(check int) "one typecheck" 1 (d "stage.typecheck.runs");
      Alcotest.(check int) "one lower" 1 (d "stage.lower.runs");
      Alcotest.(check bool) "per-file disk read" true
        (d "engine.file_disk_hit" > 0);
      Alcotest.(check bool) "solve disk read" true
        (d "bmoc.solve_cache_disk_hit" > 0));
  Alcotest.(check int) "one lower entry per file version" 3
    (List.length (entries dir ".lower"));
  Alcotest.(check (list string)) "no snapshot written" [] (entries dir ".snap")

(* With server A's lowered entries deleted, the restarted server lowers
   both files again and answers the same bytes. *)
let test_restart_recomputes_deleted () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = cfg_at dir in
  let expect = local_diag_bytes ~jobs:1 edited in
  warm_up cfg;
  let lowered = entries dir ".lower" in
  Alcotest.(check int) "one lower entry per file" 2 (List.length lowered);
  List.iter (fun n -> Sys.remove (Filename.concat dir n)) lowered;
  with_server ~cfg (fun _ server ->
      let d = post_edit ~expect server [ "stage.lower.runs" ] in
      Alcotest.(check int) "both files lowered again" 2 (d "stage.lower.runs"))

(* --------------------------------------------------- quarantine rebuild --- *)

(* A solver-fault storm degrades consecutive runs; once the streak
   crosses --quarantine-degraded the engine is quarantined and rebuilt
   on a background thread without dropping the listener.  After the storm clears, the rebuilt engine must
   answer with byte-correct diagnostics. *)
let test_quarantine_rebuild_under_solver_storm () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = cfg_at ~cfg:{ Serve.default_cfg with Serve.s_quar_degraded = 2 } dir in
  with_server ~cfg (fun srv server ->
      let code, _ =
        T.fetch_post server "/analyse" (body_of_sources [ leak "Good" ])
      in
      Alcotest.(check int) "healthy warm-up" 200 code;
      let rebuilds0 = pv "serve.engine_rebuilds" in
      let quars0 = pv "serve.quarantines" in
      set_plan "solver:*!raise";
      Fun.protect ~finally:F.clear (fun () ->
          (* two consecutive degraded runs trip the streak *)
          List.iter
            (fun name ->
              let code, _ =
                T.fetch_post server "/analyse" (body_of_sources [ leak name ])
              in
              Alcotest.(check int) "degraded run still answers" 200 code)
            [ "StormA"; "StormB" ];
          wait_for (fun () -> pv "serve.engine_rebuilds" > rebuilds0));
      Alcotest.(check bool) "quarantine counted" true
        (pv "serve.quarantines" > quars0);
      wait_for (fun () -> not (Serve.quarantined srv));
      let sources = [ leak "AfterStorm"; clean ] in
      let expect = local_diag_bytes ~jobs:1 sources in
      let code, body =
        T.fetch_post server "/analyse" (body_of_sources sources)
      in
      Alcotest.(check int) "post-rebuild status" 200 code;
      Alcotest.(check string) "post-rebuild diagnostics" expect
        (diag_bytes_of_response body))

(* -------------------------------------- client retry vs saturated queue --- *)

(* With --max-queue 1 and a stalled leader in flight, the first attempt
   answers 429 + Retry-After; the retrying client must sleep it off and
   land a 200 once the leader drains. *)
let test_retry_honours_retry_after () =
  set_plan "solver:*!stall";
  Fun.protect ~finally:F.clear @@ fun () ->
  with_server
    ~cfg:{ Serve.default_cfg with Serve.s_max_queue = 1 }
    (fun srv server ->
      let slow = body_of_sources [ leak "Hog"; clean ] in
      let rq b = { T.rq_path = "/analyse"; rq_headers = []; rq_body = b } in
      let leader = ref (T.text "") in
      let th =
        Thread.create (fun () -> leader := Serve.handle_analyse srv (rq slow)) ()
      in
      let deadline = Unix.gettimeofday () +. 5.0 in
      while
        Atomic.get srv.Serve.depth = 0 && Unix.gettimeofday () < deadline
      do
        Thread.delay 0.002
      done;
      let rejected0 = pv "serve.rejected" in
      let sources = [ leak "Retrier" ] in
      let r =
        T.request_retry ~max_attempts:6 ~seed:11 (T.self_addr server)
          ~meth:"POST" ~path:"/analyse"
          ~body:(body_of_sources sources) ()
      in
      Thread.join th;
      Alcotest.(check int) "leader status" 200 !leader.T.status;
      (match r with
      | Error e -> Alcotest.fail ("retry client gave up: " ^ e)
      | Ok (code, body) ->
          Alcotest.(check int) "retried status" 200 code;
          Alcotest.(check string) "retried diagnostics"
            (local_diag_bytes ~jobs:1 sources)
            (diag_bytes_of_response body));
      Alcotest.(check bool) "a 429 was actually served" true
        (pv "serve.rejected" > rejected0))

(* ------------------------------------------------ connection-level chaos --- *)

(* First response truncated by a conn.write corrupt, second connection
   dropped at accept: the retrying client must detect both and land an
   intact, byte-identical third response.  A second retrying request
   then meets a connection dropped before its request is read (the
   third read), and must land the same bytes too.  The journal shows
   that each of the three faults fired. *)
let test_retry_through_connection_chaos () =
  let sources = [ leak "Chaos"; clean ] in
  let expect = local_diag_bytes ~jobs:1 sources in
  let jpath = Filename.temp_file "gcatch-chaos" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove jpath with _ -> ())
  @@ fun () ->
  with_server (fun _srv server ->
      set_plan
        "conn.write:1@/analyse!corrupt, conn.accept:2!raise, \
         conn.read:3!raise";
      J.open_ ~path:jpath;
      Fun.protect ~finally:(fun () ->
          F.clear ();
          J.close ())
      @@ fun () ->
      List.iter
        (fun seed ->
          match
            T.request_retry ~max_attempts:6 ~seed (T.self_addr server)
              ~meth:"POST" ~path:"/analyse"
              ~body:(body_of_sources sources) ()
          with
          | Error e -> Alcotest.fail ("retry client gave up: " ^ e)
          | Ok (code, body) ->
              Alcotest.(check int) "status after chaos" 200 code;
              Alcotest.(check string) "diagnostics intact after chaos" expect
                (diag_bytes_of_response body))
        [ 3; 4 ]);
  let fired =
    Hashtbl.find_opt (J.summarize_file jpath).J.s_by_event "fault.fired"
  in
  Alcotest.(check (option int)) "all three faults fired" (Some 3) fired

(* ------------------------------------------------- journal fsync policy --- *)

let test_journal_fsync_policy () =
  Alcotest.(check bool) "parse never" true
    (J.fsync_policy_of_string "never" = Some J.Fsync_never);
  Alcotest.(check bool) "parse close" true
    (J.fsync_policy_of_string "close" = Some J.Fsync_close);
  Alcotest.(check bool) "parse always" true
    (J.fsync_policy_of_string "always" = Some J.Fsync_always);
  Alcotest.(check bool) "parse bogus" true
    (J.fsync_policy_of_string "bogus" = None);
  let path = Filename.temp_file "gcatch-fsync" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      J.set_fsync J.Fsync_never;
      try Sys.remove path with _ -> ())
  @@ fun () ->
  J.set_fsync J.Fsync_always;
  J.open_ ~path;
  for i = 1 to 130 do
    J.emit ~event:"crash.test" [ ("i", J.I i) ]
  done;
  (* no close: read the file as a post-SIGKILL `gcatch report` would *)
  let sum = J.summarize_file path in
  Alcotest.(check bool) "events durable without close" true
    (sum.J.s_events > 0);
  Alcotest.(check bool) "valid prefix only" true (not sum.J.s_truncated);
  J.close ()

let tests =
  [
    Alcotest.test_case "restart reads the cache directory" `Quick
      test_restart_reads_disk;
    Alcotest.test_case "restart recomputes a deleted entry" `Quick
      test_restart_recomputes_deleted;
    Alcotest.test_case "quarantine rebuild under solver storm" `Quick
      test_quarantine_rebuild_under_solver_storm;
    Alcotest.test_case "retry honours Retry-After" `Quick
      test_retry_honours_retry_after;
    Alcotest.test_case "retry through connection chaos" `Quick
      test_retry_through_connection_chaos;
    Alcotest.test_case "journal fsync policy" `Quick test_journal_fsync_policy;
  ]
