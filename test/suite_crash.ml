(* Crash-only gcatchd tests: the warm-state manifest lets a restarted
   server answer a one-file edit from preloaded memos with byte-identical
   diagnostics (even when an entry it names is gone), corrupt or
   mismatched manifests fall back to a clean cold start, a solver-fault
   storm quarantines the engine and a background rebuild restores
   byte-correct service, the retrying client honours Retry-After against
   a saturated queue and rides out connection-level chaos, and the
   journal's fsync policy keeps events durable without a clean close. *)

module E = Goengine.Engine
module F = Goengine.Faults
module M = Goobs.Metrics
module T = Goobs.Telemetry
module J = Goobs.Journal
module Serve = Goserve.Serve
module Snapshot = Goserve.Snapshot
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
      Fun.protect
        ~finally:(fun () ->
          T.stop server;
          Gcatch.Solve_cache.set_memory_budget_mb 0)
        (fun () -> f srv server)

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

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let set_plan s =
  match F.parse s with
  | Ok specs -> F.set_plan specs
  | Error e -> Alcotest.fail e

(* ------------------------------------------- manifest warm restart --- *)

(* gcatchd's configuration for a cache directory: the detector's
   --cache-dir is also where the warm-state manifest lives. *)
let cfg_at ?(cfg = Serve.default_cfg) dir =
  {
    cfg with
    Serve.s_detector = { Gcatch.Bmoc.default_config with cache_dir = Some dir };
  }

(* simulate process death: the solve cache's memory tier is global
   state that would die with the process *)
let restart () = Gcatch.Solve_cache.reset_memory ()

(* Counter deltas over [f]. *)
let deltas names f =
  let before = List.map pv names in
  let r = f () in
  (r, List.map2 (fun n b -> (n, pv n - b)) names before)

(* Server A analyses a two-file program; its request leaves the
   manifest.  A fresh server B on the same cache directory (the
   restarted daemon) preloads it and answers a one-file edit: only the
   edited file compiles, nothing is read from disk during the request,
   and the diagnostics are byte-identical to a cold one-shot run. *)
let test_manifest_restart () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = cfg_at dir in
  let sources = [ leak "Snap"; clean ] in
  let edited = [ leak "Snap"; clean_edited ] in
  let expect = local_diag_bytes ~jobs:1 edited in
  restart ();
  with_server ~cfg (fun _ server ->
      let code, _ = T.fetch_post server "/analyse" (body_of_sources sources) in
      Alcotest.(check int) "warm-up status" 200 code);
  Alcotest.(check bool) "request left a valid manifest" true
    (Snapshot.check ~dir = Snapshot.Valid);
  restart ();
  with_server ~cfg (fun srv server ->
      let loads0 = pv "serve.snapshot_loads" in
      Alcotest.(check bool) "manifest preloaded" true (Serve.preload srv);
      Alcotest.(check int) "load counted" 1 (pv "serve.snapshot_loads" - loads0);
      let (code, body), d =
        deltas
          [
            "stage.typecheck.runs";
            "stage.lower.runs";
            "engine.file_disk_hit";
            "bmoc.solve_cache_disk_hit";
            "engine.file_mem_hit";
            "bmoc.solve_cache_hit";
          ]
          (fun () -> T.fetch_post server "/analyse" (body_of_sources edited))
      in
      let d n = List.assoc n d in
      Alcotest.(check int) "edit status" 200 code;
      Alcotest.(check int) "one typecheck" 1 (d "stage.typecheck.runs");
      Alcotest.(check int) "one lower" 1 (d "stage.lower.runs");
      Alcotest.(check int) "no per-file disk read" 0 (d "engine.file_disk_hit");
      Alcotest.(check int) "no solve disk read" 0 (d "bmoc.solve_cache_disk_hit");
      Alcotest.(check bool) "preloaded memo hit" true (d "engine.file_mem_hit" > 0);
      Alcotest.(check bool) "preloaded solve hit" true
        (d "bmoc.solve_cache_hit" > 0);
      Alcotest.(check string) "edit diagnostics byte-identical" expect
        (diag_bytes_of_response body))

(* A manifest can outlive the entries it names (a cleaned cache
   directory, a crash between writes): the missing ones recompute. *)
let test_manifest_missing_entry () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = cfg_at dir in
  let edited = [ leak "Gone"; clean_edited ] in
  let expect = local_diag_bytes ~jobs:1 edited in
  with_server ~cfg (fun _ server ->
      let code, _ =
        T.fetch_post server "/analyse" (body_of_sources [ leak "Gone"; clean ])
      in
      Alcotest.(check int) "warm-up status" 200 code);
  let lowered =
    List.filter (fun n -> Filename.check_suffix n ".lower")
      (Array.to_list (Sys.readdir dir))
  in
  Alcotest.(check int) "one lower entry per file" 2 (List.length lowered);
  List.iter (fun n -> Sys.remove (Filename.concat dir n)) lowered;
  restart ();
  with_server ~cfg (fun srv server ->
      Alcotest.(check bool) "manifest still preloads" true (Serve.preload srv);
      let (code, body), d =
        deltas [ "stage.lower.runs" ] (fun () ->
            T.fetch_post server "/analyse" (body_of_sources edited))
      in
      Alcotest.(check int) "edit status" 200 code;
      Alcotest.(check int) "both files re-lowered" 2
        (List.assoc "stage.lower.runs" d);
      Alcotest.(check string) "diagnostics byte-identical" expect
        (diag_bytes_of_response body))

(* --------------------------------------- corrupt / mismatched manifest --- *)

let test_corrupt_snapshot_cold_start () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg = cfg_at dir in
  let fp = Snapshot.path ~dir in
  (* garbage bytes: digest check fails *)
  write_file fp "this is not a snapshot, but it is long enough to try";
  Alcotest.(check bool) "garbage classified corrupt" true
    (Snapshot.check ~dir = Snapshot.Corrupt);
  with_server ~cfg (fun srv server ->
      Alcotest.(check bool) "corrupt snapshot rejected" false
        (Serve.preload srv);
      Alcotest.(check bool) "corrupt snapshot deleted" false
        (Sys.file_exists fp);
      (* the cold server still answers correctly, and leaves a manifest *)
      let sources = [ leak "Cold"; clean ] in
      let expect = local_diag_bytes ~jobs:1 sources in
      let code, body =
        T.fetch_post server "/analyse" (body_of_sources sources)
      in
      Alcotest.(check int) "cold status" 200 code;
      Alcotest.(check string) "cold diagnostics" expect
        (diag_bytes_of_response body));
  (* truncate a real manifest mid-file: same clean recovery *)
  let raw =
    let ic = open_in_bin fp in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  write_file fp (String.sub raw 0 (String.length raw / 2));
  Alcotest.(check bool) "truncated classified corrupt" true
    (Snapshot.check ~dir = Snapshot.Corrupt);
  Alcotest.(check bool) "truncated snapshot rejected" true
    (Snapshot.load ~dir = None);
  Alcotest.(check bool) "truncated snapshot deleted" false (Sys.file_exists fp);
  (* an entry of the previous store version is reported, never deleted *)
  let vbytes = Marshal.to_string () [] in
  let body =
    Marshal.to_string
      ( "gcatch-store/1",
        Snapshot.kind,
        Snapshot.key,
        Digest.to_hex (Digest.string vbytes) )
      []
    ^ vbytes
  in
  write_file fp (Digest.string body ^ body);
  Alcotest.(check bool) "old version classified" true
    (Snapshot.check ~dir = Snapshot.Version_mismatch "gcatch-store/1");
  Alcotest.(check bool) "old version not loaded" true
    (Snapshot.load ~dir = None);
  Alcotest.(check bool) "old version preserved for inspection" true
    (Sys.file_exists fp)

(* ------------------------------------------------ snapshot fault sites --- *)

(* Each request below brings a new source, so each one rewrites the
   manifest. *)
let test_snapshot_fault_sites () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  with_server ~cfg:(cfg_at dir) (fun _ server ->
      let post name =
        let code, _ =
          T.fetch_post server "/analyse" (body_of_sources [ leak name ])
        in
        Alcotest.(check int) "request status" 200 code
      in
      (* a raise on snapshot.write fails the request's manifest write,
         counted, while the request itself still answers *)
      let errs0 = pv "serve.snapshot_errors" in
      set_plan "snapshot.write:*!raise";
      Fun.protect ~finally:F.clear (fun () -> post "FS");
      Alcotest.(check int) "save error counted" 1
        (pv "serve.snapshot_errors" - errs0);
      Alcotest.(check bool) "no manifest written" false
        (Sys.file_exists (Snapshot.path ~dir));
      (* a corrupt-action write truncates the bytes on disk; the next
         load must treat that as a cold start and delete the file *)
      let saves0 = pv "serve.snapshot_saves" in
      set_plan "snapshot.write:*!corrupt";
      Fun.protect ~finally:F.clear (fun () -> post "FSCorrupt");
      Alcotest.(check int) "corrupting save reports success" 1
        (pv "serve.snapshot_saves" - saves0);
      Alcotest.(check bool) "corrupted manifest on disk" true
        (Sys.file_exists (Snapshot.path ~dir));
      Alcotest.(check bool) "corrupted manifest rejected" true
        (Snapshot.load ~dir = None);
      Alcotest.(check bool) "corrupted manifest deleted" false
        (Sys.file_exists (Snapshot.path ~dir));
      (* a good manifest plus a snapshot.read fault: load declines *)
      post "FSClean";
      Alcotest.(check bool) "clean manifest" true
        (Snapshot.check ~dir = Snapshot.Valid);
      set_plan "snapshot.read:*!raise";
      Fun.protect ~finally:F.clear (fun () ->
          Alcotest.(check bool) "faulted load declines" true
            (Snapshot.load ~dir = None));
      Alcotest.(check bool) "file intact after faulted load" true
        (Sys.file_exists (Snapshot.path ~dir)))

(* --------------------------------------------------- quarantine rebuild --- *)

(* A solver-fault storm degrades consecutive runs; once the streak
   crosses --quarantine-degraded the engine is quarantined and rebuilt,
   preloaded from the manifest, on a background thread without dropping
   the listener.  After the storm clears, the rebuilt engine must
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
      Alcotest.(check bool) "manifest written" true
        (Snapshot.check ~dir = Snapshot.Valid);
      let rebuilds0 = pv "serve.engine_rebuilds" in
      let quars0 = pv "serve.quarantines" in
      let loads0 = pv "serve.snapshot_loads" in
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
      Alcotest.(check bool) "rebuild preloaded the manifest" true
        (pv "serve.snapshot_loads" > loads0);
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
        (Mutex.lock srv.Serve.infl_mu;
         let n = Hashtbl.length srv.Serve.inflight in
         Mutex.unlock srv.Serve.infl_mu;
         n = 0)
        && Unix.gettimeofday () < deadline
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
   intact, byte-identical third response. *)
let test_retry_through_connection_chaos () =
  let sources = [ leak "Chaos"; clean ] in
  let expect = local_diag_bytes ~jobs:1 sources in
  with_server (fun _srv server ->
      set_plan "conn.write:1@/analyse!corrupt, conn.accept:2!raise";
      Fun.protect ~finally:F.clear @@ fun () ->
      match
        T.request_retry ~max_attempts:6 ~seed:3 (T.self_addr server)
          ~meth:"POST" ~path:"/analyse"
          ~body:(body_of_sources sources) ()
      with
      | Error e -> Alcotest.fail ("retry client gave up: " ^ e)
      | Ok (code, body) ->
          Alcotest.(check int) "status after chaos" 200 code;
          Alcotest.(check string) "diagnostics intact after chaos" expect
            (diag_bytes_of_response body))

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
    Alcotest.test_case "snapshot warm round-trip" `Quick test_manifest_restart;
    Alcotest.test_case "manifest names a deleted entry" `Quick
      test_manifest_missing_entry;
    Alcotest.test_case "corrupt snapshot cold start" `Quick
      test_corrupt_snapshot_cold_start;
    Alcotest.test_case "snapshot fault sites" `Quick test_snapshot_fault_sites;
    Alcotest.test_case "quarantine rebuild under solver storm" `Quick
      test_quarantine_rebuild_under_solver_storm;
    Alcotest.test_case "retry honours Retry-After" `Quick
      test_retry_honours_retry_after;
    Alcotest.test_case "retry through connection chaos" `Quick
      test_retry_through_connection_chaos;
    Alcotest.test_case "journal fsync policy" `Quick test_journal_fsync_policy;
  ]
