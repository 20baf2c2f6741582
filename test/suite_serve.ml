(* gcatchd server-core tests (PR 9): concurrent requests reproduce
   one-shot diagnostics byte for byte at any --jobs and each is
   executed and answered on its own, the LRU cache bounds evict
   without changing verdicts, a full queue answers 429 with Retry-After,
   watch mode re-analyses only the edited file, and the hardened HTTP
   parser rejects oversize/length-less bodies without wedging. *)

module E = Goengine.Engine
module D = Goengine.Diagnostics
module F = Goobs.Faults
module M = Goobs.Metrics
module T = Goobs.Telemetry
module Serve = Goserve.Serve
module Proto = Goserve.Proto
module Memo = Goengine.Memo

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

(* a leaking channel: one BMOC bug per copy *)
let leak name =
  Printf.sprintf
    "package p\nfunc %s() {\n\tch := make(chan int)\n\tgo func() {\n\t\tch \
     <- 1\n\t}()\n}\n"
    name

let clean = "package p\nfunc Clean() {\n\tprintln(1)\n}\n"

let pv name = M.value (M.counter M.default name)

let body_of_sources ?(passes = []) sources =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"schema\":\"gcatch-serve/1\",\"name\":\"cli\",\"files\":[";
  List.iteri
    (fun i src ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"path\":\"f%d.go\",\"src\":\"%s\"}" i
           (M.json_escape src)))
    sources;
  Buffer.add_char b ']';
  if passes <> [] then
    Buffer.add_string b
      (Printf.sprintf ",\"passes\":[%s]"
         (String.concat "," (List.map (fun p -> "\"" ^ p ^ "\"") passes)));
  Buffer.add_char b '}';
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

(* ------------------------------------------- concurrent byte-identity --- *)

(* Six concurrent clients, two distinct payloads, against a jobs=4
   server: every response must carry diagnostics byte-identical to a
   fresh one-shot jobs=1 run of the same sources, and every request is
   executed and answered ok on its own. *)
let test_concurrent_byte_identity () =
  let set_a = [ leak "A1"; clean; leak "A2" ] in
  let set_b = [ leak "B1"; fig1_body |> ( ^ ) "package p\nfunc Exec" ] in
  let expect_a = local_diag_bytes ~jobs:1 set_a in
  let expect_b = local_diag_bytes ~jobs:1 set_b in
  with_server
    ~cfg:{ Serve.default_cfg with Serve.s_jobs = 4 }
    (fun _srv server ->
      let ok0 = pv "serve.ok" in
      let results = Array.make 6 (0, "") in
      let threads =
        List.init 6 (fun i ->
            Thread.create
              (fun () ->
                let sources = if i mod 2 = 0 then set_a else set_b in
                results.(i) <-
                  T.fetch_post server "/analyse" (body_of_sources sources))
              ())
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun i (code, body) ->
          Alcotest.(check int) (Printf.sprintf "request %d status" i) 200 code;
          let expect = if i mod 2 = 0 then expect_a else expect_b in
          Alcotest.(check string)
            (Printf.sprintf "request %d diagnostics" i)
            expect
            (diag_bytes_of_response body))
        results;
      Alcotest.(check int) "every request answered ok" 6 (pv "serve.ok" - ok0))

(* ------------------------------------------------------- LRU eviction --- *)

(* Two tables of different value types under one byte budget: eviction
   takes the least recently used entry of either table, never a
   Computing slot, and each table's [on_evict] counts its own entries
   only. *)
let test_memo_lru () =
  let budget = Memo.budget () in
  let evicted = ref 0 and other = ref 0 in
  let m : string Memo.t =
    Memo.create ~budget ~on_evict:(fun n -> evicted := !evicted + n) ()
  in
  let (_ : int array Memo.t) =
    Memo.create ~budget ~on_evict:(fun n -> other := !other + n) ()
  in
  Memo.set_budget budget ~bytes:8192;
  for i = 0 to 9 do
    ignore
      (Memo.find_or_compute m
         (Printf.sprintf "k%d" i)
         (fun () -> (String.make 1024 (Char.chr (65 + i)), true)))
  done;
  Alcotest.(check bool) "evictions happened" true (!evicted > 0);
  Alcotest.(check int) "the idle table lost nothing" 0 !other;
  Alcotest.(check bool) "table stayed bounded" true (Memo.size m < 10);
  (* the most recent key must still be resident; an evicted key
     recomputes to the same value *)
  (match Memo.find_or_compute m "k9" (fun () -> Alcotest.fail "k9 evicted") with
  | `Hit v -> Alcotest.(check string) "resident value" (String.make 1024 'J') v
  | `Computed _ -> Alcotest.fail "k9 should be a hit");
  (match Memo.find_or_compute m "k0" (fun () -> (String.make 1024 'A', true)) with
  | `Hit v | `Computed v ->
      Alcotest.(check string) "recomputed value" (String.make 1024 'A') v);
  (* a budget three entries of either table fill and a fourth exceeds *)
  let budget = Memo.budget () in
  let ev_s = ref 0 and ev_a = ref 0 in
  let s : string Memo.t =
    Memo.create ~budget ~on_evict:(fun n -> ev_s := !ev_s + n) ()
  in
  let a : int array Memo.t =
    Memo.create ~budget ~on_evict:(fun n -> ev_a := !ev_a + n) ()
  in
  let sv = String.make 1024 's' and av = Array.make 128 7 in
  let words v = Obj.reachable_words (Obj.repr v) + 8 in
  let hi = max (words sv) (words av) and lo = min (words sv) (words av) in
  Memo.set_budget budget ~bytes:(((3 * hi) + (lo / 2)) * (Sys.word_size / 8));
  let put t k v = ignore (Memo.find_or_compute t k (fun () -> (v, true))) in
  let hit t k = ignore (Memo.find_or_compute t k (fun () -> Alcotest.fail k)) in
  let resident t k = Memo.find_done t k <> None in
  let check_evicted label es ea =
    Alcotest.(check (pair int int)) label (es, ea) (!ev_s, !ev_a)
  in
  put s "a" sv;
  put a "b" av;
  put s "c" sv;
  hit s "a";
  put a "d" av;
  Alcotest.(check bool) "the other table's older entry went" false
    (resident a "b");
  Alcotest.(check bool) "the hit entry stayed" true (resident s "a");
  check_evicted "one eviction, counted by its own table" 0 1;
  hit a "d";
  put a "e" av;
  Alcotest.(check bool) "across tables, the least recent went" false
    (resident s "c");
  check_evicted "the string table counts its own" 1 1;
  (* while [x] computes, flooding the other table drops every Done entry
     of this one but not the claimed slot *)
  let during = ref 0 in
  ignore
    (Memo.find_or_compute a "x" (fun () ->
         List.iter (fun k -> put s k sv) [ "f"; "g"; "h"; "i" ];
         during := Memo.size a;
         (av, true)));
  Alcotest.(check int) "only the Computing slot was left" 1 !during;
  Alcotest.(check bool) "the claimed value landed" true (resident a "x");
  Alcotest.(check (list bool)) "the flood's survivors"
    [ false; false; true; true ]
    (List.map (resident s) [ "f"; "g"; "h"; "i" ]);
  check_evicted "each table counted its own drops" 4 3

(* Three sizeable source sets through a 1 MB cache budget and a
   2-entry artifact cache: evictions must fire, and re-requesting the
   first set must reproduce its diagnostics byte for byte. *)
let test_lru_eviction_correctness () =
  let set seed =
    [ "package app\n" ^ Gocorpus.Filler.generate ~seed ~target_lines:800 ]
  in
  let a = set 101 and b = set 102 and c = set 103 in
  with_server
    ~cfg:
      {
        Serve.default_cfg with
        Serve.s_max_cache_mb = 1;
        s_max_artifact_sets = 2;
      }
    (fun _srv server ->
      let evict0 =
        pv "engine.artifact_evictions" + pv "engine.file_mem_evictions"
        + pv "bmoc.solve_cache_evictions"
      in
      let code1, body1 = T.fetch_post server "/analyse" (body_of_sources a) in
      Alcotest.(check int) "first A status" 200 code1;
      ignore (T.fetch_post server "/analyse" (body_of_sources b));
      ignore (T.fetch_post server "/analyse" (body_of_sources c));
      let code2, body2 = T.fetch_post server "/analyse" (body_of_sources a) in
      Alcotest.(check int) "second A status" 200 code2;
      Alcotest.(check bool) "evictions happened" true
        (pv "engine.artifact_evictions" + pv "engine.file_mem_evictions"
         + pv "bmoc.solve_cache_evictions"
         - evict0
         > 0);
      Alcotest.(check string) "evicted set re-solves identically"
        (diag_bytes_of_response body1)
        (diag_bytes_of_response body2))

(* --------------------------------------------------- 429 backpressure --- *)

let test_429_under_full_queue () =
  (match F.parse "solver:*!stall" with
  | Ok specs -> F.set_plan specs
  | Error e -> Alcotest.fail e);
  Fun.protect ~finally:F.clear (fun () ->
      with_server
        ~cfg:{ Serve.default_cfg with Serve.s_max_queue = 1 }
        (fun srv _server ->
          let slow = body_of_sources [ leak "QueueHog"; clean ] in
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
          let r =
            Serve.handle_analyse srv (rq (body_of_sources [ leak "Rejected" ]))
          in
          Thread.join th;
          Alcotest.(check int) "rejected status" 429 r.T.status;
          Alcotest.(check (option string)) "retry-after header" (Some "1")
            (List.assoc_opt "Retry-After" r.T.headers);
          Alcotest.(check int) "leader status" 200 !leader.T.status))

(* ---------------------------------------------------------- watch mode --- *)

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let test_watch_reanalyses_only_edited () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gcatch-watch-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  write_file (Filename.concat dir "a.go") (leak "WatchedA");
  write_file (Filename.concat dir "b.go") clean;
  let srv = Serve.create () in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop_watch srv;
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with _ -> ())
    (fun () ->
      let wait_for ?(timeout = 10.0) pred =
        let deadline = Unix.gettimeofday () +. timeout in
        while (not (pred ())) && Unix.gettimeofday () < deadline do
          Thread.delay 0.02
        done;
        Alcotest.(check bool) "condition reached in time" true (pred ())
      in
      let runs0 = pv "serve.watch_runs" in
      Serve.start_watch srv ~dir ~interval_s:0.05;
      wait_for (fun () -> pv "serve.watch_runs" - runs0 >= 1);
      (* first warm run lexed both files; wait for it to finish *)
      let lex0 = ref (pv "stage.lex.runs") in
      wait_for (fun () ->
          let now = pv "stage.lex.runs" in
          let stable = now = !lex0 && now > 0 in
          lex0 := now;
          stable);
      (* a body-only edit: signatures unchanged, so only this file's
         frontend re-runs *)
      write_file (Filename.concat dir "a.go") (leak "WatchedA2");
      wait_for (fun () -> pv "serve.watch_runs" - runs0 >= 2);
      let lex_before = !lex0 in
      wait_for (fun () -> pv "stage.lex.runs" > lex_before);
      Thread.delay 0.3;
      Alcotest.(check int) "only the edited file re-lexed" (lex_before + 1)
        (pv "stage.lex.runs"))

(* ------------------------------------------------ one copy per content --- *)

(* A request body naming the file at [src_at] by source and every other
   file by digest. *)
let delta_body ~src_at sources =
  let files =
    List.mapi
      (fun i src ->
        if i = src_at then
          Printf.sprintf "{\"path\":\"f%d.go\",\"src\":\"%s\"}" i
            (M.json_escape src)
        else
          Printf.sprintf "{\"path\":\"f%d.go\",\"digest\":\"%s\"}" i
            (Digest.to_hex (Digest.string src)))
      sources
  in
  "{\"schema\":\"gcatch-serve/1\",\"name\":\"cli\",\"files\":["
  ^ String.concat "," files ^ "]}"

(* gcatchd resolves every content to the one copy it stored first, so
   the engine takes over the digest of every source it saw at the same
   position before: a repeated request hashes nothing, and a one-file
   edit hashes, digests and places that file alone. *)
let test_one_copy_per_content () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gcatch-copy-%d-%.0f" (Unix.getpid ())
         (Unix.gettimeofday () *. 1e6))
  in
  Unix.mkdir dir 0o755;
  let cfg =
    {
      Serve.default_cfg with
      Serve.s_detector = { Gcatch.Bmoc.default_config with cache_dir = Some dir };
    }
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Unix.rmdir dir)
  @@ fun () ->
  with_server ~cfg (fun srv server ->
      let src = leak "Copied" in
      (match
         Serve.resolve srv
           [ ("a.go", `Src src); ("b.go", `Src (Bytes.to_string (Bytes.of_string src))) ]
       with
      | Ok [ a; b ] -> Alcotest.(check bool) "one copy per content" true (a == b)
      | _ -> Alcotest.fail "resolve failed");
      let sources = [ leak "F0"; clean; leak "F2" ] in
      let counters =
        [
          "engine.sources_hashed";
          "engine.sig_digests";
          "engine.assemble_files_placed";
        ]
      in
      let post label body expect =
        let before = List.map pv counters in
        let code, resp = T.fetch_post server "/analyse" body in
        Alcotest.(check int) (label ^ ": status") 200 code;
        List.iter2
          (fun (k, n) b -> Alcotest.(check int) (label ^ ": " ^ k) n (pv k - b))
          (List.combine counters expect)
          before;
        diag_bytes_of_response resp
      in
      ignore (post "load" (body_of_sources sources) [ 3; 3; 3 ]);
      ignore (post "the same sources again" (body_of_sources sources) [ 0; 0; 0 ]);
      let edited = [ leak "F0"; "package p\nfunc Clean() {\n\tprintln(2)\n}\n"; leak "F2" ] in
      let body = delta_body ~src_at:1 edited in
      let first = post "a one-file edit" body [ 1; 1; 1 ] in
      Alcotest.(check string) "the edit answers as a one-shot run"
        (local_diag_bytes ~jobs:1 edited) first;
      let again = post "the edit again" body [ 0; 0; 0 ] in
      Alcotest.(check string) "the same answer" first again)

(* --------------------------------------------- per-engine solve tier --- *)

let solve_counters =
  [ "bmoc.solve_cache_hit"; "bmoc.solve_cache_miss"; "bmoc.solve_cache_evictions" ]

let deltas names f =
  let before = List.map pv names in
  f ();
  List.map2 (fun n b -> pv n - b) names before

(* A bounded server's budget is its engine's: an unbounded server
   created after it keeps every verdict.  The app is analysed twice
   under one name, the second time with a channel-free file appended,
   so that the record's outcomes cannot be taken over: every channel
   looks its verdict up again and must find it in memory.  (A second
   name would miss: a verdict holds the source locations, and the file
   names carry the name.)  Its ~1200 verdicts outgrow 1 MB. *)
let test_bounded_server_leaves_others_unbounded () =
  let _bounded =
    Serve.create ~cfg:{ Serve.default_cfg with Serve.s_max_cache_mb = 1 } ()
  in
  let srv = Serve.create () in
  let app = [ Pipeline.multi_chan 1200 ] in
  let post sources () =
    let r =
      Serve.handle_analyse srv
        { T.rq_path = "/analyse"; rq_headers = []; rq_body = body_of_sources sources }
    in
    Alcotest.(check int) "status" 200 r.T.status
  in
  match deltas solve_counters (post app) with
  | [ hit; miss; _ ] -> (
      Alcotest.(check int) "a fresh server starts cold" 0 hit;
      Alcotest.(check bool) "every channel solved" true (miss >= 1200);
      match deltas solve_counters (post (app @ [ "package p\n" ])) with
      | [ hit'; miss'; evicted ] ->
          Alcotest.(check int) "every channel hits memory" miss hit';
          Alcotest.(check int) "no channel misses" 0 miss';
          Alcotest.(check int) "no verdict evicted" 0 evicted
      | _ -> assert false)
  | _ -> assert false

(* Each engine owns its verdicts: a second engine in the same process
   solves every channel again. *)
let test_engines_share_no_verdicts () =
  let app = [ Pipeline.multi_chan 6 ] in
  List.iter
    (fun label ->
      let e = Gcatch.Passes.engine ~registry:(M.create ()) () in
      match
        deltas solve_counters (fun () -> ignore (E.analyse e ~name:"twin" app))
      with
      | [ hit; miss; _ ] ->
          Alcotest.(check int) (label ^ ": no hit") 0 hit;
          Alcotest.(check int) (label ^ ": a miss per channel") 6 miss
      | _ -> assert false)
    [ "first engine"; "second engine" ]

(* ------------------------------------------------- parser hardening ----- *)

let test_http_parser_hardening () =
  with_server (fun _srv server ->
      (* oversize body: declared length past max_body answers 413 *)
      let sa = Unix.ADDR_INET (Unix.inet_addr_loopback, T.port server) in
      let raw_request payload =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with _ -> ())
          (fun () ->
            Unix.connect fd sa;
            let rec write off =
              if off < String.length payload then
                write (off + Unix.write_substring fd payload off
                               (String.length payload - off))
            in
            write 0;
            let b = Buffer.create 256 in
            let buf = Bytes.create 1024 in
            let rec read () =
              match Unix.read fd buf 0 1024 with
              | 0 -> ()
              | n ->
                  Buffer.add_subbytes b buf 0 n;
                  read ()
              | exception _ -> ()
            in
            read ();
            Buffer.contents b)
      in
      let status raw =
        match String.split_on_char ' ' raw with
        | _ :: code :: _ -> int_of_string_opt code
        | _ -> None
      in
      let oversize =
        raw_request
          "POST /analyse HTTP/1.1\r\nHost: x\r\nContent-Length: \
           999999999\r\n\r\n"
      in
      Alcotest.(check (option int)) "oversize body" (Some 413) (status oversize);
      let lengthless =
        raw_request "POST /analyse HTTP/1.1\r\nHost: x\r\n\r\n{}"
      in
      Alcotest.(check (option int)) "missing content-length" (Some 411)
        (status lengthless);
      let bad = raw_request "\r\n\r\n" in
      Alcotest.(check (option int)) "garbage request" (Some 400) (status bad);
      (* the GET endpoints keep working after the abuse *)
      let code, _ = T.fetch server "/healthz" in
      Alcotest.(check bool) "healthz still answers" true
        (code = 200 || code = 503);
      let code, body = T.fetch_post server "/analyse" "{\"schema\":\"nope\"}" in
      Alcotest.(check int) "unknown schema is 400" 400 code;
      Alcotest.(check bool) "error body is JSON" true
        (String.length body > 0 && body.[0] = '{'))

let tests =
  [
    Alcotest.test_case "concurrent requests byte-identical" `Quick
      test_concurrent_byte_identity;
    (* Alcotest prints each case with its index; the parser test sits
       here so the later cases keep the indices they are known by. *)
    Alcotest.test_case "hardened HTTP parser" `Quick
      test_http_parser_hardening;
    Alcotest.test_case "memo LRU bound" `Quick test_memo_lru;
    Alcotest.test_case "LRU eviction preserves verdicts" `Quick
      test_lru_eviction_correctness;
    Alcotest.test_case "429 under full queue" `Quick test_429_under_full_queue;
    Alcotest.test_case "watch re-analyses only the edit" `Quick
      test_watch_reanalyses_only_edited;
    Alcotest.test_case "one copy per content" `Quick test_one_copy_per_content;
    Alcotest.test_case "a bounded server leaves others unbounded" `Quick
      test_bounded_server_leaves_others_unbounded;
    Alcotest.test_case "engines share no verdicts" `Quick
      test_engines_share_no_verdicts;
  ]
