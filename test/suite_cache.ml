(* Tests for the per-channel solve cache (PR 4): warm runs must replay
   cold verdicts and per-channel metrics byte for byte, cache on/off and
   dedup on/off must agree on every verdict, and the disk tier must
   survive corrupted entries. *)

module M = Goobs.Metrics
module SC = Gcatch.Solve_cache

let counter name =
  match List.assoc_opt name (M.counters_list M.default) with
  | Some v -> v
  | None -> 0

let hits () = counter "bmoc.solve_cache_hit"
let misses () = counter "bmoc.solve_cache_miss"
let disk_hits () = counter "bmoc.solve_cache_disk_hit"
let stores () = counter "bmoc.solve_cache_store"

let app_sources name =
  (Option.get (Gocorpus.Apps.find name)).Gocorpus.Apps.sources

let bmoc_strs (a : Pipeline.t) =
  List.map Gcatch.Report.bmoc_str a.bmoc

let trad_strs (a : Pipeline.t) =
  List.map Gcatch.Report.trad_str a.trad

let check_same_analysis label (a : Pipeline.t)
    (b : Pipeline.t) =
  Alcotest.(check (list string))
    (label ^ ": same BMOC reports")
    (bmoc_strs a) (bmoc_strs b);
  Alcotest.(check (list string))
    (label ^ ": same traditional reports")
    (trad_strs a) (trad_strs b)

(* --------------------------------------------------- memory tier ---- *)

let test_warm_replays_cold () =
  let engine = Gcatch.Passes.engine () in
  let sources = app_sources "bbolt" in
  let h0 = hits () and m0 = misses () in
  let cold = Pipeline.analyse ~engine ~name:"cache-bbolt" sources in
  let h1 = hits () and m1 = misses () in
  Alcotest.(check bool) "cold run misses" true (m1 > m0);
  (* a new record, so that the channels consult the solve cache instead
     of taking the first record's outcomes over *)
  let warm =
    Pipeline.analyse ~engine ~name:"cache-bbolt"
      (Pipeline.with_empty_file sources)
  in
  let h2 = hits () and m2 = misses () in
  Alcotest.(check bool) "warm run hits" true (h2 - h1 >= m1 - m0);
  Alcotest.(check int) "warm run never misses" m1 m2;
  ignore h0;
  check_same_analysis "warm vs cold" cold warm;
  (* the cached per-channel counter snapshots replay exactly, so the
     aggregated run stats are identical too *)
  Alcotest.(check (list (pair string int)))
    "same stats"
    (Pipeline.bmoc_counters cold.run)
    (Pipeline.bmoc_counters warm.run)

let test_cache_off_matches () =
  let sources = app_sources "bbolt" in
  let cached = Pipeline.analyse ~name:"cache-bbolt" sources in
  let cfg = { Gcatch.Bmoc.default_config with solve_cache = false } in
  let h0 = hits () and m0 = misses () in
  let uncached = Pipeline.analyse ~cfg ~name:"cache-bbolt" sources in
  Alcotest.(check int) "no hits when off" (h0) (hits ());
  Alcotest.(check int) "no misses when off" (m0) (misses ());
  check_same_analysis "cache off vs on" cached uncached

let test_warm_jobs_identical () =
  (* a cold jobs=1 run then a warm jobs=4 run: the promise-keyed memory
     tier serves the same verdicts whatever the schedule *)
  let sources = app_sources "grpc" in
  let a1 =
    Pipeline.analyse ~engine:(Gcatch.Passes.engine ()) ~name:"cache-grpc"
      sources
  in
  let engine = Gcatch.Passes.engine ~jobs:4 () in
  ignore (Pipeline.analyse ~engine ~name:"cache-grpc" sources);
  let m0 = misses () in
  let a4 =
    Pipeline.analyse ~engine ~name:"cache-grpc"
      (Pipeline.with_empty_file sources)
  in
  Alcotest.(check int) "warm run never misses" m0 (misses ());
  check_same_analysis "jobs 1 cold vs jobs 4 warm" a1 a4;
  Alcotest.(check (list (pair string int)))
    "same stats"
    (Pipeline.bmoc_counters a1.run)
    (Pipeline.bmoc_counters a4.run)

(* ----------------------------------------------------- disk tier ---- *)

let with_cache_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gcatch-test-cache-%d" (Unix.getpid ()))
  in
  if Sys.file_exists dir then
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f ->
            try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ()
      end)
    (fun () -> f dir)

let solve_files dir =
  List.filter
    (fun f -> Filename.check_suffix f ".solve")
    (Array.to_list (Sys.readdir dir))

(* The solve cache's disk tier, reached through the standalone detector
   on the compiled IR: an engine with the same [cache_dir] would serve
   whole pass results from its pass cache and never consult it. *)
let detect ~cfg ~name sources =
  Gcatch.Bmoc.detect_full ~cfg (Pipeline.compile_ir ~name sources)

let check_same_bugs label (a : Gcatch.Bmoc.full) (b : Gcatch.Bmoc.full) =
  Alcotest.(check (list string))
    (label ^ ": same BMOC reports")
    (List.map Gcatch.Report.bmoc_str a.f_bugs)
    (List.map Gcatch.Report.bmoc_str b.f_bugs)

(* Cold, warm from the memory tier, and warm from disk must agree on
   every verdict, over three apps of increasing channel count. *)
let test_disk_tier_roundtrip () =
  List.iter
    (fun app ->
      with_cache_dir (fun dir ->
          let cfg = { Gcatch.Bmoc.default_config with cache_dir = Some dir } in
          let sources = app_sources app in
          let name = "cache-disk-" ^ app in
          SC.reset_memory ();
          let s0 = stores () in
          let cold = detect ~cfg ~name sources in
          Alcotest.(check bool)
            (app ^ ": entries stored")
            true
            (stores () > s0);
          Alcotest.(check bool)
            (app ^ ": files written")
            true
            (solve_files dir <> []);
          let m0 = misses () in
          let warm = detect ~cfg ~name sources in
          Alcotest.(check int)
            (app ^ ": memory warm never misses")
            m0 (misses ());
          check_same_bugs (app ^ ": memory warm vs cold") cold warm;
          (* a fresh process is simulated by dropping the memory tier: the
             warm verdicts must now come from disk *)
          SC.reset_memory ();
          let d0 = disk_hits () in
          let disk = detect ~cfg ~name sources in
          Alcotest.(check bool) (app ^ ": disk hits") true (disk_hits () > d0);
          check_same_bugs (app ^ ": disk warm vs cold") cold disk;
          Alcotest.(check bool)
            (app ^ ": same stats")
            true
            (cold.f_stats = disk.f_stats)))
    [ "bbolt"; "grpc"; "go-ethereum" ]

let test_disk_corrupt_entry_recovers () =
  with_cache_dir (fun dir ->
      let cfg = { Gcatch.Bmoc.default_config with cache_dir = Some dir } in
      let sources = app_sources "bbolt" in
      SC.reset_memory ();
      let cold = detect ~cfg ~name:"cache-corrupt" sources in
      (* clobber every entry: truncated, garbage, and flipped-byte bodies
         must all be treated as misses, unlinked, and recomputed *)
      List.iteri
        (fun i f ->
          let path = Filename.concat dir f in
          let oc = open_out_bin path in
          (match i mod 3 with
          | 0 -> () (* truncated to zero length *)
          | 1 -> output_string oc "not a cache entry"
          | _ -> output_string oc (String.make 64 '\xff'));
          close_out oc)
        (solve_files dir);
      SC.reset_memory ();
      let d0 = disk_hits () in
      let warm = detect ~cfg ~name:"cache-corrupt" sources in
      Alcotest.(check int) "corrupt entries are misses" d0 (disk_hits ());
      check_same_bugs "recomputed vs cold" cold warm;
      (* the clobbered files were replaced by fresh stores *)
      SC.reset_memory ();
      let d1 = disk_hits () in
      let again = detect ~cfg ~name:"cache-corrupt" sources in
      Alcotest.(check bool) "restored entries hit" true (disk_hits () > d1);
      check_same_bugs "restored vs cold" cold again)

(* The store's reader must classify files it did not write — earlier
   formats, foreign marshal frames, entries of another kind — without
   trusting their shape, and give every fault action one meaning. *)
let test_store_foreign_entries () =
  let module Store = Goengine.Store in
  let module F = Goobs.Faults in
  with_cache_dir (fun dir ->
      Result.get_ok (Store.validate_dir dir);
      let st = Store.at dir in
      let put ~kind ~key bytes =
        let oc = open_out_bin (Store.path st ~kind ~key) in
        output_string oc bytes;
        close_out oc
      in
      let framed v =
        let body = Marshal.to_string v [] in
        Digest.string body ^ body
      in
      let status =
        Alcotest.testable
          (fun ppf s ->
            Format.pp_print_string ppf
              (match s with
              | Store.Valid -> "valid"
              | Missing -> "missing"
              | Corrupt -> "corrupt"
              | Version_mismatch v -> "version " ^ v))
          ( = )
      in
      let vd =
        match Store.write st ~kind:"solve" ~key:"k1" [ 1; 2; 3 ] with
        | Ok d -> d
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check (option (pair (list int) string)))
        "round trip" (Some ([ 1; 2; 3 ], vd))
        (Store.read st ~kind:"solve" ~key:"k1");
      Alcotest.(check (option string))
        "header digest" (Some vd)
        (Store.digest st ~kind:"solve" ~key:"k1");
      (* an entry of an earlier format: a miss, kept for the next store *)
      put ~kind:"solve" ~key:"k2"
        (framed ("gcatch-solve-cache/1", "k2", [ 4 ]));
      Alcotest.check status "old format classified"
        (Store.Version_mismatch "gcatch-solve-cache/1")
        (Store.check st ~kind:"solve" ~key:"k2");
      Alcotest.(check bool) "old format is a miss" true
        (Store.read st ~kind:"solve" ~key:"k2" = None);
      Alcotest.(check bool) "old format kept" true
        (Sys.file_exists (Store.path st ~kind:"solve" ~key:"k2"));
      (* a frame of the wrong shape, and an entry of another kind: corrupt,
         a miss, unlinked *)
      put ~kind:"solve" ~key:"k3" (framed 42);
      let other =
        Store.write st ~kind:"parse" ~key:"k4" "x" |> Result.get_ok |> ignore;
        In_channel.with_open_bin (Store.path st ~kind:"parse" ~key:"k4")
          In_channel.input_all
      in
      put ~kind:"solve" ~key:"k4" other;
      List.iter
        (fun key ->
          Alcotest.check status (key ^ " classified corrupt") Store.Corrupt
            (Store.check st ~kind:"solve" ~key);
          Alcotest.(check bool) (key ^ " is a miss") true
            (Store.read st ~kind:"solve" ~key = None);
          Alcotest.(check bool) (key ^ " unlinked") false
            (Sys.file_exists (Store.path st ~kind:"solve" ~key)))
        [ "k3"; "k4" ];
      (* corrupt actions truncate bytes: on disk for a write, as read for
         a read; neither is an I/O error *)
      let errors () =
        counter "store.read_error" + counter "store.write_error"
      in
      let e0 = errors () in
      let with_plan plan f =
        F.set_plan (Result.get_ok (F.parse plan));
        Fun.protect ~finally:F.clear f
      in
      with_plan "cache.write:*!corrupt" (fun () ->
          Alcotest.(check bool) "corrupting write reports success" true
            (Result.is_ok (Store.write st ~kind:"solve" ~key:"k5" [ 5 ])));
      Alcotest.check status "truncated on disk" Store.Corrupt
        (Store.check st ~kind:"solve" ~key:"k5");
      with_plan "cache.read:*!corrupt" (fun () ->
          Alcotest.(check bool) "truncated read is a miss" true
            (Store.read st ~kind:"solve" ~key:"k1" = None));
      Alcotest.(check bool) "truncated read unlinks" false
        (Sys.file_exists (Store.path st ~kind:"solve" ~key:"k1"));
      Alcotest.(check int) "no I/O errors counted" e0 (errors ());
      with_plan "cache.read:*!raise" (fun () ->
          Alcotest.(check bool) "raising read is a miss" true
            (Store.read st ~kind:"solve" ~key:"k2" = None));
      Alcotest.(check int) "raise counted" (e0 + 1) (errors ()))

(* ------------------------------------------- dedup soundness ---- *)

let test_dedup_never_drops_verdict () =
  (* path dedup is a projection argument, not a heuristic: over the full
     49-bug coverage set, every verdict must be identical with the
     deduplicator on and off *)
  let off_cfg =
    {
      Gcatch.Bmoc.default_config with
      path_cfg =
        { Gcatch.Pathenum.default_config with dedup_paths = false };
    }
  in
  List.iter
    (fun (e : Gocorpus.Bugset.entry) ->
      let src = [ "package b\n" ^ e.bs_src ] in
      let on = Pipeline.analyse ~name:e.bs_name src in
      let off = Pipeline.analyse ~cfg:off_cfg ~name:e.bs_name src in
      Alcotest.(check (list string))
        (e.bs_name ^ ": dedup on/off verdicts agree")
        (bmoc_strs off) (bmoc_strs on))
    Gocorpus.Bugset.entries

let tests =
  [
    Alcotest.test_case "warm run replays cold run" `Quick
      test_warm_replays_cold;
    Alcotest.test_case "cache off matches cache on" `Quick
      test_cache_off_matches;
    Alcotest.test_case "warm jobs=4 matches cold jobs=1" `Quick
      test_warm_jobs_identical;
    Alcotest.test_case "disk tier round-trip" `Quick test_disk_tier_roundtrip;
    Alcotest.test_case "corrupted disk entry recovers" `Quick
      test_disk_corrupt_entry_recovers;
    Alcotest.test_case "dedup never drops a verdict" `Slow
      test_dedup_never_drops_verdict;
    Alcotest.test_case "store classifies foreign entries" `Quick
      test_store_foreign_entries;
  ]
