(* Goscope (lib/obs) tests: logger formatting and levels, histogram
   bucket/percentile math, registry merge, Prometheus and JSON export
   shape, span nesting and parenting (single-domain and across pool
   domains), exactly-once drain, no-op behaviour when tracing is
   disabled, metrics determinism at jobs=1 vs jobs=4, and the enriched
   solver-budget skip diagnostic. *)

module Log = Goobs.Log
module M = Goobs.Metrics
module Trace = Goobs.Trace
module Profile = Goobs.Profile
module Journal = Goobs.Journal
module Telemetry = Goobs.Telemetry
module Sampler = Goobs.Sampler
module Pool = Goengine.Pool
module E = Goengine.Engine
module D = Goengine.Diagnostics
module Supervise = Goengine.Supervise

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------ logger --- *)

let with_sink f =
  let lines = ref [] in
  Log.set_sink (fun l -> lines := l :: !lines);
  let saved = Log.level () in
  Fun.protect
    ~finally:(fun () ->
      Log.reset_sink ();
      Log.set_level saved)
    (fun () -> f lines)

let test_log_format () =
  with_sink (fun lines ->
      Log.set_level Log.Debug;
      Log.warn ~kv:[ ("channel", "ch1"); ("ms", "12") ] "budget exhausted";
      Log.info ~kv:[ ("path", "a file.json") ] "wrote";
      match List.rev !lines with
      | [ l1; l2 ] ->
          Alcotest.(check string)
            "plain key=value line"
            "gcatch[warn] budget exhausted channel=ch1 ms=12" l1;
          (* values with spaces are quoted *)
          Alcotest.(check string)
            "quoted value" "gcatch[info] wrote path=\"a file.json\"" l2
      | ls -> Alcotest.failf "expected 2 lines, got %d" (List.length ls))

let test_log_levels () =
  with_sink (fun lines ->
      Log.set_level Log.Warn;
      Log.debug "hidden";
      Log.info "hidden";
      Log.warn "shown";
      Log.error "shown";
      Alcotest.(check int) "warn level keeps 2 of 4" 2 (List.length !lines);
      Log.set_level Log.Quiet;
      Log.error "dropped";
      Alcotest.(check int) "quiet drops everything" 2 (List.length !lines));
  (* parsing *)
  Alcotest.(check bool) "parse debug" true (Log.level_of_string "debug" = Some Log.Debug);
  Alcotest.(check bool) "parse WARNING" true (Log.level_of_string "WARNING" = Some Log.Warn);
  Alcotest.(check bool) "parse off" true (Log.level_of_string "off" = Some Log.Quiet);
  Alcotest.(check bool) "reject junk" true (Log.level_of_string "loud" = None)

(* ------------------------------------------------------- histograms --- *)

let test_histogram_buckets () =
  (* power-of-two buckets: 1.0 tops bucket 20, each bucket doubles *)
  Alcotest.(check int) "1.0 -> bucket 20" 20 (M.bucket_index 1.0);
  Alcotest.(check int) "1.5 -> bucket 21" 21 (M.bucket_index 1.5);
  Alcotest.(check int) "2.0 -> bucket 21" 21 (M.bucket_index 2.0);
  Alcotest.(check int) "non-positive -> bucket 0" 0 (M.bucket_index 0.0);
  Alcotest.(check int) "huge clamps to last" (M.n_buckets - 1)
    (M.bucket_index 1e30);
  Alcotest.(check (float 1e-9)) "upper bound of 20 is 1.0" 1.0 (M.bucket_upper 20)

let test_histogram_percentiles () =
  let t = M.create () in
  let h = M.histogram t "h" in
  List.iter (M.observe h) [ 1.0; 2.0; 4.0; 8.0 ];
  Alcotest.(check int) "count" 4 (M.h_count h);
  Alcotest.(check (float 1e-9)) "sum" 15.0 (M.h_sum h);
  Alcotest.(check (float 1e-9)) "max" 8.0 (M.h_max h);
  Alcotest.(check (float 1e-9)) "p50 is the 2nd value's bucket" 2.0
    (M.percentile h 0.5);
  Alcotest.(check (float 1e-9)) "p95 lands in the last bucket" 8.0
    (M.percentile h 0.95);
  Alcotest.(check (float 1e-9)) "p100 is the exact max" 8.0
    (M.percentile h 1.0);
  (* the estimate is capped at the observed max, not the bucket bound *)
  let h2 = M.histogram t "h2" in
  M.observe h2 3.0;
  Alcotest.(check (float 1e-9)) "capped at max" 3.0 (M.percentile h2 0.5);
  (* empty histogram *)
  let h3 = M.histogram t "h3" in
  Alcotest.(check (float 1e-9)) "empty -> 0" 0.0 (M.percentile h3 0.5)

(* ------------------------------------------------ registry and merge --- *)

let test_counters_and_merge () =
  let a = M.create () and b = M.create () in
  M.add (M.counter a "x") 3;
  M.incr (M.counter a "y");
  M.add (M.counter b "x") 4;
  M.observe (M.histogram b "ms") 2.0;
  M.merge_into ~dst:a b;
  Alcotest.(check (list (pair string int)))
    "sorted, summed counters"
    [ ("x", 7); ("y", 1) ]
    (M.counters_list a);
  Alcotest.(check int) "histogram merged" 1 (M.h_count (M.histogram a "ms"));
  M.reset a;
  Alcotest.(check (list (pair string int)))
    "reset zeroes values"
    [ ("x", 0); ("y", 0) ]
    (M.counters_list a)

let test_prometheus_export () =
  let t = M.create () in
  M.add (M.counter t "bmoc.solver_calls") 5;
  M.set_gauge (M.gauge t "engine.jobs") 4.0;
  let h = M.histogram t "bmoc.channel_solve_ms" in
  List.iter (M.observe h) [ 0.7; 1.8; 120.0 ];
  let p = M.to_prometheus t in
  Alcotest.(check bool) "counter TYPE line" true
    (contains ~needle:"# TYPE gcatch_bmoc_solver_calls counter" p);
  Alcotest.(check bool) "counter sample" true
    (contains ~needle:"gcatch_bmoc_solver_calls 5" p);
  Alcotest.(check bool) "gauge sample" true
    (contains ~needle:"gcatch_engine_jobs 4" p);
  Alcotest.(check bool) "histogram TYPE line" true
    (contains ~needle:"# TYPE gcatch_bmoc_channel_solve_ms histogram" p);
  Alcotest.(check bool) "+Inf bucket" true
    (contains ~needle:{|gcatch_bmoc_channel_solve_ms_bucket{le="+Inf"} 3|} p);
  Alcotest.(check bool) "count line" true
    (contains ~needle:"gcatch_bmoc_channel_solve_ms_count 3" p);
  (* buckets are cumulative: every bucket count <= the +Inf total *)
  String.split_on_char '\n' p
  |> List.iter (fun line ->
         if contains ~needle:"_bucket{le=" line then
           match String.rindex_opt line ' ' with
           | Some i ->
               let v =
                 int_of_string
                   (String.sub line (i + 1) (String.length line - i - 1))
               in
               Alcotest.(check bool) "cumulative bucket <= total" true (v <= 3)
           | None -> Alcotest.fail "malformed bucket line")

(* crude structural check: balanced braces/brackets outside strings *)
let balanced s =
  let depth = ref 0 and ok = ref true and in_str = ref false in
  String.iteri
    (fun i c ->
      if !in_str then begin
        if c = '"' && (i = 0 || s.[i - 1] <> '\\') then in_str := false
      end
      else
        match c with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
            decr depth;
            if !depth < 0 then ok := false
        | _ -> ())
    s;
  !ok && !depth = 0

let test_metrics_json () =
  let t = M.create () in
  M.incr (M.counter t "a.b");
  M.observe (M.histogram t "ms") 3.0;
  let j = M.to_json t in
  Alcotest.(check bool) "balanced" true (balanced j);
  Alcotest.(check bool) "counter present" true (contains ~needle:{|"a.b":1|} j);
  Alcotest.(check bool) "histogram summary" true (contains ~needle:{|"count":1|} j)

(* ------------------------------------------------------------ spans --- *)

let test_span_nesting () =
  Trace.enable ();
  ignore (Trace.drain ());
  Trace.with_span ~name:"outer" (fun () ->
      Trace.with_span ~name:"inner" (fun () -> ignore (Sys.opaque_identity 1));
      Trace.set_args [ ("k", "v") ]);
  Trace.disable ();
  let spans = Trace.drain () in
  Alcotest.(check int) "two spans" 2 (List.length spans);
  let find n = List.find (fun s -> s.Trace.sp_name = n) spans in
  let outer = find "outer" and inner = find "inner" in
  Alcotest.(check bool) "inner's parent is outer" true
    (inner.Trace.sp_parent = Some "outer");
  Alcotest.(check int) "inner depth" 1 inner.Trace.sp_depth;
  Alcotest.(check bool) "outer is a root" true (outer.Trace.sp_parent = None);
  Alcotest.(check bool) "inner starts after outer" true
    (inner.Trace.sp_ts_us >= outer.Trace.sp_ts_us);
  Alcotest.(check bool) "inner contained in outer" true
    (inner.Trace.sp_ts_us +. inner.Trace.sp_dur_us
    <= outer.Trace.sp_ts_us +. outer.Trace.sp_dur_us +. 1e-3);
  Alcotest.(check bool) "set_args attached to the open span" true
    (List.mem_assoc "k" outer.Trace.sp_args);
  Alcotest.(check int) "exactly-once drain" 0 (List.length (Trace.drain ()))

let test_spans_across_pool_domains () =
  Trace.enable ();
  ignore (Trace.drain ());
  let pool = Pool.get ~jobs:4 in
  let items = List.init 16 Fun.id in
  let out =
    Trace.with_span ~name:"batch" (fun () ->
        Pool.map ~pool
          (fun i -> Trace.with_span ~name:"work" (fun () -> i * 2))
          items)
  in
  Trace.disable ();
  Alcotest.(check (list int)) "map results in order"
    (List.map (fun i -> i * 2) items)
    out;
  let spans = Trace.drain () in
  let named n = List.filter (fun s -> s.Trace.sp_name = n) spans in
  Alcotest.(check int) "one work span per item" 16 (List.length (named "work"));
  if Pool.recommended_jobs () > 1 then begin
    Alcotest.(check int) "one pool.task span per item" 16
      (List.length (named "pool.task"));
    (* parenting survives the hop to worker domains: every work span
       nests in the pool.task span that ran it *)
    List.iter
      (fun s ->
        Alcotest.(check bool) "work parented under pool.task" true
          (s.Trace.sp_parent = Some "pool.task"))
      (named "work")
  end
  else begin
    (* single-job environment: the map's inline fast path skips the
       batch machinery, so the work runs directly under the caller *)
    Alcotest.(check int) "no pool.task spans inline" 0
      (List.length (named "pool.task"));
    List.iter
      (fun s ->
        Alcotest.(check bool) "work parented under batch" true
          (s.Trace.sp_parent = Some "batch"))
      (named "work")
  end;
  (* the trace has one track per participating domain, and everything the
     workers recorded is tagged with their own domain id *)
  let tids = List.sort_uniq compare (List.map (fun s -> s.Trace.sp_tid) spans) in
  Alcotest.(check bool) "at least one track" true (List.length tids >= 1);
  Alcotest.(check bool) "at most caller + workers tracks" true
    (List.length tids <= 5);
  Alcotest.(check int) "second drain is empty" 0 (List.length (Trace.drain ()))

let test_disabled_tracer_noop () =
  Trace.disable ();
  ignore (Trace.drain ());
  let r = Trace.with_span ~name:"ignored" (fun () -> 42) in
  Alcotest.(check int) "value passes through" 42 r;
  Trace.set_args [ ("k", "v") ];
  Alcotest.check_raises "exceptions propagate" Exit (fun () ->
      Trace.with_span ~name:"ignored" (fun () -> raise Exit));
  Alcotest.(check int) "nothing recorded" 0 (List.length (Trace.drain ()))

let test_chrome_export_shape () =
  Trace.enable ();
  ignore (Trace.drain ());
  Trace.with_span ~name:"a" ~args:[ ("file", "x.go") ] (fun () ->
      Trace.with_span ~name:"b" (fun () -> ()));
  Trace.disable ();
  let j = Trace.to_chrome_json (Trace.drain ()) in
  Alcotest.(check bool) "balanced" true (balanced j);
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains ~needle j))
    [
      {|"traceEvents":[|};
      {|"ph":"X"|};
      {|"ph":"M"|};
      {|"thread_name"|};
      {|"name":"a"|};
      {|"args":{"file":"x.go"}|};
      {|"displayTimeUnit":"ms"|};
    ]

(* ----------------------------------------------------------- profile --- *)

let test_profile_report () =
  Profile.reset ();
  Profile.note_channel
    {
      Profile.cs_channel = "chan@1";
      cs_elapsed_ms = 12.5;
      cs_solver_calls = 3;
      cs_sat_conflicts = 7;
      cs_sat_decisions = 20;
      cs_sat_propagations = 90;
      cs_path_events = 11;
      cs_timed_out = false;
    };
  let reg = M.create () in
  M.observe (M.histogram reg "stage.parse.ms") 1.5;
  let rep = Profile.report ~top:10 reg [ ("bmoc", 0.012) ] in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("report mentions " ^ needle) true
        (contains ~needle rep))
    [ "slowest channels"; "chan@1"; "solver_calls=3"; "bmoc"; "stage.parse.ms" ];
  Profile.reset ();
  Alcotest.(check int) "reset clears samples" 0 (List.length (Profile.channels ()))

(* A long-lived gcatchd notes a sample per analysed channel per request:
   fifty analyses of twenty channels leave only the slowest samples
   kept, and the report (the count of all samples included) reads as
   one over every sample.  Times are coarse, so many tie, and a channel
   recurs with a different solver-call count each analysis: ties must
   keep the order a stable sort of every sample gives them. *)
let test_profile_bounded () =
  Profile.reset ();
  let all = Profile.samples ~keep:max_int () in
  let noted = ref [] in
  let rng = Random.State.make [| 7 |] in
  for analysis = 1 to 50 do
    for c = 1 to 20 do
      let s =
        {
          Profile.cs_channel = Printf.sprintf "chan@%d" c;
          cs_elapsed_ms = float_of_int (Random.State.int rng 40) /. 4.0;
          cs_solver_calls = analysis;
          cs_sat_conflicts = c;
          cs_sat_decisions = 0;
          cs_sat_propagations = 0;
          cs_path_events = 0;
          cs_timed_out = false;
        }
      in
      Profile.note_channel s;
      Profile.add all s;
      noted := s :: !noted
    done
  done;
  let kept = Profile.channels () in
  Alcotest.(check bool)
    (Printf.sprintf "%d of 1000 samples kept" (List.length kept))
    true
    (List.length kept <= 64);
  (* the report's order, slower first then by channel name, as a stable
     sort of every sample in the order noted *)
  let sorted =
    List.stable_sort
      (fun (a : Profile.channel_sample) (b : Profile.channel_sample) ->
        compare (b.cs_elapsed_ms, a.cs_channel) (a.cs_elapsed_ms, b.cs_channel))
      (List.rev !noted)
  in
  Alcotest.(check bool) "the slowest samples, in the report's order" true
    (kept = List.filteri (fun i _ -> i < List.length kept) sorted);
  let reg = M.create () in
  List.iter
    (fun top ->
      let rep = Profile.report ~top reg [] in
      Alcotest.(check string)
        (Printf.sprintf "top %d as over every sample" top)
        (Profile.report ~top ~samples:all reg [])
        rep;
      Alcotest.(check bool) "counts every sample" true
        (contains ~needle:"(of 1000)" rep))
    [ 10; 64 ];
  Profile.reset ()

(* ------------------------------------------------------ determinism --- *)

(* several independent channels so jobs=4 genuinely fans out *)
let multi_chan =
  "package p\n\
   func f1() {\n\tc := make(chan int)\n\tgo func() {\n\t\tc <- 1\n\t}()\n}\n\
   func f2() {\n\td := make(chan int)\n\tgo func() {\n\t\td <- 2\n\t}()\n\
   \t<-d\n}\n\
   func f3() {\n\te := make(chan int)\n\tgo func() {\n\t\te <- 3\n\t}()\n}\n"

let test_metrics_determinism_across_jobs () =
  let counters jobs =
    let reg = M.create () in
    let e = Gcatch.Passes.engine ~registry:reg ~jobs () in
    ignore (E.analyse e ~name:"det" [ multi_chan ]);
    (* scheduler counters ("pool.*") and timing histograms are excluded
       by construction: pool metrics go to the process registry and
       counters_list lists counters only *)
    M.counters_list reg
  in
  let c1 = counters 1 and c4 = counters 4 in
  Alcotest.(check (list (pair string int))) "jobs=1 = jobs=4" c1 c4;
  Alcotest.(check bool) "bmoc counters present" true
    (List.mem_assoc "bmoc.solver_calls" c1)

(* ------------------------------------------- skip diagnostic detail --- *)

let test_skip_diag_enriched () =
  let cfg =
    {
      Gcatch.Bmoc.default_config with
      path_cfg =
        { Gcatch.Pathenum.default_config with solver_timeout_ms = Some 0 };
    }
  in
  let ir = Pipeline.compile_ir ~name:"skip" [ multi_chan ] in
  let skipped = (Gcatch.Bmoc.detect_full ~cfg ir).Gcatch.Bmoc.f_skipped in
  Alcotest.(check bool) "something skipped" true (skipped <> []);
  let sk = List.hd skipped in
  Alcotest.(check bool) "budget recorded" true
    (sk.Gcatch.Bmoc.sk_budget_ms = Some 0);
  Alcotest.(check bool) "elapsed is non-negative" true
    (sk.Gcatch.Bmoc.sk_elapsed_ms >= 0.0);
  let d = Gcatch.Passes.skip_diag sk in
  let msg = d.Goengine.Diagnostics.message in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("skip message mentions " ^ needle) true
        (contains ~needle msg))
    [ "solver budget exhausted after"; "budget 0 ms"; "path event(s)" ]

(* -------------------------------------------- engine registry unity --- *)

let test_engine_counters_from_registry () =
  let reg = M.create () in
  let e = Gcatch.Passes.engine ~registry:reg () in
  ignore (E.analyse e ~name:"u" [ multi_chan ]);
  ignore (E.analyse e ~name:"u" [ multi_chan ]);
  Alcotest.(check int) "stage counter via engine accessor" 1
    (E.counter_value e "stage.parse.runs");
  Alcotest.(check int) "cache hit via shared registry" 1
    (M.value (M.counter reg "engine.cache_hits"));
  Alcotest.(check bool) "pass metrics folded into the same registry" true
    (M.value (M.counter reg "bmoc.channels_analysed") > 0);
  Alcotest.(check bool) "stats_str served from the registry" true
    (contains ~needle:"1 hit(s)" (E.stats_str e))

(* ------------------------------------------- bucket schema round-trip --- *)

(* Satellite (b): both exporters render the one shared
   [cumulative_buckets] schema — occupied buckets only, cumulative
   counts, identified by upper bound — so the JSON and Prometheus views
   of a histogram round-trip through the same (le, n) pairs. *)
let test_histogram_bucket_round_trip () =
  let t = M.create () in
  let h = M.histogram t "solve.ms" in
  List.iter (M.observe h) [ 0.7; 1.8; 1.9; 120.0 ];
  let buckets = M.cumulative_buckets h in
  Alcotest.(check bool) "occupied buckets only" true (List.length buckets <= 4);
  Alcotest.(check bool) "at least one bucket" true (buckets <> []);
  let rec mono = function
    | (_, a) :: ((_, b) :: _ as tl) -> a <= b && mono tl
    | _ -> true
  in
  Alcotest.(check bool) "cumulative counts are monotone" true (mono buckets);
  (match List.rev buckets with
  | (_, last) :: _ -> Alcotest.(check int) "last bucket = count" 4 last
  | [] -> ());
  let p = M.to_prometheus t and j = M.to_json t in
  Alcotest.(check bool) "json exposes a buckets array" true
    (contains ~needle:{|"buckets":[|} j);
  List.iter
    (fun (upper, cum) ->
      let fu = M.fmt_float upper in
      let prom = Printf.sprintf {|_bucket{le="%s"} %d|} fu cum in
      let js = Printf.sprintf {|{"le":%s,"n":%d}|} fu cum in
      Alcotest.(check bool) ("prometheus renders " ^ prom) true
        (contains ~needle:prom p);
      Alcotest.(check bool) ("json renders " ^ js) true (contains ~needle:js j))
    buckets;
  (* an empty histogram has no occupied buckets and zero percentiles *)
  let t2 = M.create () in
  let h2 = M.histogram t2 "empty.ms" in
  Alcotest.(check int) "empty -> no buckets" 0
    (List.length (M.cumulative_buckets h2));
  Alcotest.(check bool) "empty buckets array in json" true
    (contains ~needle:{|"buckets":[]|} (M.to_json t2));
  Alcotest.(check (float 1e-9)) "empty p50" 0.0 (M.percentile h2 0.5);
  Alcotest.(check (float 1e-9)) "empty p95" 0.0 (M.percentile h2 0.95);
  Alcotest.(check (float 1e-9)) "empty p100" 0.0 (M.percentile h2 1.0)

(* -------------------------------------------------- structured logging --- *)

let test_log_json_format () =
  with_sink (fun lines ->
      Log.set_level Log.Debug;
      Log.set_format Log.Json;
      Fun.protect
        ~finally:(fun () -> Log.set_format Log.Text)
        (fun () ->
          Log.warn
            ~kv:[ ("channel", "ch1"); ("note", {|a "quote"|}) ]
            "budget exhausted");
      match !lines with
      | [ l ] ->
          Alcotest.(check bool) "balanced json" true (balanced l);
          List.iter
            (fun needle ->
              Alcotest.(check bool) ("line has " ^ needle) true
                (contains ~needle l))
            [
              {|"ts_ms":|};
              {|"level":"warn"|};
              {|"msg":"budget exhausted"|};
              {|"channel":"ch1"|};
              {|"note":"a \"quote\""|};
            ]
      | ls -> Alcotest.failf "expected 1 line, got %d" (List.length ls))

(* -------------------------------------------------- telemetry endpoints --- *)

let test_telemetry_endpoints () =
  let reg = M.create () in
  M.add (M.counter reg "health.attempted") 2;
  M.add (M.counter reg "health.ok") 2;
  let handlers =
    [
      ("/metrics", fun () -> Telemetry.text (M.to_prometheus reg));
      ( "/healthz",
        fun () ->
          let ok, body = Supervise.healthz_json ~reg () in
          Telemetry.json ~status:(if ok then 200 else 503) body );
      ("/vars", fun () -> Telemetry.json {|{"x":1}|});
    ]
  in
  match Telemetry.start ~addr:"127.0.0.1:0" ~handlers () with
  | Error e -> Alcotest.failf "telemetry start: %s" e
  | Ok t ->
      Fun.protect
        ~finally:(fun () -> Telemetry.stop t)
        (fun () ->
          Alcotest.(check bool) "ephemeral port chosen" true
            (Telemetry.port t > 0);
          let code, body = Telemetry.fetch t "/metrics" in
          Alcotest.(check int) "/metrics 200" 200 code;
          Alcotest.(check bool) "prometheus body" true
            (contains ~needle:"gcatch_health_attempted 2" body);
          let code, body = Telemetry.fetch t "/healthz" in
          Alcotest.(check int) "/healthz 200 when healthy" 200 code;
          Alcotest.(check bool) "ok:true" true
            (contains ~needle:{|"ok":true|} body);
          (* injected deadline breach: the watchdog trips and /healthz
             flips to 503 with the reason, then recovers on clear *)
          Supervise.set_deadline_ms (-1);
          Fun.protect ~finally:Supervise.clear_deadline (fun () ->
              let code, body = Telemetry.fetch t "/healthz" in
              Alcotest.(check int) "/healthz 503 under pressure" 503 code;
              Alcotest.(check bool) "pressure reason" true
                (contains ~needle:"deadline exceeded" body));
          let code, _ = Telemetry.fetch t "/healthz" in
          Alcotest.(check int) "recovers after clear_deadline" 200 code;
          let code, _ = Telemetry.fetch t "/vars" in
          Alcotest.(check int) "/vars 200" 200 code;
          let code, _ = Telemetry.fetch t "/nope" in
          Alcotest.(check int) "unknown path 404" 404 code)

(* ------------------------------------------------------------ journal --- *)

let test_journal_truncation_recovery () =
  let path = Filename.temp_file "gcatch-journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with _ -> ())
    (fun () ->
      Journal.open_ ~path;
      Journal.emit ~event:"run.start"
        [ ("name", Journal.S "t"); ("files", Journal.I 1) ];
      Journal.emit ~dur_ms:1.5 ~event:"stage.done"
        [ ("stage", Journal.S "parse") ];
      Journal.close ();
      (* a SIGKILLed run leaves a half-written final line *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc {|{"seq":9,"ts_ms":123.0,"event":"pass.|};
      close_out oc;
      let sum = Journal.summarize_file path in
      Alcotest.(check bool) "truncation flagged" true sum.Journal.s_truncated;
      (* the valid prefix still parses: open, run.start, stage.done, close *)
      Alcotest.(check int) "valid prefix parsed" 4 sum.Journal.s_events;
      Alcotest.(check bool) "schema recovered" true
        (sum.Journal.s_schema = Some Journal.schema);
      Alcotest.(check bool) "run name recovered" true
        (sum.Journal.s_run_name = Some "t");
      let rep = Journal.report sum in
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("report mentions " ^ needle) true
            (contains ~needle rep))
        [ "gcatch journal report"; "truncated"; "per-stage wall time" ])

(* The journal reader is a flat-object view over the shared JSON parser:
   scalars only, and [None] for anything else, truncated lines included. *)
let test_journal_parse_line () =
  Alcotest.(check bool) "flat object" true
    (Journal.parse_line
       {|{"seq":3,"ts_ms":1.500,"event":"e\n","ok":true,"n":null}|}
    = Some
        [
          ("seq", Journal.I 3);
          ("ts_ms", Journal.F 1.5);
          ("event", Journal.S "e\n");
          ("ok", Journal.B true);
          ("n", Journal.S "");
        ]);
  List.iter
    (fun l ->
      Alcotest.(check bool) ("rejects " ^ l) true (Journal.parse_line l = None))
    [
      {|{"seq":9,"ts_ms":123.0,"event":"pass.|};
      {|{"a":[1]}|};
      {|{"a":{"b":1}}|};
      {|[1]|};
      {|{"a":1} x|};
      "";
    ]

(* Normalize a journal for cross-schedule comparison the same way the CI
   step does: drop schedule-dependent pool.* events, strip the volatile
   fields (seq, ts_ms, dur_ms, pid), then sort. *)
let normalized_journal path =
  let ic = open_in_bin path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !lines
  |> List.filter_map (fun l ->
         match Journal.parse_line l with
         | None -> Some ("UNPARSED:" ^ l)
         | Some fields ->
             let ev =
               Option.value (Journal.str_field fields "event") ~default:""
             in
             if String.length ev >= 5 && String.sub ev 0 5 = "pool." then None
             else
               Some
                 (String.concat ","
                    (List.filter_map
                       (fun (k, v) ->
                         match k with
                         | "seq" | "ts_ms" | "dur_ms" | "pid" -> None
                         | _ ->
                             Some
                               (k ^ "="
                               ^
                               match v with
                               | Journal.S s -> s
                               | Journal.I i -> string_of_int i
                               | Journal.F f -> Printf.sprintf "%g" f
                               | Journal.B b -> string_of_bool b))
                       fields)))
  |> List.sort compare

let test_journal_determinism_across_jobs () =
  let run jobs =
    let path = Filename.temp_file "gcatch-journal" ".jsonl" in
    Journal.open_ ~path;
    let e = Gcatch.Passes.engine ~jobs () in
    ignore (E.analyse e ~name:"det" [ multi_chan ]);
    Journal.close ();
    path
  in
  let p1 = run 1 in
  let p4 = run 4 in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with _ -> ()) [ p1; p4 ])
    (fun () ->
      let n1 = normalized_journal p1 and n4 = normalized_journal p4 in
      Alcotest.(check bool) "nothing unparseable" true
        (not (List.exists (contains ~needle:"UNPARSED:") n1));
      Alcotest.(check (list string)) "normalized journals identical" n1 n4;
      Alcotest.(check bool) "solve events present" true
        (List.exists (contains ~needle:"event=solve.") n1);
      Alcotest.(check bool) "run end present" true
        (List.exists (contains ~needle:"event=run.end") n1))

(* ------------------------------------------------------------ sampler --- *)

let test_sampler_stack_table () =
  Sampler.reset ();
  Sampler.note_stacks [ (1, [ "run"; "stage.parse" ]); (2, [ "run" ]) ];
  Sampler.note_stacks [ (1, [ "run"; "stage.parse" ]) ];
  Sampler.note_stacks [ (2, [ "run" ]) ];
  Alcotest.(check int) "stack samples" 4 (Sampler.total_samples ());
  Alcotest.(check int) "ticks" 3 (Sampler.tick_count ());
  let c = Sampler.collapsed () in
  Alcotest.(check bool) "collapsed spine line" true
    (contains ~needle:"run;stage.parse 2\n" c);
  Alcotest.(check bool) "collapsed root line" true
    (contains ~needle:"run 2\n" c);
  (match Sampler.top 1 with
  | [ (_, n) ] -> Alcotest.(check int) "top-1 count" 2 n
  | l -> Alcotest.failf "expected 1 top entry, got %d" (List.length l));
  let rep = Sampler.report ~top:5 () in
  Alcotest.(check bool) "report header" true
    (contains ~needle:"sampling profiler: 4 stack sample(s)" rep);
  Sampler.reset ();
  Alcotest.(check int) "reset clears the table" 0 (Sampler.total_samples ())

(* The sampler must never perturb results: diagnostics are byte-identical
   with the ticker domain running (spine-only tracing armed) and without,
   at jobs=1 and jobs=4. *)
let test_sampler_diag_equality () =
  let diags ~sample jobs =
    let s =
      if sample then begin
        Trace.enable_spines ();
        Some (Sampler.start ~hz:500)
      end
      else None
    in
    let e = Gcatch.Passes.engine ~jobs () in
    let r = E.analyse e ~name:"s" [ multi_chan ] in
    (match s with
    | Some s ->
        Sampler.stop s;
        Trace.disable ();
        Sampler.reset ()
    | None -> ());
    D.list_to_json r.E.r_diags
  in
  List.iter
    (fun jobs ->
      let off = diags ~sample:false jobs in
      let on = diags ~sample:true jobs in
      Alcotest.(check string)
        (Printf.sprintf "diagnostics identical sampler on/off, jobs=%d" jobs)
        off on)
    [ 1; 4 ]

let tests =
  [
    Alcotest.test_case "log line format" `Quick test_log_format;
    Alcotest.test_case "log levels" `Quick test_log_levels;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "histogram percentiles" `Quick
      test_histogram_percentiles;
    Alcotest.test_case "counters and merge" `Quick test_counters_and_merge;
    Alcotest.test_case "prometheus export" `Quick test_prometheus_export;
    Alcotest.test_case "metrics json" `Quick test_metrics_json;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "spans across pool domains" `Quick
      test_spans_across_pool_domains;
    Alcotest.test_case "disabled tracer is a no-op" `Quick
      test_disabled_tracer_noop;
    Alcotest.test_case "chrome export shape" `Quick test_chrome_export_shape;
    Alcotest.test_case "profile report" `Quick test_profile_report;
    Alcotest.test_case "profile keeps the slowest samples" `Quick
      test_profile_bounded;
    Alcotest.test_case "metrics determinism across jobs" `Quick
      test_metrics_determinism_across_jobs;
    Alcotest.test_case "skip diagnostic enriched" `Quick
      test_skip_diag_enriched;
    Alcotest.test_case "engine counters from registry" `Quick
      test_engine_counters_from_registry;
    Alcotest.test_case "histogram bucket round-trip" `Quick
      test_histogram_bucket_round_trip;
    Alcotest.test_case "log json format" `Quick test_log_json_format;
    Alcotest.test_case "telemetry endpoints" `Quick test_telemetry_endpoints;
    Alcotest.test_case "journal truncation recovery" `Quick
      test_journal_truncation_recovery;
    Alcotest.test_case "journal determinism across jobs" `Quick
      test_journal_determinism_across_jobs;
    Alcotest.test_case "sampler stack table" `Quick test_sampler_stack_table;
    Alcotest.test_case "sampler diagnostic equality" `Quick
      test_sampler_diag_equality;
    Alcotest.test_case "journal line parser" `Quick test_journal_parse_line;
  ]
