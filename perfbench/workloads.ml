(* The four workloads.  Each returns an [outcome]; main.ml turns it into
   the metrics and the result line. *)

module E = Goengine.Engine
module M = Goobs.Metrics
module J = Goserve.Proto
module R = Gcatch.Report
module Passes = Gcatch.Passes
module Score = Goreport.Score

type params = { seed : int; seconds : float; trace : bool; quick : bool }

(* Times and rates are as measured, except those marked scaled: a
   workload that takes machine probes multiplies them (divides a rate) by
   the scale of the probe taken next to them (see probe.ml). *)
type outcome = {
  setup_s : float list; (* one sample per set-up *)
  lat_ms : float list; (* one sample per measured operation *)
  lat_scale : float list; (* what each of those is multiplied by *)
  throughput : float; (* operations per second the system sustained, scaled *)
  throughput_ops : int; (* the operations that rate counts *)
  rss_mb : float;
  cpu_ms : float; (* CPU time of the system under test per operation, scaled *)
  cpu_ops : int; (* the operations that CPU time is spread over *)
  attempted : int;
  failed : int;
  lateness_ms : float list; (* how late the generator issued each operation *)
  checks : (string * bool) list; (* oracles and self-checks *)
  layers : (string * float * string) list; (* traced run only *)
  notes : string list;
  probe_s : float list; (* every machine probe sample of the run *)
}

(* Several set-ups per run, so set-up time is a median too. *)
let setups = 3

(* Domains each system under test fans out over.  The one-shot scan
   uses both cores of a two-core machine, where the work-stealing pool
   pays for itself (a cold scan is about 15% faster than with one job).
   On the other workloads two jobs there are no faster — slower for
   serve-open — and double the run-to-run spread, so they run with one. *)
let scan_jobs = 2
let jobs = 1

let detector = { Gcatch.Bmoc.default_config with cache_dir = None }

let count p xs = List.length (List.filter p xs)
let ms_of s = 1000.0 *. s

(* How many operations a window of [seconds] measures: as many as take
   that long at [nominal_s] each (the operation's time, scaled, when the
   benchmark was written), and at least [min_ops].  The count, not the
   clock, ends a window, so two commits do the same work: under a time
   limit a faster commit would do more operations, and a daemon, whose
   caches and heap grow with every never-seen edit, would end in a
   different state. *)
let ops_for ?(min_ops = 2) ~nominal_s seconds =
  max min_ops (int_of_float (Float.round (seconds /. nominal_s)))

(* One operation of a closed loop: its result, when it was ready to go,
   its wall time from then, and what its times are multiplied by: the
   scale of the machine probe taken just before it. *)
type 'a op = { res : 'a; ready : float; busy : float; scale : float }

(* Run [op] [count] times, taking a machine probe before each. *)
let loop ~probe ~count op =
  List.init count (fun i ->
      let scale = Probe.scale (Probe.take probe) in
      let ready = Util.now () in
      let res = op i in
      { res; ready; busy = Util.now () -. ready; scale })

(* Operations per second of a closed loop, each operation's wall time
   scaled. *)
let loop_rate ops =
  float_of_int (List.length ops)
  /. List.fold_left (fun acc o -> acc +. (o.busy *. o.scale)) 0.0 ops

(* Lateness of a closed loop: how long after it was ready each operation
   started (the generator's own overhead). *)
let closed_lateness ops start = List.map (fun o -> ms_of (start o.res -. o.ready)) ops

(* ------------------------------------------------------ engine view --- *)

(* What the system's own metrics export says about the measured
   operations: [samples] is the Prometheus delta over [ops] operations,
   [runs] pairs each operation's client-side latency with the analysis
   time its run JSON reports (both ms). *)
let engine_view ~samples ~ops ~runs =
  let s = Util.sample samples and h = Util.sample ~suffix:"_sum" samples in
  let per v = v /. float_of_int (max 1 ops) in
  let ratio a b = if a +. b = 0.0 then 0.0 else a /. (a +. b) in
  let frontend =
    List.fold_left
      (fun acc st -> acc +. h ("stage." ^ st ^ ".ms"))
      0.0
      [ "lex"; "parse"; "sig"; "typecheck"; "lower"; "assemble"; "facts" ]
  in
  let passes =
    List.fold_left
      (fun acc (k, v) ->
        if
          String.starts_with ~prefix:"gcatch_pass_" k
          && String.ends_with ~suffix:"_ms_sum" k
        then acc +. v
        else acc)
      0.0 samples
  in
  let outside = List.map (fun (lat, run) -> lat -. run) runs in
  [
    ("engine.request_ms", Util.median (List.map snd runs), "ms");
    ("engine.frontend_ms", per frontend, "ms");
    ("engine.passes_ms", per passes, "ms");
    ("engine.files_relexed", per (s "stage.lex.runs"), "count");
    ("engine.files_parsed", per (s "stage.parse.runs"), "count");
    ("engine.pass_cache_hit", per (s "engine.pass_cache_hit"), "count");
    ( "engine.artifact_hit_ratio",
      ratio (s "engine.cache_hits") (s "engine.cache_misses"),
      "ratio" );
    ("bmoc.channels", per (s "bmoc.channels_analysed"), "count");
    ("bmoc.solver_calls", per (s "bmoc.solver_calls"), "count");
    ("sat.conflicts", per (s "bmoc.sat_conflicts"), "count");
    ("sat.propagations", per (s "bmoc.sat_propagations"), "count");
    ( "solve_cache.hit_ratio",
      ratio (s "bmoc.solve_cache_hit") (s "bmoc.solve_cache_miss"),
      "ratio" );
    ( "solve_cache.lookups",
      per (s "bmoc.solve_cache_hit" +. s "bmoc.solve_cache_miss"),
      "count" );
    ("pool.tasks_spawned", per (s "sched.tasks_spawned"), "count");
    ("pool.tasks_stolen", per (s "sched.tasks_stolen"), "count");
    ("overhead.p50_ms", Util.median outside, "ms");
    ("overhead.p90_ms", Util.quantile outside 0.9, "ms");
  ]

(* The serving counters over a window; zero for workloads without a
   daemon. *)
let serve_view samples =
  let s = Util.sample samples in
  [
    ("serve.coalesced", s "serve.coalesced", "count");
    ("serve.rejected", s "serve.rejected", "count");
    ("serve.unavailable", s "serve.unavailable", "count");
  ]

(* [Serve.parse_req] timed on the request bodies a client sends for the
   measured operations ([per_op] bodies each), median of five passes. *)
let proto_view ~per_op bodies =
  let time () =
    let t0 = Util.now () in
    List.iter
      (fun b ->
        match Goserve.Serve.parse_req b with
        | Ok _ -> ()
        | Error e -> failwith ("request body does not parse: " ^ e))
      bodies;
    Util.now () -. t0
  in
  let n = float_of_int (max 1 (List.length bodies)) in
  let bytes = List.fold_left (fun acc b -> acc + String.length b) 0 bodies in
  [
    ( "proto.parse_ms",
      ms_of (Util.median (List.init 5 (fun _ -> time ()))) /. n *. per_op,
      "ms" );
    ("proto.body_kb", float_of_int bytes /. 1024.0 /. n *. per_op, "KB");
  ]

(* GC counters: the runtime's exit report (OCAMLRUNPARAM=v=0x400) of a
   child, or a [Gc.quick_stat] delta of this process, per operation. *)
let gc_view ~ops ~allocated_words ~major_collections ~top_heap_words =
  let mb w = w *. float_of_int (Sys.word_size / 8) /. 1048576.0 in
  let per v = v /. float_of_int (max 1 ops) in
  [
    ("gc.allocated_mb", per (mb allocated_words), "MB");
    ("gc.major_collections", per major_collections, "count");
    ("gc.top_heap_mb", mb top_heap_words, "MB");
  ]

let gc_of_exit_report text =
  let field k =
    List.find_map
      (fun l ->
        match String.index_opt l ':' with
        | Some i when String.sub l 0 i = k ->
            float_of_string_opt
              (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | _ -> None)
      (String.split_on_char '\n' text)
    |> Option.value ~default:nan
  in
  (field "allocated_words", field "major_collections", field "top_heap_words")

(* The traced run measures the system's own tracing overhead on
   neighbouring operations, one traced and one plain, so both see the
   machine in the same state: one-shots with and without --trace-out,
   corpus passes with Goobs.Trace on and off, or the same request sent
   to a journaled and a plain daemon.  Operations go plain, traced,
   traced, plain, ..., so which side runs first alternates from pair to
   pair. *)
let traced_turn ~trace i = trace && (i mod 4 = 1 || i mod 4 = 2)

(* (traced, plain) times of the pairs (0, 1), (2, 3), ... of [ops], each
   given as (traced?, time). *)
let rec neighbour_pairs = function
  | (ta, a) :: (_, b) :: rest -> (if ta then (a, b) else (b, a)) :: neighbour_pairs rest
  | _ -> []

let overhead_view pairs =
  [
    ( "trace.overhead_pct",
      100.0 *. (Util.median (List.map (fun (t, p) -> t /. p) pairs) -. 1.0),
      "%" );
  ]

(* --------------------------------------------------- attribution --- *)

(* The traced run's attribution: replay each timed program version
   through the public calls, then time the same work done by a one-job
   engine, and check both found the same reports.  Replay and engine
   alternate version by version, so both see the machine in the same
   state.  The [warm] versions are analysed first, untimed, by both; the
   timed ones then reuse their per-file results and solve cache, as a
   long-lived daemon does.  Without warm versions every timed version is
   analysed cold, on each side.  Writes the span trace and the
   self-time table under the work directory. *)
let attribute ~workload ~seed ?(warm = []) ?(fix = fun _ _ -> false)
    (timed : (string * string list) list) =
  let reset = Gcatch.Solve_cache.reset_memory in
  let cold = warm = [] in
  let new_engine () = Passes.engine ~cfg:detector ~jobs:1 () in
  let memo = Layers.new_memo () and engine = new_engine () in
  reset ();
  List.iter
    (fun (name, sources) ->
      ignore (Layers.analyse ~memo ~name sources);
      ignore (E.analyse engine ~name sources))
    warm;
  Layers.spans := [];
  Gc.full_major ();
  let reference = ref 0.0 in
  let replayed =
    List.map
      (fun (name, sources) ->
        if cold then reset ();
        let memo = if cold then Layers.new_memo () else memo in
        let ((found : Layers.found), _) as r =
          Layers.analyse ~memo ~fix:(fix name) ~name sources
        in
        if cold then reset ();
        let e = if cold then new_engine () else engine in
        let t0 = Util.now () in
        let run = E.analyse e ~name sources in
        reference := !reference +. (Util.now () -. t0);
        ( r,
          List.length (Passes.bmoc_bugs run.E.r_diags)
          = List.length found.Layers.bmoc_bugs
          && List.length (Passes.trad_bugs run.E.r_diags) = found.Layers.trad_bugs ))
      timed
  in
  let enumerated =
    List.fold_left
      (fun (c, e) ((_, (c', e')), _) -> (c + c', e + e'))
      (0, 0) replayed
  in
  let fixed =
    List.fold_left
      (fun acc (((f : Layers.found), _), _) -> acc + f.Layers.fixed)
      0 replayed
  in
  let ops = List.length timed in
  let table = Layers.table ~ops ~reference_s:!reference in
  let out = Filename.concat Util.work_root "out" in
  Util.mkdir_p out;
  let base = Filename.concat out (Printf.sprintf "%s-seed%d" workload seed) in
  Util.write_file (base ^ ".trace.json") (Layers.chrome_json ());
  Util.write_file (base ^ ".layers.txt") table;
  ( Layers.metrics ~ops ~reference_s:!reference ~enumerated ~fixed,
    ("replay finds what the engine finds", List.for_all snd replayed),
    table )

let table_note workload table =
  Printf.sprintf "per-layer self time (%s, per operation):\n%s" workload table

(* ------------------------------------------------------ scan-large --- *)

type one_shot = {
  o_wall : float;
  o_rss : float;
  o_cpu : float;
  o_ok : bool;
  o_cold : bool;
  o_traced : bool;
  o_elapsed_ms : float;
  o_start : float;
}

(* Cold one-shot `gcatch --json -j 2` processes over the large benign
   application, written once to the work directory. *)
let scan p =
  let dir = Util.fresh_dir "scan" in
  let sources = Inputs.large_app ~seed:p.seed ~quick:p.quick in
  let files =
    List.mapi
      (fun i src ->
        let f = Filename.concat dir (Printf.sprintf "f%02d.go" i) in
        Util.write_file f src;
        f)
      sources
  in
  let out = Filename.concat dir "out.json" and err = Filename.concat dir "err.txt" in
  let trace_out = Filename.concat dir "trace.json"
  and metrics_out = Filename.concat dir "metrics.prom" in
  let cli ?env args = Util.run_child ?env ~stdout:out ~stderr:err Util.cli_exe args in
  let probe = Probe.create ~domains:scan_jobs () in
  Probe.take_n probe 3;
  let setup =
    (* a start-up takes a few milliseconds, so it gets many samples, and
       is timed without the RSS sampler thread [Util.run_child] runs *)
    List.init 51 (fun _ ->
        let t0 = Util.now () in
        let pid = Util.spawn ~stdout:out ~stderr:err Util.cli_exe [ "--list-passes" ] in
        let st = Util.waitpid_noeintr pid in
        (Util.exit_code st = 0, Util.now () -. t0))
  in
  let traced_env = Util.child_env ~extra:[ "OCAMLRUNPARAM=v=0x400" ] () in
  let last_samples = ref [] and last_gc = ref (nan, nan, nan) in
  let one i =
    let traced = traced_turn ~trace:p.trace i in
    let args =
      [ "--json"; "-j"; string_of_int scan_jobs ]
      @ (if traced then [ "--trace-out"; trace_out; "--metrics-out"; metrics_out ]
         else [])
      @ files
    in
    let start = Util.now () in
    let code, wall, rss, cpu =
      cli ?env:(if traced then Some traced_env else None) args
    in
    let run = try Util.read_file out with Sys_error _ -> "" in
    if traced then begin
      last_samples := Util.parse_prometheus (Util.read_file metrics_out);
      last_gc := gc_of_exit_report (Util.read_file err)
    end;
    {
      o_wall = wall;
      o_rss = rss;
      o_cpu = cpu;
      o_ok = code = 0 && Oracle.benign_run run;
      o_cold = J.member_raw "from_cache" run = Some "false";
      o_traced = traced;
      o_elapsed_ms = Oracle.run_elapsed_ms run;
      o_start = start;
    }
  in
  let timed =
    loop ~probe
      ~count:(ops_for ~min_ops:(if p.trace then 4 else 2) ~nominal_s:2.0 p.seconds)
      one
  in
  let ops = List.map (fun o -> o.res) timed in
  let plain = List.filter (fun o -> not o.res.o_traced) timed in
  let layers, checks, notes =
    if not p.trace then ([], [], [])
    else begin
      let attr, same, table =
        attribute ~workload:"scan-large" ~seed:p.seed [ ("cli", sources) ]
      in
      let allocated_words, major_collections, top_heap_words = !last_gc in
      ( attr
        @ engine_view ~samples:!last_samples ~ops:1
            ~runs:(List.map (fun o -> (ms_of o.res.o_wall, o.res.o_elapsed_ms)) plain)
        @ gc_view ~ops:1 ~allocated_words ~major_collections ~top_heap_words
        @ proto_view ~per_op:1.0 [ Inputs.full_body sources ]
        @ serve_view []
        @ overhead_view (neighbour_pairs (List.map (fun o -> (o.o_traced, o.o_wall)) ops)),
        [ same ],
        [ table_note "scan-large" table ] )
    end
  in
  let bad = count (fun o -> not o.o_ok) ops + count (fun (ok, _) -> not ok) setup in
  {
    setup_s = List.map snd setup;
    lat_ms = List.map (fun o -> ms_of o.res.o_wall) plain;
    lat_scale = List.map (fun o -> o.scale) plain;
    throughput = loop_rate timed;
    throughput_ops = List.length ops;
    rss_mb = Util.median (List.map (fun o -> o.o_rss) ops);
    cpu_ms = Util.median (List.map (fun o -> ms_of o.res.o_cpu *. o.scale) plain);
    cpu_ops = List.length plain;
    attempted = List.length ops + List.length setup;
    failed = bad;
    lateness_ms = closed_lateness timed (fun o -> o.o_start);
    checks =
      [
        ( "every one-shot exited 0 with no diagnostics and clean health",
          List.for_all (fun o -> o.o_ok) ops );
        ( "every one-shot ran cold (from_cache false)",
          List.for_all (fun o -> o.o_cold) ops );
        ("--list-passes start-up exited 0", List.for_all fst setup);
      ]
      @ checks;
    layers;
    notes =
      Printf.sprintf "app: %d files, %d lines" (List.length sources) (Inputs.loc sources)
      :: notes;
    probe_s = probe.samples;
  }

(* ---------------------------------------------------------- corpus --- *)

(* One corpus pass: the 21 corpus applications and the 49 bug-set
   programs through a fresh engine with an empty solve cache, in the
   seeded order.  Each application is scored as E1 scores it
   ([Score.score_app]: detection, classification against the seeded
   ground truth, GFix on the channel-only true positives); each bug-set
   program is analysed by the engine and counts as detected when BMOC
   reports it.  Returns the totals, whether no analysis unit degraded,
   was skipped or retried, each application's GFix targets and the
   per-program analysis times (ms). *)
type item = App of Gocorpus.Apps.app | Bug of Gocorpus.Bugset.entry

let item_input = function
  | App a -> (a.Gocorpus.Apps.spec.name, a.sources)
  | Bug b -> (b.Gocorpus.Bugset.bs_name, [ "package b\n" ^ b.bs_src ])

(* A BMOC report by its channel and blocked operations: the solver's
   witness may differ between runs with different solve-cache contents. *)
let bug_key (b : R.bmoc_bug) =
  (b.R.channel, List.sort compare (List.map (fun o -> o.R.bo_pp) b.R.blocked))

(* Health counts of the process registry, which both the engine and the
   detectors [Score.score_app] calls report to. *)
let unclean_units () =
  Goengine.Supervise.health_unclean
    (Goengine.Supervise.health_of (M.counters_list M.default))

let corpus_pass items =
  Gcatch.Solve_cache.reset_memory ();
  let e = Passes.engine ~cfg:detector ~jobs ~registry:M.default () in
  let unclean0 = unclean_units () in
  let detected = ref 0 in
  let results =
    List.map
      (fun item ->
        match item with
        | App app ->
            let s = Score.score_app ~engine:e ~cfg:detector app in
            (Some s, ms_of s.Score.elapsed_s)
        | Bug _ ->
            let name, sources = item_input item in
            let r = E.analyse e ~name sources in
            if Passes.bmoc_bugs r.E.r_diags <> [] then incr detected;
            (None, ms_of r.E.r_elapsed_s))
      items
  in
  let scores = List.filter_map fst results in
  ( Oracle.corpus_totals scores ~bugset_detected:!detected,
    unclean_units () = unclean0,
    List.map (fun s -> (s.Score.name, List.map fst s.Score.fix_details)) scores,
    List.map snd results )

let corpus_items ~seed =
  let items =
    List.map (fun a -> App a) (Gocorpus.Apps.all ())
    @ List.map (fun b -> Bug b) Gocorpus.Bugset.entries
  in
  (* the seed picks the order programs are analysed in *)
  let st = Inputs.rng (seed + 3) in
  List.map snd
    (List.sort
       (fun (a, _) (b, _) -> compare a b)
       (List.map (fun i -> (Random.State.bits st, i)) items))

(* The corpus child process: prints one line per fact for the parent. *)
let corpus_child ~setup_only p =
  let items = corpus_items ~seed:p.seed in
  let say = Util.say in
  let pass () =
    let cpu0 = Util.self_cpu_s () and t0 = Util.now () in
    let t, clean, targets, times = corpus_pass items in
    let wall = Util.now () -. t0 and cpu = Util.self_cpu_s () -. cpu0 in
    (t, clean, targets, times, wall, cpu)
  in
  (* warm-up pass: what set-up costs before the first timed pass *)
  let t, _, _, _, _, _ = pass () in
  say "warmup %d %s" (Bool.to_int (Oracle.corpus_ok t)) (Oracle.corpus_str t);
  if not setup_only then begin
    let registry = M.default in
    let before = Util.parse_prometheus (M.to_prometheus registry) in
    let gc0 = Gc.quick_stat () in
    let one i =
      let traced = traced_turn ~trace:p.trace i in
      if traced then Goobs.Trace.enable ();
      let start = Util.now () in
      let t, clean, targets, times, wall, cpu = pass () in
      if traced then begin
        ignore (Goobs.Trace.drain ());
        Goobs.Trace.disable ()
      end;
      if not (Oracle.corpus_ok t) then
        say "note pass %d totals %s" i (Oracle.corpus_str t);
      (wall, traced, times, targets, (cpu, Oracle.corpus_ok t && clean, start))
    in
    let probe = Probe.create () in
    let timed =
      loop ~probe
        ~count:(ops_for ~min_ops:(if p.trace then 4 else 2) ~nominal_s:0.75 p.seconds)
        one
    in
    List.iter
      (fun o ->
        let wall, _, _, _, (cpu, ok, start) = o.res in
        say "pass %.17g %.17g %d %.17g %.17g %.17g %.17g" wall cpu (Bool.to_int ok) start
          o.ready o.busy o.scale)
      timed;
    List.iter (say "probe %.17g") probe.samples;
    let passes =
      List.map (fun { res = w, tr, times, targets, _; _ } -> (w, tr, times, targets)) timed
    in
    let gc1 = Gc.quick_stat () in
    say "rss %.17g" (Option.value (Util.peak_rss_mb ()) ~default:nan);
    if p.trace then begin
      let after = Util.parse_prometheus (M.to_prometheus registry) in
      let n = List.length passes in
      let plain = List.filter (fun (_, tr, _, _) -> not tr) passes in
      let layer (name, v, unit) = say "layer %s %.17g %s" name v unit in
      (* the replay runs GFix on the reports the scored passes fixed *)
      let _, _, _, targets = List.hd passes in
      let attr, (what, same), table =
        attribute ~workload:"corpus" ~seed:p.seed
          ~fix:(fun name b ->
            List.mem (bug_key b)
              (List.map bug_key
                 (Option.value (List.assoc_opt name targets) ~default:[])))
          (List.map item_input items)
      in
      List.iter layer attr;
      List.iter layer
        (engine_view ~samples:(Util.delta ~before ~after) ~ops:n
           ~runs:
             (List.map
                (fun (wall, _, times, _) ->
                  (ms_of wall, List.fold_left ( +. ) 0.0 times))
                plain));
      List.iter layer
        (gc_view ~ops:n
           ~allocated_words:
             (gc1.Gc.minor_words +. gc1.Gc.major_words -. gc1.Gc.promoted_words
             -. (gc0.Gc.minor_words +. gc0.Gc.major_words -. gc0.Gc.promoted_words))
           ~major_collections:
             (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections))
           ~top_heap_words:(float_of_int gc1.Gc.top_heap_words));
      List.iter layer
        (proto_view ~per_op:(float_of_int (List.length items))
           (List.map (fun i -> Inputs.full_body (snd (item_input i))) items));
      List.iter layer (serve_view []);
      List.iter layer
        (overhead_view
           (neighbour_pairs (List.map (fun (w, traced, _, _) -> (traced, w)) passes)));
      say "check %d %s" (Bool.to_int same) what;
      String.split_on_char '\n' (table_note "corpus" table)
      |> List.iter (fun l -> if l <> "" then say "note %s" l)
    end
  end

(* Parent side: three set-up-only children, then one measuring child. *)
let corpus p =
  let dir = Util.fresh_dir "corpus" in
  let child ~name extra =
    let out = Filename.concat dir (name ^ ".out") in
    let args =
      [
        "corpus-child"; "--seed"; string_of_int p.seed; "--seconds";
        Printf.sprintf "%g" p.seconds; "--trace"; (if p.trace then "1" else "0");
      ]
      @ extra
    in
    let code, wall, _, _ =
      Util.run_child ~stdout:out ~stderr:(Filename.concat dir (name ^ ".err"))
        Sys.executable_name args
    in
    let lines =
      List.filter (( <> ) "")
        (String.split_on_char '\n' (try Util.read_file out with Sys_error _ -> ""))
    in
    (code, wall, lines)
  in
  let words l = String.split_on_char ' ' l in
  let checks_of lines =
    List.filter_map
      (fun l ->
        match words l with
        | "check" :: ok :: what -> Some (String.concat " " what, ok = "1")
        | _ -> None)
      lines
  in
  let probe = Probe.create () in
  let setup =
    List.init setups (fun k ->
        ignore (Probe.take probe);
        child ~name:(Printf.sprintf "setup%d" k) [ "--setup-only" ])
  in
  let code, _, lines = child ~name:"measure" [] in
  (* the measuring child's passes, as (wall, cpu, ok, start) ops *)
  let passes =
    List.filter_map
      (fun l ->
        match words l with
        | "pass" :: fields -> (
            match List.map float_of_string fields with
            | [ wall; cpu; ok; start; ready; busy; scale ] ->
                Some { res = (wall, cpu, ok = 1.0, start); ready; busy; scale }
            | _ -> None)
        | _ -> None)
      lines
  in
  let child_probes =
    List.filter_map
      (fun l -> match words l with [ "probe"; s ] -> float_of_string_opt s | _ -> None)
      lines
  in
  let rss =
    List.find_map
      (fun l -> match words l with [ "rss"; v ] -> float_of_string_opt v | _ -> None)
      lines
  in
  let layers =
    List.filter_map
      (fun l ->
        match words l with
        | [ "layer"; name; v; unit ] -> Some (name, float_of_string v, unit)
        | _ -> None)
      lines
  in
  let notes =
    List.filter_map
      (fun l ->
        if String.starts_with ~prefix:"note " l then
          Some (String.sub l 5 (String.length l - 5))
        else None)
      lines
  in
  let lateness = closed_lateness passes (fun (_, _, _, start) -> start) in
  let warmups =
    List.concat_map
      (fun (_, _, lines) ->
        List.filter_map
          (fun l ->
            match words l with
            | "warmup" :: ok :: totals -> Some (ok = "1", String.concat " " totals)
            | _ -> None)
          lines)
      ((code, 0.0, lines) :: setup)
  in
  let plain =
    (* the traced run alternates traced and plain passes; latency is the
       plain ones' *)
    List.filteri (fun i _ -> not (traced_turn ~trace:p.trace i)) passes
  in
  let checks =
    [
      ("corpus children exited 0", code = 0 && List.for_all (fun (c, _, _) -> c = 0) setup);
      ( "every pass reproduced the pinned E1/E4/GFix totals with clean health",
        passes <> [] && List.for_all (fun { res = _, _, ok, _; _ } -> ok) passes );
      ( "every warm-up pass reproduced them: "
        ^ String.concat "; " (List.sort_uniq compare (List.map snd warmups)),
        List.length warmups = setups + 1 && List.for_all fst warmups );
    ]
    @ checks_of lines
  in
  {
    setup_s = List.map (fun (_, w, _) -> w) setup;
    lat_ms = List.map (fun { res = wall, _, _, _; _ } -> ms_of wall) plain;
    lat_scale = List.map (fun o -> o.scale) plain;
    throughput = loop_rate passes;
    throughput_ops = List.length passes;
    rss_mb = Option.value rss ~default:nan;
    cpu_ms =
      Util.median (List.map (fun { res = _, cpu, _, _; scale; _ } -> ms_of cpu *. scale) passes);
    cpu_ops = List.length passes;
    attempted = List.length passes + List.length setup;
    failed =
      count (fun { res = _, _, ok, _; _ } -> not ok) passes
      + count (fun (c, _, _) -> c <> 0) setup
      + (if code <> 0 then 1 else 0);
    checks;
    lateness_ms = lateness;
    layers;
    notes =
      Printf.sprintf "%d corpus apps + %d bug-set programs per pass"
        (List.length (Gocorpus.Apps.all ()))
        Gocorpus.Bugset.total
      :: notes;
    probe_s = probe.samples @ child_probes;
  }

(* ------------------------------------------------------------ edit --- *)

type response = {
  r_lat : float; (* ms *)
  r_ok : bool;
  r_elapsed_ms : float;
  r_start : float;
  r_end : float;
}

let run_of body = Option.value (J.member_raw "run" body) ~default:""

(* request.end events in a daemon's journal. *)
let journal_request_ends path =
  match Util.read_file path with
  | exception Sys_error _ -> 0
  | text ->
      count
        (fun line ->
          match J.parse line with
          | Ok v -> J.mem_str "event" v = Some "request.end"
          | Error _ -> false)
        (String.split_on_char '\n' text)

(* Start [count] daemons one after another with the flags [args k],
   each timed from spawn to the end of [warm].  The last one is the
   measuring daemon: in a traced run it writes the journal and reports
   its GC counters at exit, and the one before it stays up as its plain
   twin for [journal_pairs]; every other one is killed.  Returns the
   set-up samples, whether every warm-up answered correctly, the
   measuring daemon and the twin. *)
let start_daemons ~trace ~count ~dir ~args ~warm =
  let rec go k acc twin =
    let measuring = k = count - 1 in
    let env, traced =
      if trace && measuring then
        ( Some (Util.child_env ~extra:[ "OCAMLRUNPARAM=v=0x400" ] ()),
          [ "--journal"; Filename.concat dir "journal.jsonl" ] )
      else (None, [])
    in
    let t0 = Util.now () in
    let name = if measuring then "gcatchd" else Printf.sprintf "gcatchd-setup%d" k in
    let d = Daemon.start ?env ~dir ~name (args k @ traced) in
    let ok = warm d in
    let sample = (Util.now () -. t0, ok) in
    if measuring then (List.rev (sample :: acc), d, twin)
    else if trace && k = count - 2 then go (k + 1) (sample :: acc) (Some d)
    else begin
      Daemon.stop ~kill:true d;
      go (k + 1) (sample :: acc) twin
    end
  in
  let samples, d, twin = go 0 [] None in
  (List.map fst samples, List.for_all snd samples, d, twin)

let post_timed d ~check body =
  let start = Util.now () in
  let code, resp = Daemon.post d body in
  let stop = Util.now () in
  let run = run_of resp in
  {
    r_lat = ms_of (stop -. start);
    r_ok = code = 200 && check run;
    r_elapsed_ms = Oracle.run_elapsed_ms run;
    r_start = start;
    r_end = stop;
  }

(* The journal's overhead, measured after the window of a traced run:
   the plain twin first catches up on the current sources ([catch_up]
   bodies, each with its check), then each body [next i] goes to both
   daemons, alternating which one answers first.  Returns whether the
   catch-up answered correctly and the (journaled, plain) responses. *)
let journal_pairs ~journaled ~twin ~catch_up ~count next =
  let caught =
    List.for_all (fun (body, check) -> (post_timed twin ~check body).r_ok) catch_up
  in
  let pairs =
    List.init count (fun i ->
        let body, check = next i in
        let send d = post_timed d ~check body in
        if i mod 2 = 0 then
          let j = send journaled in
          (j, send twin)
        else
          let t = send twin in
          (send journaled, t))
  in
  (caught, pairs)

(* What a traced daemon run adds to the layers: the measuring daemon's
   GC counters per request it served (set-up load included), the
   journal's cost from the paired requests, and checks that the pairs
   were answered correctly and that the journal holds one request.end
   per request. *)
let daemon_trace ~dir ~requests (caught, pairs) =
  let ends = journal_request_ends (Filename.concat dir "journal.jsonl") in
  let allocated_words, major_collections, top_heap_words =
    gc_of_exit_report
      (try Util.read_file (Filename.concat dir "gcatchd.err") with Sys_error _ -> "")
  in
  ( gc_view ~ops:requests ~allocated_words ~major_collections ~top_heap_words
    @ overhead_view (List.map (fun (j, p) -> (j.r_lat, p.r_lat)) pairs),
    [
      ( Printf.sprintf
          "the plain twin caught up and both daemons answered the %d paired \
           requests correctly"
          (List.length pairs),
        caught && List.for_all (fun (j, p) -> j.r_ok && p.r_ok) pairs );
      ( Printf.sprintf "the journal holds one request.end per request served (%d of %d)"
          ends requests,
        ends = requests );
    ] )

(* A warm gcatchd with a fresh cache directory, closed loop on one
   connection: each request carries one never-seen body edit of one
   seeded file as a digest delta. *)
let edit p =
  let dir = Util.fresh_dir "edit" in
  let sources = Array.of_list (Inputs.large_app ~seed:p.seed ~quick:p.quick) in
  let args k =
    let cache = Filename.concat dir (Printf.sprintf "cache%d" k) in
    Util.mkdir_p cache;
    [ "--jobs"; string_of_int jobs; "--cache-dir"; cache ]
  in
  let full = Inputs.full_body (Array.to_list sources) in
  let probe = Probe.create () in
  Probe.take_n probe 3;
  let setup_s, setup_ok, d, twin =
    start_daemons ~trace:p.trace ~count:setups ~dir ~args ~warm:(fun d ->
        let code, resp = Daemon.post d full in
        code = 200 && Oracle.benign_run (run_of resp))
  in
  let st = Inputs.rng (p.seed + 1) in
  let all_files = Array.init (Array.length sources) Fun.id in
  let digests = Array.map Inputs.digest sources in
  let bodies = ref [] in
  let next_edit n =
    let e = Inputs.make_edit st sources ~files:all_files ~n in
    let body = Inputs.delta_body digests e in
    sources.(e.Inputs.e_file) <- e.Inputs.e_src;
    digests.(e.Inputs.e_file) <- Inputs.digest e.Inputs.e_src;
    bodies := body :: !bodies;
    body
  in
  let request n = post_timed d ~check:Oracle.benign_run (next_edit n) in
  (* the program versions the traced replay re-analyses: the loaded app
     and the state after the unmeasured edits (warm), then the first
     measured edits *)
  let versions = ref [ Array.to_list sources ] in
  let snapshot () = versions := Array.to_list sources :: !versions in
  (* unmeasured edits: the first edits after a full load still settle
     per-file tiers the steady state does not touch *)
  let warmups = List.init 3 request in
  snapshot ();
  bodies := [];
  let before = Daemon.metrics d in
  (* each edit with the daemon's CPU seconds for it *)
  let timed =
    loop ~probe
      ~count:(ops_for ~min_ops:(if p.quick then 2 else 5) ~nominal_s:1.3 p.seconds)
      (fun i ->
        let cpu0 = Daemon.cpu_s d in
        let r = request (i + 3) in
        let cpu = Daemon.cpu_s d -. cpu0 in
        if i < 3 then snapshot ();
        (r, cpu))
  in
  let measured = List.map (fun o -> fst o.res) timed in
  let delta = Util.delta ~before ~after:(Daemon.metrics d) in
  let rss = Daemon.peak_rss_mb d in
  let n = List.length measured in
  let s = Util.sample delta in
  let window_bodies = !bodies in
  let pairs =
    Option.map
      (fun twin ->
        let r =
          journal_pairs ~journaled:d ~twin
            ~catch_up:[ (Inputs.full_body (Array.to_list sources), Oracle.benign_run) ]
            ~count:(if p.quick then 2 else 4)
            (fun i -> (next_edit (n + 3 + i), Oracle.benign_run))
        in
        Daemon.stop ~kill:true twin;
        r)
      twin
  in
  Daemon.stop ~kill:(not p.trace) d;
  let checks =
    [
      ("daemon set-up answered the full app with no diagnostics", setup_ok);
      ( "every edit answered 200 with no diagnostics and clean health",
        List.for_all (fun r -> r.r_ok) (warmups @ measured) );
      ( Printf.sprintf
          "each edit re-lexed exactly one file (stage.lex.runs %+.0f over %d edits)"
          (s "stage.lex.runs") n,
        s "stage.lex.runs" = float_of_int n );
      ( Printf.sprintf
          "no edit was served from the pass cache (engine.pass_cache_hit %+.0f)"
          (s "engine.pass_cache_hit"),
        s "engine.pass_cache_hit" = 0.0 );
      ( Printf.sprintf "serve.ok grew by the edits sent (%+.0f of %d)" (s "serve.ok") n,
        s "serve.ok" = float_of_int n );
    ]
  in
  let lateness = closed_lateness timed (fun (r, _) -> r.r_start) in
  let layers, checks', notes =
    match pairs with
    | None -> ([], [], [])
    | Some ((_, pairs) as journal) ->
        let versions = List.rev_map (fun v -> ("cli", v)) !versions in
        let attr, same, table =
          attribute ~workload:"edit" ~seed:p.seed
            ~warm:(List.filteri (fun i _ -> i < 2) versions)
            (List.filteri (fun i _ -> i >= 2) versions)
        in
        let daemon_layers, daemon_checks =
          daemon_trace ~dir
            ~requests:(1 + List.length warmups + n + List.length pairs)
            journal
        in
        ( attr
          @ engine_view ~samples:delta ~ops:n
              ~runs:(List.map (fun r -> (r.r_lat, r.r_elapsed_ms)) measured)
          @ daemon_layers
          @ proto_view ~per_op:1.0 window_bodies
          @ serve_view delta,
          same :: daemon_checks,
          [ table_note "edit" table ] )
  in
  {
    setup_s;
    lat_ms = List.map (fun r -> r.r_lat) measured;
    lat_scale = List.map (fun o -> o.scale) timed;
    throughput = loop_rate timed;
    throughput_ops = n;
    rss_mb = rss;
    cpu_ms = Util.median (List.map (fun { res = _, cpu; scale; _ } -> ms_of cpu *. scale) timed);
    cpu_ops = n;
    attempted = n + List.length warmups + List.length setup_s;
    failed =
      count (fun r -> not r.r_ok) (warmups @ measured) + if setup_ok then 0 else 1;
    lateness_ms = lateness;
    checks = checks @ checks';
    layers;
    notes;
    probe_s = probe.samples;
  }

(* ------------------------------------------------------ serve-open --- *)

(* Offered load of the open-loop phase (requests per second over both
   senders) and the share of the window it takes; the rest of the
   window measures closed-loop capacity on the same two connections,
   with as many requests as [serve_capacity] serves in that time.  The
   rate keeps the daemon about a fifth busy at that capacity (measured,
   scaled, when the benchmark was written), so latency tracks the serve
   path rather than queueing, which amplifies any slowdown of the
   machine. *)
let serve_rate = 10.0
let serve_capacity = 55.0
let open_share = 0.6
let write_every = 10

type sent = {
  q_write : bool;
  q_open : bool; (* open-loop phase, latency from the due time *)
  q_late : float; (* ms the request left after its due time *)
  q_resp : response;
}

(* One sender's request stream over the apps it owns (so requests for
   one app never overtake each other): full-source reads of an app's
   current version, and every tenth request (from a seeded phase) a
   never-seen filler edit sent as a digest delta. *)
type stream = {
  rng : Random.State.t;
  owned : int array;
  mutable sent : int;
  mutable edits : int;
  mutable versions : string list list; (* first edited versions, newest first *)
  mutable sample : string list; (* bodies kept for the proto timing *)
}

let serve_open p =
  let dir = Util.fresh_dir "serve" in
  let apps = Array.of_list (Inputs.serve_apps ~seed:p.seed ~quick:p.quick) in
  let originals = Array.map Array.to_list apps in
  let names = Array.of_list Inputs.serve_corpus_apps in
  let pinned = Array.map (fun n -> List.assoc n Oracle.serve_diags_md5) names in
  let corpus_files k =
    match Gocorpus.Apps.find names.(k) with
    | Some a -> List.length a.Gocorpus.Apps.sources
    | None -> 1
  in
  let reads = Array.map (fun a -> lazy (Inputs.full_body (Array.to_list a))) apps in
  let observed = Array.make (Array.length apps) "" in
  let check k run =
    observed.(k) <- Option.value (Oracle.diags_md5 run) ~default:"";
    Oracle.clean_run run && observed.(k) = pinned.(k)
  in
  let setup_s, setup_ok, d, twin =
    (* a small-app start-up is cheap, so it gets more samples *)
    start_daemons ~trace:p.trace ~count:21 ~dir
      ~args:(fun _ -> [ "--jobs"; string_of_int jobs ])
      ~warm:(fun d ->
        List.for_all Fun.id
          (List.init (Array.length apps) (fun k ->
               let code, resp = Daemon.post d (Lazy.force reads.(k)) in
               code = 200 && check k (run_of resp))))
  in
  let stream i owned =
    let rng = Inputs.rng (p.seed + 11 + i) in
    {
      rng;
      owned;
      sent = Random.State.int rng write_every;
      edits = 0;
      versions = [];
      sample = [];
    }
  in
  let streams = [| stream 0 [| 0; 2 |]; stream 1 [| 1; 3 |] |] in
  let next_request s =
    let k = s.owned.(Random.State.int s.rng (Array.length s.owned)) in
    let write = s.sent mod write_every = 0 in
    s.sent <- s.sent + 1;
    let body =
      if write then begin
        let first = corpus_files k in
        let fillers = Array.init (Array.length apps.(k) - first) (fun j -> first + j) in
        let e = Inputs.make_edit s.rng apps.(k) ~files:fillers ~n:s.edits in
        s.edits <- s.edits + 1;
        let body = Inputs.delta_body (Array.map Inputs.digest apps.(k)) e in
        apps.(k).(e.Inputs.e_file) <- e.Inputs.e_src;
        reads.(k) <- lazy (Inputs.full_body (Array.to_list apps.(k)));
        if List.length s.versions < 2 then
          s.versions <- Array.to_list apps.(k) :: s.versions;
        body
      end
      else Lazy.force reads.(k)
    in
    if List.length s.sample < 100 then s.sample <- body :: s.sample;
    (k, write, body)
  in
  let send s ~open_ ~due =
    let k, write, body = next_request s in
    (match due with
    | Some t ->
        let wait = t -. Util.now () in
        if wait > 0.0 then Thread.delay wait
    | None -> ());
    let r = post_timed d ~check:(check k) body in
    let due = Option.value due ~default:r.r_start in
    {
      q_write = write;
      q_open = open_;
      q_late = ms_of (r.r_start -. due);
      q_resp = { r with r_lat = ms_of (r.r_end -. due) };
    }
  in
  let open_s = open_share *. p.seconds and cap_s = (1.0 -. open_share) *. p.seconds in
  let before = Daemon.metrics d and cpu0 = Daemon.cpu_s d in
  let t0 = Util.now () +. 0.05 in
  let results = Array.make (Array.length streams) [] in
  let cap_start = t0 +. open_s in
  let cap_each =
    ops_for ~nominal_s:(float_of_int (Array.length streams) /. serve_capacity) cap_s
  in
  let sender i =
    let s = streams.(i) in
    let arrivals =
      Inputs.arrivals (Inputs.rng (p.seed + 21 + i)) ~rate:(serve_rate /. 2.0) ~t0
        ~seconds:open_s
    in
    let opened = List.map (fun due -> send s ~open_:true ~due:(Some due)) arrivals in
    (* capacity: back to back, the sender's share of the phase's count *)
    let wait = cap_start -. Util.now () in
    if wait > 0.0 then Thread.delay wait;
    let closed = List.init cap_each (fun _ -> send s ~open_:false ~due:None) in
    results.(i) <- opened @ closed
  in
  let threads = Array.mapi (fun i _ -> Thread.create sender i) streams in
  Array.iter Thread.join threads;
  let cpu1 = Daemon.cpu_s d in
  let delta = Util.delta ~before ~after:(Daemon.metrics d) in
  let rss = Daemon.peak_rss_mb d in
  let sample = List.concat_map (fun s -> s.sample) (Array.to_list streams) in
  let pairs =
    Option.map
      (fun twin ->
        let r =
          journal_pairs ~journaled:d ~twin
            ~catch_up:
              (List.init (Array.length apps) (fun k -> (Lazy.force reads.(k), check k)))
            ~count:(ops_for ~min_ops:10 ~nominal_s:0.04 (p.seconds /. 6.0))
            (fun i ->
              let k, _, body = next_request streams.(i mod 2) in
              (body, check k))
        in
        Daemon.stop ~kill:true twin;
        r)
      twin
  in
  Daemon.stop ~kill:(not p.trace) d;
  let all = Array.to_list results |> List.concat in
  let opened = List.filter (fun q -> q.q_open) all in
  let capacity = List.filter (fun q -> not q.q_open) all in
  let cap_wall =
    List.fold_left (fun acc q -> Float.max acc q.q_resp.r_end) cap_start capacity
    -. cap_start
  in
  let n = List.length all in
  let writes = count (fun q -> q.q_write) all in
  let s = Util.sample delta in
  let checks =
    [
      ("daemon set-up answered every app with its pinned diagnostics", setup_ok);
      ( "every request answered 200 with the app's pinned diagnostics",
        List.for_all (fun q -> q.q_resp.r_ok) all );
      ( Printf.sprintf "serve.ok grew by the requests sent (%+.0f of %d)" (s "serve.ok") n,
        s "serve.ok" = float_of_int n );
      ( Printf.sprintf
          "only writes were analysed, reads were artifact hits \
           (engine.cache_misses %+.0f, %d writes)"
          (s "engine.cache_misses") writes,
        s "engine.cache_misses" = float_of_int writes );
    ]
  in
  let layers, checks', notes =
    match pairs with
    | None -> ([], [], [])
    | Some ((_, pairs) as journal) ->
        let warm =
          Array.to_list (Array.map (fun srcs -> ("cli", srcs)) originals)
        in
        let timed =
          List.concat_map
            (fun s -> List.rev_map (fun v -> ("cli", v)) s.versions)
            (Array.to_list streams)
        in
        let attr, same, table =
          attribute ~workload:"serve-open" ~seed:p.seed ~warm timed
        in
        let daemon_layers, daemon_checks =
          daemon_trace ~dir ~requests:(Array.length apps + n + List.length pairs) journal
        in
        ( attr
          @ engine_view ~samples:delta ~ops:n
              ~runs:(List.map (fun q -> (q.q_resp.r_lat, q.q_resp.r_elapsed_ms)) all)
          @ daemon_layers
          @ proto_view ~per_op:1.0 sample
          @ serve_view delta,
          same :: daemon_checks,
          [ table_note "serve-open (edited versions replayed)" table ] )
  in
  {
    setup_s;
    lat_ms = List.map (fun q -> q.q_resp.r_lat) opened;
    (* unscaled: the serve path's small working set does not slow down
       with the machine probe, and scaling by probes taken around the
       window widened the run-to-run spread of latency from 0.07-0.12 to
       0.19-0.20 *)
    lat_scale = List.map (fun _ -> 1.0) opened;
    throughput = float_of_int (List.length capacity) /. cap_wall;
    throughput_ops = List.length capacity;
    rss_mb = rss;
    cpu_ms = ms_of ((cpu1 -. cpu0) /. float_of_int (max 1 n));
    cpu_ops = n;
    attempted = n + List.length setup_s;
    failed = count (fun q -> not q.q_resp.r_ok) all + (if setup_ok then 0 else 1);
    lateness_ms = List.map (fun q -> q.q_late) opened;
    checks = checks @ checks';
    layers;
    notes =
      Printf.sprintf
        "open loop: %d requests at %.0f/s (%d writes overall), latency p90 \
         %.2f ms; capacity: %d requests in %.2f s on 2 connections"
        (List.length opened) serve_rate writes
        (Util.quantile (List.map (fun q -> q.q_resp.r_lat) opened) 0.9)
        (List.length capacity) cap_wall
      :: Printf.sprintf "diagnostics md5 per app: %s"
           (String.concat " "
              (Array.to_list (Array.mapi (fun k n -> n ^ "=" ^ observed.(k)) names)))
      :: notes;
    probe_s = [];
  }
