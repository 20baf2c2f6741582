(* gcatch — detect blocking misuse-of-channel and traditional concurrency
   bugs in MiniGo source files.

     gcatch file1.go [file2.go ...]
     gcatch --no-disentangle file.go      # the E5 ablation
     gcatch --stats file.go               # print detector statistics
     gcatch --json file.go                # machine-readable diagnostics
     gcatch --pass bmoc file.go           # run a single pass
     gcatch --jobs 4 file.go              # detector fan-out on 4 domains
     gcatch --trace-out trace.json file.go   # Chrome trace of the run
     gcatch --metrics-out m.prom file.go     # metrics registry dump
     gcatch --profile file.go             # end-of-run profile report
     gcatch --list-passes

   Driven by the staged analysis engine: one [Engine.t] compiles the
   source set once, the pass registry runs the selected detectors, and
   parse/type errors come back as structured diagnostics rather than
   escaping exceptions.

   Exit codes: 0 clean, 1 bugs (or frontend errors) reported, 2 usage
   error, 3 internal error. *)

open Cmdliner
module E = Goengine.Engine
module M = Goobs.Metrics
module Log = Goobs.Log
module Trace = Goobs.Trace

(* Read to end of file, not by length: a pipe or /dev/stdin has none. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let list_passes engine =
  List.iter
    (fun (p : E.pass) ->
      Printf.printf "%-20s %s%s\n" p.E.p_name p.E.p_doc
        (if p.E.p_default then "" else "  [off by default]"))
    (E.passes engine)

let write_file path data =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc data)

(* Goscope v2 options, bundled so the analyse term stays readable. *)
type obs_opts = {
  o_telemetry_addr : string option;
  o_telemetry_sock : string option;
  o_journal : string option;
  o_sample_hz : int option;
  o_samples_out : string option;
  o_log_json : bool;
}

(* The telemetry endpoint tables (/metrics, /healthz, /vars, /profile)
   live in Goserve.Serve so the one-shot CLI and the gcatchd daemon
   serve identical tables. *)
let telemetry_handlers = Goserve.Serve.telemetry_handlers

let start_telemetry obs registry profile =
  match (obs.o_telemetry_addr, obs.o_telemetry_sock) with
  | None, None -> None
  | addr, sock -> (
      match
        Goobs.Telemetry.start ?addr ?sock
          ~handlers:(telemetry_handlers registry profile)
          ()
      with
      | Ok t ->
          Log.info
            ~kv:
              (List.filter_map Fun.id
                 [
                   Option.map (fun a -> ("addr", a)) addr;
                   Option.map (fun s -> ("sock", s)) sock;
                   (if Goobs.Telemetry.port t <> 0 then
                      Some ("port", string_of_int (Goobs.Telemetry.port t))
                    else None);
                 ])
            "telemetry server listening";
          Some t
      | Error e ->
          Log.error e;
          exit 2)

(* --server ADDR: route the invocation through a running gcatchd and
   render its response exactly as a local run would — human text to
   stdout (stderr when the frontend failed), the run JSON verbatim under
   --json, and the same exit codes.  CI shares one warm process this
   way. *)
let run_via_server ~addr ~files ~json ~only ~nonblocking ~retry ~retry_seed =
  if files = [] then begin
    Log.error "no input files";
    exit 2
  end;
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"schema\":\"gcatch-serve/1\",\"name\":\"cli\",\"files\":[";
  List.iteri
    (fun i path ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"path\":\"%s\",\"src\":\"%s\"}"
           (M.json_escape (Filename.basename path))
           (M.json_escape (read_file path))))
    files;
  Buffer.add_char b ']';
  if only <> [] then
    Buffer.add_string b
      (Printf.sprintf ",\"passes\":[%s]"
         (String.concat ","
            (List.map (fun p -> "\"" ^ M.json_escape p ^ "\"") only)));
  if nonblocking then Buffer.add_string b ",\"nonblocking\":true";
  Buffer.add_char b '}';
  match Goobs.Telemetry.client_sockaddr addr with
  | Error e ->
      Log.error e;
      exit 2
  | Ok sa -> (
      (* retrying client: transport failures (refused/reset connections,
         truncated responses) and back-pressure (429/503, honoring
         Retry-After) are retried with capped exponential backoff and
         deterministic seeded jitter; any response that reached a
         handler intact is final *)
      match
        Goobs.Telemetry.request_retry ~max_attempts:(max 1 retry)
          ~seed:retry_seed sa ~meth:"POST" ~path:"/analyse"
          ~body:(Buffer.contents b) ()
      with
      | Error e ->
          Log.error
            ~kv:[ ("server", addr); ("error", e) ]
            "cannot reach analysis server";
          exit 3
      | Ok (200, body) ->
          let module P = Goserve.Proto in
          if json then (
            match P.member_raw "run" body with
            | Some run -> print_endline run
            | None ->
                Log.error "malformed server response (no run member)";
                exit 3)
          else (
            match P.parse body with
            | Error e ->
                Log.errorf "malformed server response: %s" e;
                exit 3
            | Ok v ->
                let human = Option.value (P.mem_str "human" v) ~default:"" in
                if Option.value (P.mem_bool "frontend_failed" v) ~default:false
                then prerr_string human
                else print_string human);
          let code =
            match Goserve.Proto.member_raw "exit" body with
            | Some s -> Option.value (int_of_string_opt s) ~default:3
            | None -> 3
          in
          exit code
      | Ok (code, body) ->
          Log.errorf "server answered HTTP %d: %s" code (String.trim body);
          exit 3)

let run_checked files no_disentangle stats_flag nonblocking model_waitgroup
    json only list_flag jobs solver_timeout_ms cache_dir no_cache trace_out metrics_out profile log_level inject_faults deadline_ms
    max_heap_mb strict retry_rungs server retry retry_seed obs =
  (match server with
  | Some addr when not list_flag ->
      run_via_server ~addr ~files ~json ~only ~nonblocking ~retry ~retry_seed
  | _ -> ());
  (match log_level with
  | None -> ()
  | Some s -> (
      match Log.level_of_string s with
      | Some l -> Log.set_level l
      | None ->
          Log.errorf "invalid log level %S (debug|info|warn|error|quiet)" s;
          exit 2));
  if obs.o_log_json then Log.set_format Log.Json;
  (match inject_faults with
  | None -> ()
  | Some plan -> (
      match Goobs.Faults.parse plan with
      | Ok specs -> Goobs.Faults.set_plan specs
      | Error e ->
          Log.errorf "bad --inject-faults plan: %s" e;
          exit 2));
  (match deadline_ms with
  | None -> ()
  | Some ms -> Goengine.Supervise.set_deadline_ms ms);
  (match max_heap_mb with
  | None -> ()
  | Some mb -> Goengine.Supervise.set_max_heap_mb mb);
  if trace_out <> None then Trace.enable ();
  (* journal first, then sampler/telemetry: their own lifecycle never
     appears in the stream, but everything the run does will.  [at_exit]
     (not an explicit close at the end) so every documented exit path
     flushes the close event; a SIGKILL leaves the valid prefix. *)
  (match obs.o_journal with
  | None -> ()
  | Some path ->
      Goobs.Journal.open_ ~path;
      at_exit Goobs.Journal.close);
  let sampler =
    match obs.o_sample_hz with
    | None -> None
    | Some hz ->
        (* spine-only unless --trace-out already armed full recording *)
        Trace.enable_spines ();
        Some (Goobs.Sampler.start ~hz)
  in
  let cfg =
    {
      Gcatch.Bmoc.default_config with
      disentangle = not no_disentangle;
      solve_cache = not no_cache;
      cache_dir;
      retry_rungs;
      path_cfg =
        {
          Gcatch.Pathenum.default_config with
          model_waitgroup;
          solver_timeout_ms;
        };
    }
  in
  (* the CLI's engine reports into the process-wide registry so one
     --metrics-out dump covers the engine, pool, pathenum, and GFix *)
  let registry = M.default in
  let engine = Gcatch.Passes.engine ~cfg ~jobs ~registry () in
  let telemetry =
    start_telemetry obs registry (fun () ->
        (* the mid-run /profile view: pass wall times are not final yet,
           so the report leans on the registry's live histograms *)
        Goobs.Profile.report ~top:10 registry []
        ^ E.frontend_report ~top:10 engine)
  in
  let stop_observers () =
    (match sampler with
    | None -> ()
    | Some s ->
        Goobs.Sampler.stop s;
        (match obs.o_samples_out with
        | None -> ()
        | Some path ->
            Goobs.Sampler.write_collapsed ~path;
            Log.info
              ~kv:
                [
                  ("path", path);
                  ( "samples",
                    string_of_int (Goobs.Sampler.total_samples ()) );
                ]
              "wrote collapsed stacks"));
    match telemetry with
    | None -> ()
    | Some t -> Goobs.Telemetry.stop t
  in
  at_exit stop_observers;
  if list_flag then (
    list_passes engine;
    exit 0);
  if files = [] then (
    Log.error "no input files";
    exit 2);
  let sources = List.map read_file files in
  let only = if only = [] then None else Some only in
  let extra = if nonblocking then [ "nonblocking" ] else [] in
  let r =
    try
      (* the root span: everything the run does nests under it, so the
         exported trace accounts for the full wall time *)
      Trace.with_span ~name:"gcatch.run"
        ~args:[ ("files", String.concat "," files) ]
        (fun () -> E.analyse ?only ~extra engine ~name:"cli" sources)
    with Invalid_argument _ ->
      let known = List.map (fun (p : E.pass) -> p.E.p_name) (E.passes engine) in
      let bad =
        List.filter
          (fun n -> not (List.mem n known))
          (Option.value only ~default:[])
      in
      List.iter
        (fun n -> Log.errorf "unknown pass '%s' (see --list-passes)" n)
        bad;
      exit 2
  in
  let unclean = Goengine.Supervise.health_unclean r.E.r_health in
  if json then print_endline (E.run_to_json r)
  else if E.frontend_failed r then prerr_string (Goserve.Serve.human_of_run r)
  else begin
    print_string (Goserve.Serve.human_of_run r);
    if stats_flag then
      List.iter
        (fun (pr : E.pass_run) ->
          if pr.E.pr_metrics <> [] then begin
            Printf.printf "%s (%.3fs):\n" pr.E.pr_pass pr.E.pr_elapsed_s;
            List.iter
              (fun (k, v) -> Printf.printf "  %s: %d\n" k v)
              pr.E.pr_metrics
          end)
        r.E.r_passes
  end;
  (match trace_out with
  | None -> ()
  | Some path ->
      Trace.write_chrome ~path (Trace.drain ());
      Log.info ~kv:[ ("path", path) ] "wrote Chrome trace");
  (match metrics_out with
  | None -> ()
  | Some path ->
      let data =
        if Filename.check_suffix path ".json" then M.to_json registry
        else M.to_prometheus registry
      in
      write_file path data;
      Log.info ~kv:[ ("path", path) ] "wrote metrics");
  if profile then begin
    let pass_times =
      List.map (fun pr -> (pr.E.pr_pass, pr.E.pr_elapsed_s)) r.E.r_passes
    in
    let report =
      Goobs.Profile.report ~top:10 registry pass_times
      ^ E.frontend_report ~top:10 engine
    in
    (* keep stdout pure JSON under --json *)
    if json then prerr_string report else print_string report
  end;
  if strict && unclean > 0 then begin
    Log.errorf
      "--strict: %d unit(s) did not complete at full fidelity (%s)" unclean
      (Goengine.Supervise.health_str r.E.r_health);
    exit 3
  end;
  if E.errors r <> [] then exit 1

let run files no_disentangle stats_flag nonblocking model_waitgroup json only
    list_flag jobs solver_timeout_ms cache_dir no_cache trace_out metrics_out profile log_level inject_faults deadline_ms
    max_heap_mb strict retry_rungs server retry retry_seed obs =
  try
    run_checked files no_disentangle stats_flag nonblocking model_waitgroup
      json only list_flag jobs solver_timeout_ms cache_dir no_cache trace_out metrics_out profile log_level inject_faults
      deadline_ms max_heap_mb strict retry_rungs server retry retry_seed obs
  with e ->
    Log.error
      ~kv:[ ("exception", Printexc.to_string e) ]
      "internal error";
    exit 3

let files_arg =
  Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"MiniGo source files")

let no_disentangle_arg =
  Arg.(
    value & flag
    & info [ "no-disentangle" ]
        ~doc:"Disable the disentangling policy (whole-program analysis)")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print per-pass statistics")

let nonblocking_arg =
  Arg.(
    value & flag
    & info [ "nonblocking" ]
        ~doc:
          "Also run the non-blocking misuse-of-channel checkers \
           (send-on-closed, double close)")

let model_waitgroup_arg =
  Arg.(
    value & flag
    & info [ "model-waitgroup" ]
        ~doc:"Model WaitGroup Add/Done/Wait in the constraint system")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit the unified diagnostics and per-pass stats as JSON")

let pass_arg =
  Arg.(
    value & opt_all string []
    & info [ "pass" ] ~docv:"NAME"
        ~doc:
          "Run only the named pass (repeatable); see $(b,--list-passes) for \
           names")

let list_passes_arg =
  Arg.(
    value & flag
    & info [ "list-passes" ] ~doc:"List the registered detector passes")

let jobs_arg =
  Arg.(
    value
    & opt int (Goengine.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Fan detector work out over $(docv) domains (default: the \
           GCATCH_JOBS environment variable or the hardware's recommended \
           domain count). Output is identical for every N.")

let solver_timeout_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "solver-timeout-ms" ] ~docv:"MS"
        ~doc:
          "Per-channel constraint-solving budget; a channel exceeding it is \
           skipped with a warning instead of stalling the run")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) (Sys.getenv_opt "GCATCH_CACHE_DIR")
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persist per-file frontend artifacts, detector pass results and \
           per-channel solve verdicts in $(docv) across runs (default: the \
           GCATCH_CACHE_DIR environment variable). Entries are \
           content-addressed, so a warm run reproduces the cold run's \
           diagnostics byte for byte; corrupted or stale entries are \
           dropped and recomputed.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-solve-cache" ]
        ~doc:"Disable the per-channel solve cache (memory and disk tiers)")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Enable span tracing and write a Chrome trace-event JSON to \
           $(docv) (loadable in Perfetto or chrome://tracing; one track per \
           domain)")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the metrics registry to $(docv) in Prometheus text format \
           (JSON when $(docv) ends in .json)")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Print an end-of-run profile: per-pass and per-stage wall times, \
           the slowest channels with their solver statistics, and histogram \
           p50/p95/max summaries")

let log_level_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Log verbosity: debug, info, warn, error, or quiet (default: the \
           GCATCH_LOG environment variable, else warn)")

let inject_faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject-faults" ] ~docv:"PLAN"
        ~doc:
          "Deterministic fault injection for testing the supervision layer. \
           $(docv) is a comma-separated list of \
           $(i,site)[:$(i,nth)|*][@$(i,keysub)][!$(i,action)] items plus an \
           optional seed=$(i,N); sites: frontend, solver, pool, cache.read, \
           cache.write, conn.accept, conn.read, conn.write; actions: raise \
           (default), timeout, stall, corrupt. Also read from the \
           GCATCH_FAULTS environment variable.")

let deadline_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Global wall-clock deadline: once it passes, no new unit of work \
           starts; everything gathered so far is flushed normally and \
           reported in the analysis-health section")

let max_heap_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-heap-mb" ] ~docv:"MB"
        ~doc:
          "Heap watchdog: when the major heap exceeds $(docv) MB, stop \
           starting new units and flush partial results (checked at the end \
           of every major GC cycle)")

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Fail fast for CI: exit 3 when any unit of work was degraded, \
           skipped, or retried instead of completing at full fidelity")

let server_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "server" ] ~docv:"ADDR"
        ~doc:
          "Route the analysis through a running $(b,gcatchd) at $(docv) \
           (HOST:PORT, or a Unix-socket path) instead of analysing \
           locally. Output and exit codes match local mode; local-only \
           flags (caching, observability, watchdogs) are governed by the \
           daemon's configuration.")

let retry_arg =
  Arg.(
    value & opt int 5
    & info [ "retry" ] ~docv:"N"
        ~doc:
          "With $(b,--server): attempt the request up to $(docv) times, \
           retrying connection failures, truncated responses and 429/503 \
           back-pressure (honoring Retry-After) with capped exponential \
           backoff; 1 disables retries")

let retry_seed_arg =
  Arg.(
    value & opt int 0
    & info [ "retry-seed" ] ~docv:"N"
        ~doc:
          "Seed for the retry backoff's deterministic jitter: two runs \
           with the same seed sleep the same schedule")

let retry_rungs_arg =
  Arg.(
    value
    & opt int Gcatch.Bmoc.default_config.Gcatch.Bmoc.retry_rungs
    & info [ "retry-rungs" ] ~docv:"N"
        ~doc:
          "Degradation-ladder depth: how many times a channel that exhausts \
           its solver budget is retried at reduced path/combination bounds \
           before being skipped (0 disables the ladder; only meaningful with \
           $(b,--solver-timeout-ms))")

let telemetry_addr_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry-addr" ] ~docv:"HOST:PORT"
        ~doc:
          "Serve live telemetry over HTTP while the run is in flight: \
           $(b,/metrics) (Prometheus text), $(b,/healthz) (health ledger + \
           watchdog state, 200/503), $(b,/vars) (build, cache, scheduler and \
           span state as JSON), $(b,/profile) (the $(b,--profile) report on \
           demand). Port 0 picks an ephemeral port. The server is read-only: \
           diagnostics are byte-identical with it on or off.")

let telemetry_sock_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry-sock" ] ~docv:"PATH"
        ~doc:
          "Serve the same telemetry endpoints on a Unix-domain socket at \
           $(docv) (usable together with $(b,--telemetry-addr))")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"PATH"
        ~doc:
          "Append a schema-versioned JSONL event stream to $(docv): stage, \
           pass and channel lifecycle, cache hits/misses, retries, faults, \
           and final diagnostics digests. Flushed per event, so a killed run \
           leaves a usable ledger; reconstruct a summary offline with \
           $(b,gcatch report) $(docv).")

let sample_hz_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "sample-hz" ] ~docv:"N"
        ~doc:
          "Sampling wall-clock profiler: a ticker domain samples every \
           domain's open-span spine $(docv) times a second into a \
           stack-count table, reported as a top-N table under \
           $(b,--profile) and exportable with $(b,--samples-out)")

let samples_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "samples-out" ] ~docv:"FILE"
        ~doc:
          "Write the sampling profiler's stack counts to $(docv) in \
           collapsed-stack format (one \"frame;frame;frame count\" line per \
           distinct stack — pipe through flamegraph.pl for a flamegraph)")

let log_json_arg =
  Arg.(
    value & flag
    & info [ "log-json" ]
        ~doc:
          "Emit each log line as one JSON object (ts_ms, level, msg, plus \
           the event's key=value fields) instead of the human text format")

let obs_term =
  let mk o_telemetry_addr o_telemetry_sock o_journal o_sample_hz o_samples_out
      o_log_json =
    {
      o_telemetry_addr;
      o_telemetry_sock;
      o_journal;
      o_sample_hz;
      o_samples_out;
      o_log_json;
    }
  in
  Term.(
    const mk $ telemetry_addr_arg $ telemetry_sock_arg $ journal_arg
    $ sample_hz_arg $ samples_out_arg $ log_json_arg)

let exits =
  [
    Cmd.Exit.info 0 ~doc:"no bugs found.";
    Cmd.Exit.info 1 ~doc:"bugs were found (or the frontend reported errors).";
    Cmd.Exit.info 2
      ~doc:
        "usage error: bad command line, no input files, unknown pass, or a \
         malformed $(b,--inject-faults) plan.";
    Cmd.Exit.info 3
      ~doc:
        "internal error, or $(b,--strict) and some unit of work did not \
         complete at full fidelity.";
  ]

let analyse_term =
  Term.(
    const run $ files_arg $ no_disentangle_arg $ stats_arg $ nonblocking_arg
    $ model_waitgroup_arg $ json_arg $ pass_arg $ list_passes_arg $ jobs_arg
    $ solver_timeout_arg $ cache_dir_arg $ no_cache_arg
    $ trace_out_arg
    $ metrics_out_arg $ profile_arg $ log_level_arg $ inject_faults_arg
    $ deadline_arg $ max_heap_arg $ strict_arg $ retry_rungs_arg $ server_arg
    $ retry_arg $ retry_seed_arg $ obs_term)

(* gcatch report FILE.jsonl — offline reconstruction of the profile and
   health summary from a run journal, including one truncated by a
   killed run (the valid prefix is the record). *)
let run_report path =
  match Goobs.Journal.summarize_file path with
  | sum -> print_string (Goobs.Journal.report sum)
  | exception Sys_error e ->
      Log.errorf "cannot read journal: %s" e;
      exit 2

let report_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE.jsonl" ~doc:"Run journal written by --journal")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Reconstruct the profile/health summary from a --journal event \
          stream, offline"
       ~exits:
         [
           Cmd.Exit.info 0 ~doc:"summary printed.";
           Cmd.Exit.info 2 ~doc:"usage error or unreadable journal.";
         ])
    Term.(const run_report $ file_arg)

let cmd =
  Cmd.group ~default:analyse_term
    (Cmd.info "gcatch" ~doc:"Statically detect Go concurrency bugs" ~exits)
    [ report_cmd ]

let () =
  let code = Cmd.eval cmd in
  (* cmdliner's own conventions (124 cli error, 125 internal) mapped onto
     the documented 2/3 *)
  exit
    (if code = Cmd.Exit.cli_error then 2
     else if code = Cmd.Exit.internal_error then 3
     else code)
