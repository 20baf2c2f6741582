(* gcatchd — the warm-process analysis server.

     gcatchd --addr 127.0.0.1:8918                 # TCP
     gcatchd --sock /tmp/gcatchd.sock              # Unix socket
     gcatchd --addr 127.0.0.1:0 --jobs 4 \
             --cache-dir /tmp/cache --max-cache-mb 256

   One engine (and one scheduler pool) lives across requests, so the
   frontend memos, pass-result cache, and solve cache stay hot:
   steady-state request latency is the warm number, not the cold one.

   Protocol: POST /analyse with a JSON body

     {"schema":"gcatch-serve/1","name":"cli",
      "files":[{"path":"a.go","src":"package main ..."},
               {"path":"b.go","digest":"<md5-hex>"}],
      "passes":["bmoc"], "nonblocking":false}

   Files may be sent by content ("src") or referenced by digest of a
   source the server has already seen ("digest"; unknown digests answer
   409 listing the missing ones — resend those files by content).  The
   response envelope carries the exit code, the CLI's human rendering,
   request-scoped counters, and the engine's run JSON verbatim.  The
   observation endpoints (/metrics, /healthz, /vars, /profile) are the
   same tables the one-shot CLI serves under --telemetry-addr.

   Saturation answers 429 + Retry-After.  SIGTERM/SIGINT drain and exit 0,
   flushing the journal's close event.

   Exit codes: 0 clean shutdown, 2 usage error. *)

open Cmdliner
module M = Goobs.Metrics
module Log = Goobs.Log
module T = Goobs.Telemetry
module Serve = Goserve.Serve

let stop_flag = Atomic.make false

let run addr sock jobs cache_dir max_cache_mb max_queue request_deadline_ms
    solver_timeout_ms max_heap_mb watch max_body_mb log_level log_json
    inject_faults journal journal_fsync quarantine_errors quarantine_degraded
    quarantine_breaches =
  (match log_level with
  | None -> ()
  | Some s -> (
      match Log.level_of_string s with
      | Some l -> Log.set_level l
      | None ->
          Log.errorf "invalid log level %S (debug|info|warn|error|quiet)" s;
          exit 2));
  if log_json then Log.set_format Log.Json;
  (match inject_faults with
  | None -> ()
  | Some plan -> (
      match Goobs.Faults.parse plan with
      | Ok specs -> Goobs.Faults.set_plan specs
      | Error e ->
          Log.errorf "bad --inject-faults plan: %s" e;
          exit 2));
  if addr = None && sock = None then begin
    Log.error "no listen address: pass --addr HOST:PORT and/or --sock PATH";
    exit 2
  end;
  (match Goobs.Journal.fsync_policy_of_string journal_fsync with
  | Some p -> Goobs.Journal.set_fsync p
  | None ->
      Log.errorf "invalid --journal-fsync %S (never|close|always)" journal_fsync;
      exit 2);
  (match journal with
  | None -> ()
  | Some path ->
      Goobs.Journal.open_ ~path;
      at_exit Goobs.Journal.close);
  (* validate --cache-dir up front: an unwritable directory is a usage
     error at startup, not a silent degradation on the first request *)
  (match Option.map Goengine.Store.validate_dir cache_dir with
  | Some (Error msg) ->
      Log.error msg;
      exit 2
  | Some (Ok ()) | None -> ());
  (match max_heap_mb with
  | None -> ()
  | Some mb -> Goengine.Supervise.set_max_heap_mb mb);
  let cfg =
    {
      Serve.default_cfg with
      Serve.s_jobs = jobs;
      s_detector =
        {
          Gcatch.Bmoc.default_config with
          cache_dir;
          path_cfg =
            {
              Gcatch.Pathenum.default_config with
              solver_timeout_ms;
            };
        };
      s_max_cache_mb = max_cache_mb;
      s_max_queue = max_queue;
      s_deadline_ms = request_deadline_ms;
      s_quar_errors = quarantine_errors;
      s_quar_degraded = quarantine_degraded;
      s_quar_breaches = quarantine_breaches;
    }
  in
  let srv = Serve.create ~cfg () in
  match
    T.start ?addr ?sock
      ~post:(Serve.post_handlers srv)
      ~max_body:(max_body_mb * 1024 * 1024)
      ~handlers:(Serve.handlers srv) ()
  with
  | Error e ->
      Log.error e;
      exit 2
  | Ok server ->
      (match watch with
      | None -> ()
      | Some dir -> Serve.start_watch srv ~dir ~interval_s:0.5);
      let stop _ = Atomic.set stop_flag true in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
      (* the port line is the startup handshake: scripts block on it,
         then know both that the server is up and where it listens *)
      if T.port server <> 0 then
        Printf.printf "gcatchd listening on port %d\n%!" (T.port server)
      else
        Printf.printf "gcatchd listening on %s\n%!"
          (Option.value sock ~default:"?");
      while not (Atomic.get stop_flag) do
        Thread.delay 0.2
      done;
      Log.info "gcatchd shutting down";
      (match watch with Some _ -> Serve.stop_watch srv | None -> ());
      T.stop server;
      (* nothing to flush: every cache entry was written by the request
         that computed it; at_exit closes the journal *)
      exit 0

let addr_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "addr" ] ~docv:"HOST:PORT"
        ~doc:
          "Listen for requests (and serve telemetry) on a TCP socket; port \
           0 picks an ephemeral port, printed on startup")

let sock_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "sock" ] ~docv:"PATH"
        ~doc:"Listen on a Unix-domain socket at $(docv) (combinable with \
              $(b,--addr))")

let jobs_arg =
  Arg.(
    value
    & opt int (Goengine.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Fan each request's detector work out over $(docv) domains; \
           requests are executed one at a time, each getting the whole pool")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) (Sys.getenv_opt "GCATCH_CACHE_DIR")
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persist the per-file artifact, pass-result and solve caches and \
           the sources clients sent in $(docv): a restarted daemon reads \
           the entries its first requests need from $(docv) instead of \
           recomputing them")

let max_cache_mb_arg =
  Arg.(
    value & opt int 0
    & info [ "max-cache-mb" ] ~docv:"MB"
        ~doc:
          "Bound the in-memory cache tiers (frontend memo tables and the \
           solve cache) to roughly $(docv) MB together, evicting the least \
           recently used entry of any tier; eviction counts appear in /vars \
           and /metrics. 0 (the default) means unbounded, as in one-shot runs.")

let max_queue_arg =
  Arg.(
    value & opt int 16
    & info [ "max-queue" ] ~docv:"N"
        ~doc:
          "Admit at most $(docv) requests at once (running + queued); \
           beyond that /analyse answers 429 with Retry-After")

let request_deadline_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "request-deadline-ms" ] ~docv:"MS"
        ~doc:
          "Per-request SLO: each request runs under a $(docv) ms deadline \
           (the global-deadline watchdog, scoped to the request); work past \
           it is flushed partially and reported in the response's health")

let solver_timeout_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "solver-timeout-ms" ] ~docv:"MS"
        ~doc:"Per-channel constraint-solving budget, as in gcatch")

let max_heap_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-heap-mb" ] ~docv:"MB"
        ~doc:"Heap watchdog for the whole daemon, as in gcatch")

let watch_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "watch" ] ~docv:"DIR"
        ~doc:
          "Poll $(docv) for changed *.go files (content digests, twice a \
           second) and pre-warm the caches by analysing the new tree, so \
           the next request for it is incremental")

let max_body_arg =
  Arg.(
    value & opt int 64
    & info [ "max-body-mb" ] ~docv:"MB"
        ~doc:"Reject request bodies larger than $(docv) MB with 413")

let log_level_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:"Log verbosity: debug, info, warn, error, or quiet")

let log_json_arg =
  Arg.(value & flag & info [ "log-json" ] ~doc:"JSON log lines")

let inject_faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject-faults" ] ~docv:"PLAN"
        ~doc:
          "Deterministic fault injection, as in gcatch — used by CI to \
           exercise the daemon's supervision under load")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"PATH"
        ~doc:
          "Append the JSONL event journal to $(docv); each event carries \
           the request id it belongs to, and shutdown flushes the close \
           event")

let journal_fsync_arg =
  Arg.(
    value & opt string "never"
    & info [ "journal-fsync" ] ~docv:"POLICY"
        ~doc:
          "Journal durability: $(b,never) (default; flush only), \
           $(b,close) (fsync once at clean shutdown), or $(b,always) \
           (fsync every drain, so a SIGKILL loses at most the undrained \
           per-domain buffer tails)")

let quarantine_errors_arg =
  Arg.(
    value & opt int 0
    & info [ "quarantine-errors" ] ~docv:"N"
        ~doc:
          "Quarantine and rebuild the engine after $(docv) consecutive \
           internal-error requests (HTTP 500 or pass-level fault \
           diagnostics); 0 (the default) disables this threshold")

let quarantine_degraded_arg =
  Arg.(
    value & opt int 0
    & info [ "quarantine-degraded" ] ~docv:"N"
        ~doc:
          "Quarantine after $(docv) consecutive requests with degraded \
           analysis units (boundary-contained crashes); 0 disables")

let quarantine_breaches_arg =
  Arg.(
    value & opt int 0
    & info [ "quarantine-breaches" ] ~docv:"N"
        ~doc:
          "Quarantine after $(docv) consecutive requests that breached \
           the --request-deadline-ms SLO; 0 disables")

let cmd =
  Cmd.v
    (Cmd.info "gcatchd" ~doc:"Warm-process analysis server for gcatch"
       ~exits:
         [
           Cmd.Exit.info 0 ~doc:"clean shutdown (SIGTERM/SIGINT).";
           Cmd.Exit.info 2 ~doc:"usage error or failed to bind.";
         ])
    Term.(
      const run $ addr_arg $ sock_arg $ jobs_arg $ cache_dir_arg
      $ max_cache_mb_arg $ max_queue_arg $ request_deadline_arg
      $ solver_timeout_arg $ max_heap_arg $ watch_arg $ max_body_arg
      $ log_level_arg $ log_json_arg $ inject_faults_arg $ journal_arg
      $ journal_fsync_arg $ quarantine_errors_arg $ quarantine_degraded_arg
      $ quarantine_breaches_arg)

let () = exit (Cmd.eval cmd)
