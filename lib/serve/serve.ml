(* gcatchd's server core: one warm engine serving many analyse requests.

   The daemon exists because the caches were already built for reuse —
   per-file frontend memos, the pass-result cache, the solve cache — but
   a one-shot process throws them away at exit.  Here one [Engine.t]
   (and its shared [Pool]) lives across requests, so steady-state
   latency is the warm number.

   With --cache-dir every per-file artifact, pass result and solve
   verdict is also a {!Goengine.Store} entry, read back whenever a memory
   tier misses.  A restarted daemon (or a quarantine rebuild) therefore
   starts listening at once and warms up on demand: its first request
   reads the unchanged files' entries from disk instead of recomputing
   them.  No warm state is kept apart from those entries.

   Request lifecycle (POST /analyse, JSON body, see [parse_req]):

     parse -> resolve digest refs against the content store
           -> admission (bounded queue; 429 + Retry-After when full)
           -> execute: one analysis under [run_mu], with a
              per-request registry, journal context and deadline SLO
           -> respond (envelope carries the run JSON verbatim plus the
              CLI's human rendering, so clients reproduce local output)

   Execution is deliberately serialized by [run_mu]: the pool already
   fans each run out over its domains, so two concurrent analyses
   would only fight for the same cores — queueing requests and
   giving each the whole pool keeps per-request latency minimal and
   per-request counters exact.  Concurrency lives at the protocol layer
   (connection threads, admission), not in the engine.  An identical
   request queued behind another is answered from the record the first
   one left in the engine's artifact cache: every pass takes its own
   earlier results over instead of recomputing them.

   Per-request metrics: the engine is pointed at a fresh registry for
   the duration of the run; afterwards the registry is folded into the
   process registry with [Metrics.merge_into].  /metrics therefore stays
   monotonic across requests while each response carries exactly its own
   counters.  (Solve-cache and pool counters are process-scoped by
   design and keep reporting to the process registry directly.) *)

module E = Goengine.Engine
module D = Goengine.Diagnostics
module M = Goobs.Metrics
module T = Goobs.Telemetry
module J = Goobs.Journal
module Log = Goobs.Log
module Trace = Goobs.Trace

let schema = "gcatch-serve/1"

(* ----------------------------------------- observation endpoints ------ *)

(* The /vars endpoint: build info plus live cache/scheduler/span/sampler
   state snapshotted from the process registry.  Read-only by design —
   telemetry must never perturb the run.  (Moved here from the CLI so
   the daemon and one-shot binaries serve identical tables.) *)
let vars_json registry =
  let counters = M.counters_list registry in
  let c n = Option.value (List.assoc_opt n counters) ~default:0 in
  let rate h m =
    if h + m = 0 then 0.0
    else 100.0 *. float_of_int h /. float_of_int (h + m)
  in
  Printf.sprintf
    "{\"schema\":\"gcatch-vars/1\",\"build\":{\"tool\":\"gcatch\",\"ocaml\":\"%s\",\"word_size\":%d},\
     \"caches\":{\
     \"artifact\":{\"hits\":%d,\"misses\":%d,\"evictions\":%d},\
     \"file\":{\"mem_hits\":%d,\"disk_hits\":%d,\"evictions\":%d},\
     \"solve\":{\"hits\":%d,\"misses\":%d,\"disk_hits\":%d,\"stores\":%d,\"evictions\":%d,\"hit_rate_pct\":%.1f},\
     \"pass\":{\"hits\":%d,\"stores\":%d}},\
     \"serve\":{\"requests\":%d,\"rejected\":%d,\"watch_runs\":%d,\"quarantines\":%d,\"engine_rebuilds\":%d},\
     \"sched\":{\"tasks_spawned\":%d},\
     \"spans\":{\"active\":%d},\
     \"sampler\":{\"samples\":%d,\"ticks\":%d},\
     \"journal\":{\"events\":%d}}"
    Sys.ocaml_version Sys.word_size (c "engine.cache_hits")
    (c "engine.cache_misses")
    (c "engine.artifact_evictions")
    (c "engine.file_mem_hit") (c "engine.file_disk_hit")
    (c "engine.file_mem_evictions")
    (c "bmoc.solve_cache_hit")
    (c "bmoc.solve_cache_miss")
    (c "bmoc.solve_cache_disk_hit")
    (c "bmoc.solve_cache_store")
    (c "bmoc.solve_cache_evictions")
    (rate (c "bmoc.solve_cache_hit") (c "bmoc.solve_cache_miss"))
    (c "engine.pass_cache_hit") (c "engine.pass_cache_store")
    (c "serve.requests") (c "serve.rejected")
    (c "serve.watch_runs") (c "serve.quarantines") (c "serve.engine_rebuilds")
    (c "sched.tasks_spawned")
    (Trace.open_span_count ())
    (Goobs.Sampler.total_samples ())
    (Goobs.Sampler.tick_count ())
    (Goobs.Journal.events_written ())

(* Telemetry endpoint table.  [profile] renders the same report --profile
   prints, on demand mid-run. *)
let telemetry_handlers registry profile =
  [
    ("/metrics", fun () -> T.text (M.to_prometheus registry));
    ( "/healthz",
      fun () ->
        let ok, body = Goengine.Supervise.healthz_json ~reg:registry () in
        T.json ~status:(if ok then 200 else 503) body );
    ("/vars", fun () -> T.json (vars_json registry));
    ("/profile", fun () -> T.text (profile ()));
  ]

(* -------------------------------------------------------- requests ---- *)

type req = {
  q_name : string;
  q_files : (string * [ `Src of string | `Digest of string ]) list;
  q_passes : string list; (* [] = default pass set *)
  q_nonblocking : bool;
}

let parse_req (body : string) : (req, string) result =
  match Proto.parse body with
  | Error e -> Error ("bad JSON: " ^ e)
  | Ok v -> (
      match Proto.mem_str "schema" v with
      | Some s when s <> schema -> Error (Printf.sprintf "unknown schema %S" s)
      | _ -> (
          let name = Option.value (Proto.mem_str "name" v) ~default:"cli" in
          let passes =
            match Option.bind (Proto.member "passes" v) Proto.arr with
            | None -> []
            | Some l -> List.filter_map Proto.str l
          in
          let nonblocking =
            Option.value (Proto.mem_bool "nonblocking" v) ~default:false
          in
          match Option.bind (Proto.member "files" v) Proto.arr with
          | None -> Error "missing \"files\" array"
          | Some [] -> Error "empty \"files\" array"
          | Some l -> (
              let parse_file i f =
                let path =
                  Option.value (Proto.mem_str "path" f)
                    ~default:(Printf.sprintf "file%d.go" i)
                in
                match (Proto.mem_str "src" f, Proto.mem_str "digest" f) with
                | Some src, _ -> Ok (path, `Src src)
                | None, Some d -> Ok (path, `Digest (String.lowercase_ascii d))
                | None, None ->
                    Error
                      (Printf.sprintf "file %d: need \"src\" or \"digest\"" i)
              in
              let rec go i acc = function
                | [] -> Ok (List.rev acc)
                | f :: rest -> (
                    match parse_file i f with
                    | Ok x -> go (i + 1) (x :: acc) rest
                    | Error e -> Error e)
              in
              match go 0 [] l with
              | Error e -> Error e
              | Ok files ->
                  Ok { q_name = name; q_files = files; q_passes = passes;
                       q_nonblocking = nonblocking })))

(* ---------------------------------------------------------- server ---- *)

type cfg = {
  s_jobs : int;
  s_detector : Gcatch.Bmoc.config;
  s_max_cache_mb : int; (* 0 = unbounded *)
  s_max_queue : int; (* admitted (queued + running) request bound *)
  s_deadline_ms : int option; (* per-request SLO *)
  s_max_artifact_sets : int; (* engine artifact-cache LRU size *)
  s_quar_errors : int; (* consecutive internal-error requests tripping
                          quarantine; 0 disables this threshold *)
  s_quar_degraded : int; (* consecutive requests with degraded units *)
  s_quar_breaches : int; (* consecutive deadline-breached requests *)
}

let default_cfg =
  {
    s_jobs = 1;
    s_detector = Gcatch.Bmoc.default_config;
    s_max_cache_mb = 0;
    s_max_queue = 16;
    s_deadline_ms = None;
    s_max_artifact_sets = 8;
    (* every threshold off by default: an unconfigured server behaves
       exactly as before this feature existed *)
    s_quar_errors = 0;
    s_quar_degraded = 0;
    s_quar_breaches = 0;
  }

let quarantine_enabled cfg =
  cfg.s_quar_errors > 0 || cfg.s_quar_degraded > 0 || cfg.s_quar_breaches > 0

type t = {
  mutable engine : E.t; (* replaced by a quarantine rebuild, under run_mu *)
  registry : M.t; (* the process registry (/metrics) *)
  cfg : cfg;
  run_mu : Mutex.t; (* serializes engine sessions *)
  depth : int Atomic.t; (* admitted requests (queued + running) *)
  rid : int Atomic.t;
  store_mu : Mutex.t;
  store : (string, string) Hashtbl.t; (* content digest -> source *)
  watch_stop : bool Atomic.t;
  mutable watch_thread : Thread.t option;
  (* self-healing supervisor state *)
  quarantined : bool Atomic.t; (* requests answer 503 while set *)
  sup_mu : Mutex.t; (* guards the streak counters *)
  mutable sk_errors : int;
  mutable sk_degraded : int;
  mutable sk_breaches : int;
}

let counter t name = M.counter t.registry name

(* A fresh engine for [cfg], at boot and on every quarantine rebuild:
   cold by construction, its memory tiers bounded by --max-cache-mb. *)
let new_engine cfg registry =
  let engine =
    Gcatch.Passes.engine ~cfg:cfg.s_detector ~jobs:cfg.s_jobs ~registry
      ~max_entries:cfg.s_max_artifact_sets ()
  in
  E.set_cache_budget_mb engine cfg.s_max_cache_mb;
  engine

let create ?(cfg = default_cfg) () : t =
  let registry = M.default in
  {
    engine = new_engine cfg registry;
    registry;
    cfg;
    run_mu = Mutex.create ();
    depth = Atomic.make 0;
    rid = Atomic.make 0;
    store_mu = Mutex.create ();
    store = Hashtbl.create 256;
    watch_stop = Atomic.make false;
    watch_thread = None;
    quarantined = Atomic.make false;
    sup_mu = Mutex.create ();
    sk_errors = 0;
    sk_degraded = 0;
    sk_breaches = 0;
  }

let engine t = t.engine
let quarantined t = Atomic.get t.quarantined

(* Content store: every full source a request (or the watcher) carries is
   remembered by digest, so later requests can send digests only.  The
   store is content-addressed and idempotent; it is bounded only by what
   clients actually send — sources dwarfed by the memo tables the
   --max-cache-mb budget already bounds.  With a cache directory each
   new source is also a Store entry of kind "src", read back on a digest
   the memory table lacks, so a restarted daemon still resolves the
   digests its clients send.  An entry already on disk (a restarted
   daemon's clients resending what it saw before) is not rewritten; a
   corrupt one is dropped by the read that finds it, and the client's
   resend after the 409 writes it afresh.

   [remember] returns the stored copy of the source, and [resolve] hands
   the engine stored copies only: a content the engine saw at the same
   position before is then physically the same string, whose digest the
   engine takes over instead of hashing it again, and a source sent
   twice is held once. *)
let cache_dir t = t.cfg.s_detector.Gcatch.Bmoc.cache_dir

let remember t src =
  let d = Digest.to_hex (Digest.string src) in
  Mutex.lock t.store_mu;
  let stored = Hashtbl.find_opt t.store d in
  let fresh = stored = None in
  if fresh then Hashtbl.add t.store d src;
  Mutex.unlock t.store_mu;
  (match cache_dir t with
  | Some dir when fresh ->
      let s = Goengine.Store.at dir in
      if not (Sys.file_exists (Goengine.Store.path s ~kind:"src" ~key:d)) then
        ignore (Goengine.Store.write s ~kind:"src" ~key:d src)
  | _ -> ());
  Option.value stored ~default:src

let recall t d =
  Mutex.lock t.store_mu;
  let r = Hashtbl.find_opt t.store d in
  Mutex.unlock t.store_mu;
  match (r, cache_dir t) with
  | Some s, _ -> Some s
  | None, None -> None
  | None, Some dir ->
      Option.map
        (fun (s, _) ->
          Mutex.lock t.store_mu;
          Hashtbl.replace t.store d s;
          Mutex.unlock t.store_mu;
          s)
        (Goengine.Store.read (Goengine.Store.at dir) ~kind:"src" ~key:d)

let resolve t (files : (string * [ `Src of string | `Digest of string ]) list)
    : (string list, string list) result =
  let missing = ref [] in
  let sources =
    List.map
      (fun (_, f) ->
        match f with
        | `Src s -> remember t s
        | `Digest d -> (
            match recall t d with
            | Some s -> s
            | None ->
                missing := d :: !missing;
                ""))
      files
  in
  if !missing = [] then Ok sources else Error (List.rev !missing)

(* ------------------------------------------- self-healing rebuild ----- *)

(* Tear the poisoned engine down and stand a fresh one up without
   dropping the listener; it warms up from --cache-dir on demand.  Runs
   on its own thread (the tripping request still holds [run_mu] when it
   spawns us); [t.quarantined] is already set, so every request
   arriving meanwhile answers 503 + Retry-After instead of queueing
   behind the rebuild. *)
let rebuild_engine (t : t) ~reason : unit =
  M.incr (counter t "serve.quarantines");
  Log.warn ~kv:[ ("reason", reason) ] "engine quarantined; rebuilding";
  if J.enabled () then
    J.emit ~event:"serve.quarantine" [ ("reason", J.S reason) ];
  Mutex.lock t.run_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.run_mu)
    (fun () ->
      t.engine <- new_engine t.cfg t.registry;
      (* the heap latch guarded state that just went away with the old
         engine; clear it and let the fresh engine earn its own verdict *)
      Atomic.set Goengine.Supervise.heap_tripped false;
      Gc.compact ());
  Mutex.lock t.sup_mu;
  t.sk_errors <- 0;
  t.sk_degraded <- 0;
  t.sk_breaches <- 0;
  Mutex.unlock t.sup_mu;
  M.incr (counter t "serve.engine_rebuilds");
  if J.enabled () then J.emit ~event:"serve.rebuild" [ ("reason", J.S reason) ];
  Atomic.set t.quarantined false

(* Feed one request's outcome to the supervisor; called at the end of
   [execute], still under [run_mu].  Streaks reset on any healthy
   request, so thresholds mean *consecutive* unhealthy ones.  The heap
   latch quarantines immediately: it is a process-wide watchdog, not a
   per-request wobble. *)
let note_outcome (t : t) ~internal ~degraded ~breached : unit =
  if quarantine_enabled t.cfg && not (Atomic.get t.quarantined) then begin
    Mutex.lock t.sup_mu;
    t.sk_errors <- (if internal then t.sk_errors + 1 else 0);
    t.sk_degraded <- (if degraded then t.sk_degraded + 1 else 0);
    t.sk_breaches <- (if breached then t.sk_breaches + 1 else 0);
    let trip limit streak = limit > 0 && streak >= limit in
    let reason =
      if Atomic.get Goengine.Supervise.heap_tripped then
        Some "heap watchdog latched"
      else if trip t.cfg.s_quar_errors t.sk_errors then
        Some (Printf.sprintf "%d consecutive internal errors" t.sk_errors)
      else if trip t.cfg.s_quar_degraded t.sk_degraded then
        Some (Printf.sprintf "%d consecutive degraded requests" t.sk_degraded)
      else if trip t.cfg.s_quar_breaches t.sk_breaches then
        Some (Printf.sprintf "%d consecutive deadline breaches" t.sk_breaches)
      else None
    in
    Mutex.unlock t.sup_mu;
    match reason with
    | Some reason ->
        if not (Atomic.exchange t.quarantined true) then
          ignore (Thread.create (fun () -> rebuild_engine t ~reason) ())
    | None -> ()
  end

(* ---------------------------------------------------- one execution --- *)

(* A run's human rendering: what gcatch prints, and what a response
   carries so a client prints exactly what a local run would (modulo
   wall-clock, which is genuinely different). *)
let human_of_run (r : E.run) : string =
  let b = Buffer.create 256 in
  List.iter
    (fun d ->
      Buffer.add_string b (D.render_human d);
      Buffer.add_char b '\n')
    r.E.r_diags;
  if not (E.frontend_failed r) then begin
    let count prefix =
      (* warnings (e.g. solver-budget skips) are not bugs *)
      List.length
        (List.filter
           (fun (d : D.t) ->
             D.is_error d
             && String.length d.D.pass >= String.length prefix
             && String.sub d.D.pass 0 (String.length prefix) = prefix)
           r.E.r_diags)
    in
    Buffer.add_string b
      (Printf.sprintf "%d BMOC bug(s), %d traditional bug(s) in %.2fs\n"
         (count "bmoc") (count "trad.") r.E.r_elapsed_s);
    (* clean runs print nothing extra: the health line appears only when
       some unit did not complete at full fidelity *)
    if Goengine.Supervise.health_unclean r.E.r_health > 0 then
      Buffer.add_string b
        (Printf.sprintf "analysis health: %s\n"
           (Goengine.Supervise.health_str r.E.r_health))
  end;
  Buffer.contents b

let metrics_json (reg : M.t) =
  let b = Buffer.create 128 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      Buffer.add_string b (M.json_escape k);
      Buffer.add_string b "\":";
      Buffer.add_string b (string_of_int v))
    (M.counters_list reg);
  Buffer.add_char b '}';
  Buffer.contents b

let error_body msg =
  Printf.sprintf "{\"schema\":\"%s\",\"error\":\"%s\"}" schema
    (M.json_escape msg)

let quarantined_response = lazy (
  T.json ~status:503
    ~headers:[ ("Retry-After", "1") ]
    (error_body "engine quarantined; rebuild in progress"))

(* Run one analysis with request-scoped registry, journal context, and
   deadline.  Serialized by [run_mu]; called from a
   connection thread (or the watcher), never from inside the pool. *)
let execute (t : t) ~rid (req : req) (sources : string list) : T.response =
  Mutex.lock t.run_mu;
  if Atomic.get t.quarantined then begin
    (* admitted before the trip, reached the engine after: in-flight
       requests answer 503 rather than queueing behind the rebuild *)
    Mutex.unlock t.run_mu;
    M.incr (counter t "serve.unavailable");
    Lazy.force quarantined_response
  end
  else
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.run_mu)
      (fun () ->
        let req_reg = M.create () in
        J.set_context [ ("req", J.S rid) ];
        (match t.cfg.s_deadline_ms with
        | Some ms -> Goengine.Supervise.set_deadline_ms ms
        | None -> ());
        E.set_registry t.engine req_reg;
        let t0 = Unix.gettimeofday () in
        if J.enabled () then
          J.emit ~event:"request.begin"
            [ ("files", J.I (List.length sources)) ];
        let result =
          let only = if req.q_passes = [] then None else Some req.q_passes in
          let extra = if req.q_nonblocking then [ "nonblocking" ] else [] in
          try Ok (E.analyse ?only ~extra t.engine ~name:req.q_name sources)
          with e -> Error e
        in
        let breached =
          match t.cfg.s_deadline_ms with
          | Some _ ->
              Goengine.Supervise.pressure () = Some "deadline exceeded"
          | None -> false
        in
        E.set_registry t.engine t.registry;
        M.merge_into ~dst:t.registry req_reg;
        (match t.cfg.s_deadline_ms with
        | Some _ -> Goengine.Supervise.clear_deadline ()
        | None -> ());
        if J.enabled () then
          J.emit ~event:"request.end"
            ~dur_ms:(1000.0 *. (Unix.gettimeofday () -. t0))
            [ ("ok", J.B (Result.is_ok result)) ];
        J.clear_context ();
        match result with
        | Error e ->
            M.incr (counter t "serve.internal_error");
            note_outcome t ~internal:true ~degraded:false ~breached;
            T.json ~status:500
              (error_body ("analysis failed: " ^ Printexc.to_string e))
        | Ok r ->
            M.incr (counter t "serve.ok");
            (* classify for the supervisor: a pass-level boundary catch
               surfaces as an Internal_error-kind fault diagnostic; a
               unit-level catch (e.g. an injected solver raise) counts
               in the run's degraded ledger *)
            let internal =
              List.exists
                (fun d ->
                  match Goengine.Supervise.fault_of d with
                  | Some fi ->
                      fi.Goengine.Supervise.fi_kind
                      = Goengine.Supervise.Internal_error
                  | None -> false)
                r.E.r_diags
            in
            let degraded =
              Goengine.Supervise.health_get r.E.r_health
                Goengine.Supervise.h_degraded
              > 0
            in
            note_outcome t ~internal ~degraded ~breached;
            let exit_code = if E.errors r <> [] then 1 else 0 in
            let body =
              Printf.sprintf
                "{\"schema\":\"%s\",\"id\":\"%s\",\"exit\":%d,\
                 \"frontend_failed\":%b,\"unclean\":%d,\
                 \"human\":\"%s\",\"request_metrics\":%s,\"run\":%s}"
                schema rid exit_code (E.frontend_failed r)
                (Goengine.Supervise.health_unclean r.E.r_health)
                (M.json_escape (human_of_run r))
                (metrics_json req_reg) (E.run_to_json r)
            in
            T.json body)

(* ---------------------------------------------------- admission ------- *)

let handle_analyse (t : t) (rq : T.request) : T.response =
  M.incr (counter t "serve.requests");
  if Atomic.get t.quarantined then begin
    M.incr (counter t "serve.unavailable");
    Lazy.force quarantined_response
  end
  else
  match parse_req rq.T.rq_body with
  | Error e ->
      M.incr (counter t "serve.bad_request");
      T.json ~status:400 (error_body e)
  | Ok req -> (
      match resolve t req.q_files with
      | Error missing ->
          M.incr (counter t "serve.unknown_digest");
          T.json ~status:409
            (Printf.sprintf
               "{\"schema\":\"%s\",\"error\":\"unknown digests\",\"missing\":[%s]}"
               schema
               (String.concat ","
                  (List.map (fun d -> "\"" ^ M.json_escape d ^ "\"") missing)))
      | Ok sources ->
          if Atomic.fetch_and_add t.depth 1 >= t.cfg.s_max_queue then begin
            Atomic.decr t.depth;
            M.incr (counter t "serve.rejected");
            T.json ~status:429
              ~headers:[ ("Retry-After", "1") ]
              (error_body "request queue full")
          end
          else
            let rid = "r" ^ string_of_int (Atomic.fetch_and_add t.rid 1) in
            let resp =
              try execute t ~rid req sources
              with e ->
                (* [execute] answers analysis failures itself; this
                   catches failures of the serving machinery *)
                M.incr (counter t "serve.internal_error");
                T.json ~status:500 (error_body (Printexc.to_string e))
            in
            Atomic.decr t.depth;
            resp)

(* ------------------------------------------------------- watch mode --- *)

(* Poll [dir] for *.go changes (content digests, not just mtimes — an
   editor restoring a file must un-warm nothing) and pre-warm the memo
   tables by running the default passes over the new tree.  The warm run
   goes through [execute] like any request, so the next client request
   for the same tree is a pure artifact-cache hit. *)
let watch_scan dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter (fun n -> Filename.check_suffix n ".go")
      |> List.sort compare
      |> List.filter_map (fun n ->
             let path = Filename.concat dir n in
             match
               let ic = open_in_bin path in
               let s = really_input_string ic (in_channel_length ic) in
               close_in ic;
               s
             with
             | s -> Some (n, s)
             | exception _ -> None)

let start_watch (t : t) ~dir ~interval_s =
  let last = ref [] in
  let tick () =
    let files = watch_scan dir in
    let fps = List.map (fun (n, s) -> (n, Digest.string s)) files in
    if fps <> !last && files <> [] then begin
      last := fps;
      M.incr (counter t "serve.watch_runs");
      let sources = List.map (fun (_, s) -> remember t s) files in
      let rid = "w" ^ string_of_int (Atomic.fetch_and_add t.rid 1) in
      let req =
        {
          q_name = "cli";
          q_files = [];
          q_passes = [];
          q_nonblocking = false;
        }
      in
      ignore (execute t ~rid req sources)
    end
  in
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get t.watch_stop) do
          (try tick ()
           with e ->
             Log.warn
               ~kv:[ ("exception", Printexc.to_string e) ]
               "watch tick failed");
          (* sleep in small steps so shutdown is prompt *)
          let slept = ref 0.0 in
          while (not (Atomic.get t.watch_stop)) && !slept < interval_s do
            Thread.delay 0.05;
            slept := !slept +. 0.05
          done
        done)
      ()
  in
  t.watch_thread <- Some th

let stop_watch (t : t) =
  Atomic.set t.watch_stop true;
  (match t.watch_thread with Some th -> Thread.join th | None -> ());
  t.watch_thread <- None

(* ------------------------------------------------------------ wiring --- *)

let handlers (t : t) =
  telemetry_handlers t.registry (fun () ->
      Goobs.Profile.report ~top:10 t.registry []
      ^ E.frontend_report ~top:10 t.engine)

let post_handlers (t : t) = [ ("/analyse", handle_analyse t) ]
