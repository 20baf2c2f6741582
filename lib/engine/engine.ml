module D = Diagnostics

(* Staged analysis engine (the workflow of the paper's Figure 2, made
   reusable).

   An [Engine.t] owns an artifact cache and a registry of detector
   passes.  Artifacts are the per-stage products of the frontend —
   AST -> typed AST -> IR -> alias facts / call graph — and
   are memoized per *source set*, keyed by a content hash, so analysing
   the same sources twice (bench E1–E8, GFix re-using GCatch's compile,
   multi-config CLI runs) performs exactly one parse/typecheck/lower.

   Stages inside one artifact record are lazy: a pass that only needs
   the IR never pays for the call graph; the alias/callgraph stages are
   shared by every pass that forces them. *)

module M = Goobs.Metrics
module Trace = Goobs.Trace
module J = Goobs.Journal

(* ------------------------------------------------------- artifacts --- *)

(* Values that passes above the engine derive from one record and share
   (the primitive map, the disentangling, the traditional checkers'
   lockset walk).  Cached on the record itself, so they live exactly as
   long as it does. *)
type derived = ..

(* A file's local facts, with file-local program points: what the
   whole-program analyses are derived from (alias summaries, call sites,
   sync operations). *)
type file_facts = {
  ff_alias : Goanalysis.Alias.func_summary list;
  ff_sites : Goanalysis.Callgraph.func_sites list;
  ff_sync : Goanalysis.Syncops.func_ops list;
}

(* One file of a compiled source set, as a later version compares it:
   its lowered-stage key, lowered form and facts.  The lowered form is
   what the record's IR was assembled from. *)
type file_version = {
  fv_key : string;
  fv_lowered : Goir.Lower.lowered_file;
  fv_facts : file_facts;
}

(* The whole-program tables the per-file typecheck and lower stages
   read, built from the signature items of one fingerprint. *)
type sig_tables = {
  st_fp : string;
  st_env : Minigo.Typecheck.env;
  st_lower : Goir.Lower.sigs;
}

(* One source file of a set: its name in locations, its text, the
   digest of the text, and its key — the digest of the name and the
   content digest — which keys the file's per-file stages. *)
type source = {
  s_file : string;
  s_src : string;
  s_digest : Digest.t;
  s_key : string;
}

type artifacts = {
  a_key : string;  (* digest of the name and every file's key *)
  a_name : string;
  a_sources : source list;
  a_typed : Minigo.Ast.program Lazy.t;  (* type-checked, normalised *)
  a_ir : Goir.Ir.program Lazy.t;
  a_alias : Goanalysis.Alias.t Lazy.t;
  a_callgraph : Goanalysis.Callgraph.t Lazy.t;
  a_sync : unit -> Goanalysis.Syncops.func_ops list;
      (* every function's sync operations, rebased to program points;
         built on each call, not kept (the primitive map holds them) *)
  a_content : string option Lazy.t;
      (* combined digest of every file's typed+lowered *compiled form*
         (the marshalled bytes the disk tier stores), when all are
         known; [None] when the disk tier is off or any file's digest
         is unavailable.  Detector passes key their result cache on it:
         an edit that changes a file's content hash but not its
         compiled form (a trailing comment) still hits the pass
         cache. *)
  a_derive : ?carry:bool -> string -> (unit -> derived * bool) -> derived;
      (* [a_derive name compute]: the record's [name] value, computed
         at most once (concurrent askers wait on the promise) and
         accounted as a whole-program stage: "stage.<name>.runs", its
         wall time and trace span.  [compute] returns [false] beside a
         value that must not be kept (one cut short by pressure); the
         next asker recomputes.  With [~carry:true] the value is a
         function of the whole-program facts alone, so when
         [a_prior] holds it is taken over from the predecessor's
         record (if that one kept it) instead of computed. *)
  a_peek : string -> derived option;
      (* a value [a_derive] or [a_keep] already holds; never computes *)
  a_keep : string -> derived -> unit;
      (* keep a value a pass computed itself (the first one wins) *)
  a_prior : unit -> prior option;
      (* early cutoff: the predecessor — the last record of this name
         analysed before this one was built — when every file's facts
         and program-point count equal its, so the alias facts, call
         graph, primitive map and disentangling are its too; with the
         functions whose IR differs.  [None] with no predecessor, on
         any difference, while fault injection is armed, and once this
         record's analysis completed. *)
  a_note : string -> int -> unit;  (* add to an engine counter *)
  a_files : file_version list Lazy.t;  (* what a successor compares *)
  a_pred : artifacts option Atomic.t;
      (* the predecessor, dropped when this record's analysis completes
         so that records never chain *)
  a_digest_keys : unit -> string list;
      (* this record's entries in the engine's digest table *)
  a_sig_tables : unit -> sig_tables option;
      (* the signature tables, once this record built or took them
         over; never builds them *)
  a_sig_digests : string list Lazy.t;
      (* each file's signature digest, in file order: the signature
         fingerprint's input *)
  a_verdicts : derived Memo.t;
      (* the engine's verdict memo, shared by its records: the memory
         tier of BMOC's solve cache *)
}

and prior = {
  pr_record : artifacts;
  pr_changed : string -> bool; (* has this function's IR changed? *)
  pr_changed_funcs : string list; (* those functions, sorted *)
}

(* ---------------------------------------------------------- passes --- *)

(* A detector pass: named, individually enable-able, produces unified
   diagnostics and reports its integer metrics (solver calls, path
   events, …) into the [Goobs.Metrics.t] registry it is handed.  The
   engine gives each pass run a fresh registry, snapshots it as the
   run's metrics, then folds it into the engine-wide registry — one
   source of truth for the CLI, bench --json, and tests.  The pass also
   receives the engine's domain pool so it can fan its independent
   sub-problems (channels, functions) out across workers. *)
type metrics = (string * int) list

type pass = {
  p_name : string;
  p_doc : string;
  p_default : bool;              (* runs unless explicitly deselected *)
  p_run : Pool.t -> M.t -> artifacts -> D.t list;
}

type pass_run = {
  pr_pass : string;
  pr_elapsed_s : float;
  pr_diags : D.t list;
  pr_metrics : metrics;
}

type run = {
  r_name : string;
  r_key : string;
  r_from_cache : bool;           (* artifacts served from the cache *)
  r_artifacts : artifacts option; (* None when the frontend failed *)
  r_diags : D.t list;            (* frontend diagnostics + all passes *)
  r_passes : pass_run list;
  r_elapsed_s : float;
  r_health : (string * int) list;
      (* the run's analysis-health ledger: "health.*" counters summed
         over the frontend units and every pass's units *)
}

type t = {
  mutable passes : pass list;
  cache : (string, artifacts) Hashtbl.t;
  cache_atime : (string, int) Hashtbl.t;
      (* recency tick per source-set key, for LRU eviction *)
  mutable cache_clock : int;
  latest : (string, artifacts) Hashtbl.t;
      (* per name, the record whose analysis completed last: the next
         record of that name compares itself with it *)
  mutable registry : M.t;
      (* stage/cache counters, pass timings, pass metrics.  Mutable so a
         long-lived server can point the engine at a fresh per-request
         registry before each run and fold it into the process registry
         after ([merge_into]) — request-scoped counters without losing
         /metrics monotonicity. *)
  reporting : M.t ref; (* [registry], for the memos' eviction counts *)
  max_entries : int;
  pool : Pool.t;
  lock : Mutex.t; (* guards [cache] and [file_times]: batch drivers
                     analyse several source sets concurrently through
                     one engine *)
  store : Store.t option; (* optional on-disk tier for per-file
                             artifacts (parse/sig/typed/lowered) *)
  (* The memory tiers, under one byte budget.  Per-file artifact memos
     are keyed by the file's content hash (plus, for the stages that
     read cross-file context, the program's signature fingerprint).
     Promise-keyed so concurrent analyses sharing a file compute each
     per-file unit at most once — which also keeps the per-file stage
     counters schedule-independent.  Tokens are not memoised: a file is
     lexed only when its AST misses both tiers. *)
  budget : Memo.budget;
  fc_ast : Minigo.Ast.file Memo.t;
  fc_sigs : Minigo.Typecheck.sig_item list Memo.t;
  fc_typed : Minigo.Ast.file Memo.t;
  fc_lowered : Goir.Lower.lowered_file Memo.t;
  fc_facts : file_facts Memo.t;
  verdicts : derived Memo.t; (* [a_verdicts] *)
  file_times : (string, float) Hashtbl.t;
      (* cumulative frontend seconds per source file, for --profile *)
  file_digests : (string, string) Hashtbl.t;
      (* "<stage>:<key>" -> digest of the value's marshalled bytes,
         recorded by the disk tier on read and write; feeds
         [a_content].  Pruned to the live records' entries whenever a
         record is evicted. *)
}

(* [jobs] sizes the engine's domain pool (shared process-wide per size);
   [pool] overrides it with a caller-managed pool.  The default is
   sequential: parallelism is opt-in so that test code creating many
   engines never spawns domains behind the caller's back.  [registry]
   lets the caller unify engine metrics with a wider scope (the CLI
   passes [Goobs.Metrics.default]); the default is a private registry
   per engine so concurrent test engines never share counters. *)
let create ?(max_entries = 512) ?(passes = []) ?(jobs = 1) ?pool ?registry
    ?cache_dir () =
  let pool = match pool with Some p -> p | None -> Pool.get ~jobs in
  let registry = match registry with Some r -> r | None -> M.create () in
  let budget = Memo.budget () and reporting = ref registry in
  let file () =
    Memo.create ~budget
      ~on_evict:(fun n -> M.add (M.counter !reporting "engine.file_mem_evictions") n)
      ()
  in
  {
    passes;
    cache = Hashtbl.create 32;
    cache_atime = Hashtbl.create 32;
    cache_clock = 0;
    latest = Hashtbl.create 8;
    registry;
    reporting;
    max_entries;
    pool;
    lock = Mutex.create ();
    store = Option.map Store.at cache_dir;
    budget;
    fc_ast = file ();
    fc_sigs = file ();
    fc_typed = file ();
    fc_lowered = file ();
    fc_facts = file ();
    (* counted beside the solve cache's other counters *)
    verdicts =
      Memo.create ~budget
        ~on_evict:(fun n -> M.add (M.counter M.default "bmoc.solve_cache_evictions") n)
        ();
    file_times = Hashtbl.create 64;
    file_digests = Hashtbl.create 64;
  }

let jobs t = Pool.jobs t.pool

let locked (t : t) f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let record_digest (t : t) ~stage ~key d =
  locked t (fun () -> Hashtbl.replace t.file_digests (stage ^ ":" ^ key) d)

let value_digest (t : t) ~stage ~key =
  locked t (fun () -> Hashtbl.find_opt t.file_digests (stage ^ ":" ^ key))

(* Entries in the digest table (what a long-lived server's memory holds
   for [a_content]). *)
let digest_entries (t : t) = locked t (fun () -> Hashtbl.length t.file_digests)

let register (t : t) (p : pass) =
  if List.exists (fun q -> q.p_name = p.p_name) t.passes then
    invalid_arg ("Engine.register: duplicate pass " ^ p.p_name);
  t.passes <- t.passes @ [ p ]

let passes t = t.passes

(* Swap the engine's reporting registry.  Callers serialize runs (the
   server holds its request lock across set + analyse), so counters of a
   run never straddle two registries. *)
let set_registry t r =
  t.registry <- r;
  t.reporting := r

(* Bound the engine's six memory tiers (five per-file memos and the
   verdict memo) to [mb] megabytes together; [mb <= 0] unbounds them. *)
let set_cache_budget_mb (t : t) mb =
  Memo.set_budget t.budget ~bytes:(mb * 1024 * 1024)

(* Read one engine counter by registry name (e.g. "stage.parse.runs",
   "engine.cache_hits"); unknown names read as 0. *)
let counter_value (t : t) name = M.value (M.counter t.registry name)

let stats_str (t : t) =
  let c = counter_value t in
  Printf.sprintf
    "cache: %d hit(s), %d miss(es); stage runs: %d lex, %d parse, %d \
     typecheck, %d lower, %d alias, %d callgraph"
    (c "engine.cache_hits") (c "engine.cache_misses") (c "stage.lex.runs")
    (c "stage.parse.runs")
    (c "stage.typecheck.runs")
    (c "stage.lower.runs") (c "stage.alias.runs") (c "stage.callgraph.runs")

(* ------------------------------------------------- frontend stages --- *)

(* Key a source set.  Each source's content is hashed at most once: a
   source that is physically the string at the same position of [like]
   (by default the sources of the last record of this name) takes that
   digest over, so an edit hashes only the sources it replaced.  Returns
   the keyed sources and the set's key.  File naming matches
   [Parser.parse_program] so locations are byte-identical to the
   pre-engine pipeline. *)
let key_sources (t : t) ?like ~name sources : source list * string =
  let like =
    match like with
    | Some l -> l
    | None ->
        locked t (fun () ->
            match Hashtbl.find_opt t.latest name with
            | Some a -> a.a_sources
            | None -> [])
  in
  let like = ref like and hashed = ref 0 in
  let keyed =
    List.mapi
      (fun i src ->
        let prior, rest =
          match !like with l :: rest -> (Some l, rest) | [] -> (None, [])
        in
        like := rest;
        let digest =
          match prior with
          | Some l when l.s_src == src -> l.s_digest
          | Some _ | None ->
              incr hashed;
              Digest.string src
        in
        let file = Printf.sprintf "%s/file%d.go" name i in
        {
          s_file = file;
          s_src = src;
          s_digest = digest;
          s_key = Digest.to_hex (Digest.string (file ^ "\x00" ^ digest));
        })
      sources
  in
  M.add (M.counter t.registry "engine.sources_hashed") !hashed;
  let key =
    Digest.to_hex
      (Digest.string
         (String.concat "\x00" (name :: List.map (fun s -> s.s_key) keyed)))
  in
  (keyed, key)

(* ------------------------------------------- per-file disk tier ------ *)

(* On-disk per-file artifacts (parse AST, signatures, typed AST, lowered
   file), one {!Store} entry per (stage, content key).  This is what
   makes a fresh process warm: re-analysing an edited tree
   re-lexes/parses/typechecks only the files whose content hash changed.
   Reads and writes record each entry's value digest, which feeds
   [a_content]. *)

let disk_read (t : t) ~stage ~key =
  match t.store with
  | None -> None
  | Some s -> (
      match Store.read s ~kind:stage ~key with
      | Some (v, d) ->
          record_digest t ~stage ~key d;
          Some v
      | None -> None)

let disk_write (t : t) ~stage ~key v =
  match t.store with
  | None -> ()
  | Some s -> (
      match Store.write s ~kind:stage ~key v with
      | Ok d -> record_digest t ~stage ~key d
      | Error _ -> ())

let disk_digest (t : t) ~stage ~key =
  match value_digest t ~stage ~key with
  | Some d -> Some d
  | None ->
      let d = Option.bind t.store (fun s -> Store.digest s ~kind:stage ~key) in
      Option.iter (record_digest t ~stage ~key) d;
      d

(* ------------------------------------------- per-file stage units ---- *)

(* One per-file unit of one frontend stage: memory tier, then (for the
   marshalable stages) the disk tier, then compute.  Only successes are
   cached — a failing file re-raises out of the program-level lazy,
   which memoizes the exception, so error semantics are unchanged.  The
   stage's run counter counts actual computations: after a one-file
   edit, exactly one unit per stage recomputes and the counters say so.
   The counter is bumped *before* computing so a failing unit still
   counts as an attempted run. *)
let file_unit (t : t) ~stage ~memo ~key ~file ?(disk = false) ?reintern
    compute =
  let t0 = Clock.now_s () in
  let from_disk = ref false in
  match
    Memo.find_or_compute memo key (fun () ->
        match (if disk then disk_read t ~stage ~key else None) with
        | Some v ->
            from_disk := true;
            let v = match reintern with Some f -> f v | None -> v in
            (v, true)
        | None ->
            M.incr (M.counter t.registry ("stage." ^ stage ^ ".runs"));
            let v = compute () in
            if disk then disk_write t ~stage ~key v;
            (v, true))
  with
  | `Hit v ->
      M.incr (M.counter t.registry "engine.file_mem_hit");
      v
  | `Computed v ->
      let dt = Clock.elapsed_since t0 in
      if !from_disk then M.incr (M.counter t.registry "engine.file_disk_hit");
      (* the journal's per-file frontend ledger: exactly one event per
         (stage, key) unit actually computed or loaded — the memo makes
         the set schedule-independent, so streams diff clean across
         --jobs once sorted *)
      if J.enabled () then
        J.emit
          ~event:(if !from_disk then "file.disk_hit" else "file.compiled")
          ~dur_ms:(1000.0 *. dt)
          [
            ("stage", J.S stage);
            ("file", J.S file);
            ("key", J.S (String.sub key 0 (min 12 (String.length key))));
          ];
      M.observe
        (M.histogram t.registry ("stage." ^ stage ^ ".file_ms"))
        (1000.0 *. dt);
      locked t (fun () ->
          Hashtbl.replace t.file_times file
            (dt
            +. Option.value (Hashtbl.find_opt t.file_times file) ~default:0.0));
      v

(* Program-level span for one stage: trace span plus the
   "stage.<name>.ms" wall-time histogram.  The per-file stages bump
   their run counters per file (in [file_unit]); the whole-program
   stages use [stage_counted], preserving the one-run-per-program
   counter semantics. *)
let stage_span (t : t) name f =
  Trace.with_span ~name:("stage." ^ name) (fun () ->
      let t0 = Clock.now_s () in
      let r = f () in
      let dt = Clock.elapsed_since t0 in
      M.observe (M.histogram t.registry ("stage." ^ name ^ ".ms")) (1000.0 *. dt);
      if J.enabled () then
        J.emit ~event:"stage.done" ~dur_ms:(1000.0 *. dt)
          [ ("stage", J.S name) ];
      r)

let stage_counted (t : t) name f =
  stage_span t name (fun () ->
      M.incr (M.counter t.registry ("stage." ^ name ^ ".runs"));
      f ())

(* Minimum items per dispatched pool item for per-file fan-outs.  Small
   batches run inline (no dispatch overhead); large ones chunk so the
   per-item grain stays coarse.  Derived from the batch size alone —
   never from the job count — so counters and diagnostics stay
   schedule-independent. *)
let frontend_grain n = if n <= 8 then n else max 2 (n / 32)

(* Build the lazy stage chain for one keyed source set.

   Every per-file stage fans out over the engine's pool: results come
   back in file order and a failing file re-raises the smallest file
   index's exception (after the siblings finish and publish their cache
   entries), so diagnostics are byte-identical at any [jobs] and a
   salvage retry recompiles only the stubbed file.  Per-file artifacts
   are keyed by the file's key ([key_sources]); the stages that read
   cross-file context (typecheck, lower, facts) add the program's
   signature fingerprint, so editing one file's bodies re-runs exactly
   that file while a signature change invalidates every dependent. *)
(* A domain-safe once-cell: the per-file compute closures below share
   whole-program inputs (type environment, lowering signatures) that a
   fully cache-warm run never needs — build them on first use only.
   Returns the getter and a peek that never builds. *)
let once f =
  let mu = Mutex.create () in
  let r = Atomic.make None in
  let get () =
    match Atomic.get r with
    | Some v -> v
    | None ->
        Mutex.lock mu;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock mu)
          (fun () ->
            match Atomic.get r with
            | Some v -> v
            | None ->
                let v = f () in
                Atomic.set r (Some v);
                v)
  in
  (get, fun () -> Atomic.get r)

let build_artifacts (t : t) ?pred ~key ~name (sources : source list) :
    artifacts =
  let keyed = List.map (fun s -> (s.s_file, s.s_src, s.s_key)) sources in
  let grain = frontend_grain (List.length keyed) in
  let pmap f xs = Pool.map ~pool:t.pool ~grain f xs in
  (* lexing is part of the parse unit; it keeps its own run counter,
     bumped before the fault site so a faulting file still counts *)
  let parse_file (file, src, key) =
    file_unit t ~stage:"parse" ~memo:t.fc_ast ~key ~file ~disk:true
      ~reintern:Minigo.Intern.file (fun () ->
        M.incr (M.counter t.registry "stage.lex.runs");
        Goobs.Faults.trigger ~site:"frontend" ~key:file ();
        Minigo.Parser.parse_file ~file src)
  in
  (* a file's declaration signatures: the only cross-file input the
     downstream per-file stages read.  Keyed on content alone (no
     program fingerprint — signatures depend only on the file's own
     text), so a warm run reads 49 tiny entries plus parses the one
     edited file instead of re-parsing the world. *)
  let sig_file ?tree ((file, _, key) as fk) =
    file_unit t ~stage:"sig" ~memo:t.fc_sigs ~key ~file ~disk:true
      (fun () ->
        Minigo.Typecheck.file_signatures
          (match tree with Some a -> a | None -> parse_file fk))
  in
  (* The files whose signatures are in neither tier parse first, in a
     fan-out of their own, so parsing has a wall span apart from the
     signature stage; their signature units take the trees directly.
     A file that only turns out to need parsing inside the signature
     fan-out (an unreadable disk entry) still parses there. *)
  let sig_stored (_, _, key) =
    Memo.find_done t.fc_sigs key <> None
    || Option.fold t.store ~none:false ~some:(fun s ->
           Sys.file_exists (Store.path s ~kind:"sig" ~key))
  in
  let sigs_of fks =
    let todo = List.filter (fun fk -> not (sig_stored fk)) fks in
    let trees = Hashtbl.create 16 in
    if todo <> [] then
      stage_span t "parse" (fun () ->
          List.iter2
            (fun (_, _, key) a -> Hashtbl.replace trees key a)
            todo (pmap parse_file todo));
    stage_span t "sig" (fun () ->
        pmap
          (fun ((_, _, key) as fk) ->
            sig_file ?tree:(Hashtbl.find_opt trees key) fk)
          fks)
  in
  let a_sigs = lazy (sigs_of keyed) in
  let a_pred = Atomic.make pred in
  (* Each file's signature digest.  A file key names the file's position
     and content, so a file whose key the predecessor has takes that
     digest over: a body edit digests the edited file's signatures
     alone, without reading the other files' signatures. *)
  let a_sig_digests =
    lazy
      (let digests = Hashtbl.create 64 in
       (match Atomic.get a_pred with
       | Some p when Lazy.is_val p.a_sig_digests ->
           List.iter2
             (fun s d -> Hashtbl.replace digests s.s_key d)
             p.a_sources (Lazy.force p.a_sig_digests)
       | Some _ | None -> ());
       let todo =
         List.filter (fun (_, _, key) -> not (Hashtbl.mem digests key)) keyed
       in
       List.iter2
         (fun (_, _, key) sigs ->
           Hashtbl.replace digests key
             (Minigo.Typecheck.signatures_fingerprint sigs))
         todo
         (if List.compare_lengths todo keyed = 0 then Lazy.force a_sigs
          else sigs_of todo);
       M.add (M.counter t.registry "engine.sig_digests") (List.length todo);
       List.map (fun (_, _, key) -> Hashtbl.find digests key) keyed)
  in
  (* the program's signature fingerprint, from the per-file digests *)
  let a_fp =
    lazy
      (Digest.to_hex
         (Digest.string (String.concat "" (Lazy.force a_sig_digests))))
  in
  (* whole-program signature tables, built from the per-file signature
     items on first use only: a run whose passes are all served from
     the result cache never constructs them, and a record whose
     predecessor holds the tables of the same fingerprint (every body
     edit) takes those over *)
  let tables, a_sig_tables =
    once (fun () ->
        let fp = Lazy.force a_fp in
        match
          Option.bind (Atomic.get a_pred) (fun p -> p.a_sig_tables ())
        with
        | Some st when st.st_fp = fp -> st
        | Some _ | None ->
            M.incr (M.counter t.registry "engine.sig_tables_built");
            let items = List.concat (Lazy.force a_sigs) in
            {
              st_fp = fp;
              st_env = Minigo.Typecheck.env_of_signatures items;
              st_lower = Goir.Lower.sigs_of_signatures items;
            })
  in
  let stage_key tag (_, _, key) =
    Digest.to_hex (Digest.string (key ^ tag ^ Lazy.force a_fp))
  in
  let typed_file ((file, _, _) as fk) =
    file_unit t ~stage:"typecheck" ~memo:t.fc_typed
      ~key:(stage_key "\x00" fk) ~file ~disk:true ~reintern:Minigo.Intern.file
      (fun () ->
        Minigo.Typecheck.check_file (tables ()).st_env (parse_file fk))
  in
  let a_typed =
    lazy (stage_span t "typecheck" (fun () -> pmap typed_file keyed))
  in
  let lowered_file ((file, _, _) as fk) =
    file_unit t ~stage:"lower" ~memo:t.fc_lowered ~key:(stage_key "\x01" fk)
      ~file ~disk:true (fun () ->
        Goir.Lower.lower_file (tables ()).st_lower (typed_file fk))
  in
  let a_lowered =
    lazy (stage_span t "lower" (fun () -> pmap lowered_file keyed))
  in
  (* per-file local facts for the global analyses, with file-local
     program points; rebased below by each file's pp offset *)
  let a_facts =
    lazy
      (stage_span t "facts" (fun () ->
           let lfs = Lazy.force a_lowered in
           pmap
             (fun (((file, _, _) as fk), lf) ->
               file_unit t ~stage:"facts" ~memo:t.fc_facts
                 ~key:(stage_key "\x02" fk) ~file (fun () ->
                   let funcs = List.map snd (Goir.Lower.file_funcs lf) in
                   {
                     ff_alias = List.map Goanalysis.Alias.extract_func funcs;
                     ff_sites = List.map Goanalysis.Callgraph.extract_func funcs;
                     ff_sync = List.map Goanalysis.Syncops.extract_func funcs;
                   }))
             (List.combine keyed lfs)))
  in
  (* a file whose lowered key equals the predecessor's file at the same
     position keeps the predecessor's lowered value: equal content, and
     the identity that lets assembly share its functions *)
  let a_files =
    lazy
      (let lfs = Lazy.force a_lowered in
       let facts = Lazy.force a_facts in
       let mine =
         List.map2
           (fun (fk, lf) ff ->
             { fv_key = stage_key "\x01" fk; fv_lowered = lf; fv_facts = ff })
           (List.combine keyed lfs) facts
       in
       match Atomic.get a_pred with
       | Some p when Lazy.is_val p.a_files ->
           let theirs = Lazy.force p.a_files in
           if List.compare_lengths mine theirs <> 0 then mine
           else
             List.map2
               (fun fv old ->
                 if fv.fv_key = old.fv_key then
                   { fv with fv_lowered = old.fv_lowered }
                 else fv)
               mine theirs
       | Some _ | None -> mine)
  in
  (* Early cutoff.  The predecessor's files are compared in order: a file
     whose lowered key is unchanged is the same file; any other must
     have the same program-point count (so every later file keeps its
     offset) and structurally equal facts, and its functions are
     compared by name with the predecessor's to find the ones whose IR
     changed.  No whole-program digest is taken: only edited files are
     looked at. *)
  (* the changed functions when the cutoff holds; read-only once built *)
  let a_cutoff =
    lazy
      (match Atomic.get a_pred with
      | None -> None
      | Some p ->
          let changed = Hashtbl.create 8 in
          let same_file mine theirs =
            mine.fv_key = theirs.fv_key
            || Goir.Lower.file_pp_count mine.fv_lowered
               = Goir.Lower.file_pp_count theirs.fv_lowered
               && mine.fv_facts = theirs.fv_facts
               &&
               let old = Hashtbl.create 64 in
               List.iter
                 (fun (n, f) -> Hashtbl.replace old n f)
                 (Goir.Lower.file_funcs theirs.fv_lowered);
               List.iter
                 (fun (n, f) ->
                   match Hashtbl.find_opt old n with
                   | Some g when g = f -> ()
                   | _ -> Hashtbl.replace changed n ())
                 (Goir.Lower.file_funcs mine.fv_lowered);
               true
          in
          let holds =
            (not (Goobs.Faults.active ()))
            && Lazy.is_val p.a_files
            &&
            let mine = Lazy.force a_files and theirs = Lazy.force p.a_files in
            List.length mine = List.length theirs
            && List.for_all2 same_file mine theirs
          in
          M.incr
            (M.counter t.registry
               (if holds then "engine.cutoff_hits" else "engine.cutoff_misses"));
          if holds then Some changed
          else begin
            Atomic.set a_pred None;
            None
          end)
  in
  (* the predecessor, while the cutoff holds and no fault is armed *)
  let pred_if_equal () =
    match Lazy.force a_cutoff with
    | Some changed when not (Goobs.Faults.active ()) ->
        Option.map (fun p -> (p, changed)) (Atomic.get a_pred)
    | Some _ | None -> None
  in
  (* When the cutoff holds and the predecessor assembled its program,
     the program is reassembled onto it: the functions of unchanged
     files are the predecessor's, and only the edited files are placed.
     Otherwise (a cold run, a miss) every file is placed. *)
  let a_ir =
    lazy
      (stage_span t "assemble" (fun () ->
           let typed = Lazy.force a_typed in
           let placed = ref 0 in
           let lowered fvs = List.map (fun fv -> fv.fv_lowered) fvs in
           let ir =
             match pred_if_equal () with
             | Some (p, _) when Lazy.is_val p.a_ir ->
                 Goir.Lower.assemble
                   ~prev:(Lazy.force p.a_ir, lowered (Lazy.force p.a_files))
                   ~placed typed
                   (lowered (Lazy.force a_files))
             | Some _ | None ->
                 (* rebasing copies every function: spread the files
                    over the pool *)
                 Goir.Lower.assemble ~placed ~map:pmap typed
                   (Lazy.force a_lowered)
           in
           M.add (M.counter t.registry "engine.assemble_files_placed") !placed;
           ir))
  in
  (* Where each function's facts sit, as (file, position) pairs in the
     order the whole-program analyses visit functions: the program's
     function order, which assembly sorted once (by name, a name
     declared in two files taking the later file's).  Computed once per
     record, so alias, call graph and primitive map are handed facts
     they need not sort. *)
  let a_order =
    lazy
      (let order = Goir.Ir.funcs_list (Lazy.force a_ir) in
       let slot = Hashtbl.create (2 * List.length order + 1) in
       List.iteri (fun i (f : Goir.Ir.func) -> Hashtbl.replace slot f.name i) order;
       let where = Array.make (Hashtbl.length slot) (0, 0) in
       List.iteri
         (fun fi fv ->
           List.iteri
             (fun k (cs : Goanalysis.Callgraph.func_sites) ->
               where.(Hashtbl.find slot cs.cs_name) <- (fi, k))
             fv.fv_facts.ff_sites)
         (Lazy.force a_files);
       where)
  in
  (* each function's facts in that order, rebased by its file's pp
     offset *)
  let rebased pick rebase =
    let off = ref 0 in
    let files =
      Array.of_list
        (List.map
           (fun fv ->
             let o = !off in
             off := o + Goir.Lower.file_pp_count fv.fv_lowered;
             (o, Array.of_list (pick fv.fv_facts)))
           (Lazy.force a_files))
    in
    Array.fold_right
      (fun (fi, k) acc ->
        let o, xs = files.(fi) in
        rebase o xs.(k) :: acc)
      (Lazy.force a_order) []
  in
  let a_sync () = rebased (fun ff -> ff.ff_sync) Goanalysis.Syncops.rebase in
  let taken_over : 'a. (artifacts -> 'a Lazy.t) -> 'a option =
   fun l ->
    match pred_if_equal () with
    | Some (p, _) when Lazy.is_val (l p) -> Some (Lazy.force (l p))
    | Some _ | None -> None
  in
  let a_alias =
    lazy
      (match taken_over (fun p -> p.a_alias) with
      | Some al -> al
      | None ->
          stage_counted t "alias" (fun () ->
              Goanalysis.Alias.solve (Lazy.force a_ir)
                (rebased (fun ff -> ff.ff_alias)
                   Goanalysis.Alias.rebase_summary)))
  in
  let a_callgraph =
    lazy
      (match taken_over (fun p -> p.a_callgraph) with
      | Some cg -> cg
      | None ->
          stage_counted t "callgraph" (fun () ->
              Goanalysis.Callgraph.build_from_sites
                ~alias:(Lazy.force a_alias) (Lazy.force a_ir)
                (rebased (fun ff -> ff.ff_sites)
                   Goanalysis.Callgraph.rebase_sites)))
  in
  (* The digest of every file's compiled form.  The cheap path reads
     each typed/lowered digest from the digest table or from the disk
     entry's header — no value load; only files with no entry (an
     edit, a cold run) compute their stage units.  Forcing this also
     surfaces every frontend error: each file either has cached
     typed+lowered entries (it compiled before) or gets compiled
     here. *)
  let a_content =
    lazy
      (let part stage tag fk = disk_digest t ~stage ~key:(stage_key tag fk) in
       let file_part fk =
         match (part "typecheck" "\x00" fk, part "lower" "\x01" fk) with
         | Some d1, Some d2 -> Some (d1 ^ d2)
         | _ -> None
       in
       let ds = List.map file_part keyed in
       let missing =
         List.filter_map
           (fun (fk, d) -> if d = None then Some fk else None)
           (List.combine keyed ds)
       in
       let ds =
         if missing = [] then ds
         else begin
           (* compile the missing files; through the whole-stage lazies
              when everything is missing (a cold run — keeps the
              stage-span accounting), per file otherwise *)
           (if List.length missing = List.length keyed then begin
              ignore (Lazy.force a_typed);
              ignore (Lazy.force a_lowered)
            end
            else
              ignore
                (pmap
                   (fun fk ->
                     ignore (typed_file fk);
                     ignore (lowered_file fk))
                   missing));
           List.map file_part keyed
         end
       in
       if List.for_all Option.is_some ds then
         Some
           (Digest.to_hex
              (Digest.string
                 (String.concat ""
                    (List.map (Option.value ~default:"") ds))))
       else None)
  in
  let derived = Memo.create () in
  {
    a_key = key;
    a_name = name;
    a_sources = sources;
    a_typed;
    a_ir;
    a_alias;
    a_callgraph;
    a_sync;
    a_content;
    a_derive =
      (fun ?(carry = false) name compute ->
        match
          Memo.find_or_compute derived name (fun () ->
              match
                if carry then
                  Option.bind (pred_if_equal ()) (fun (p, _) -> p.a_peek name)
                else None
              with
              | Some v -> (v, true)
              | None -> stage_counted t name compute)
        with
        | `Hit v | `Computed v -> v);
    a_peek = Memo.find_done derived;
    a_keep = (fun name v -> ignore (Memo.find_or_compute derived name (fun () -> (v, true))));
    a_prior =
      (fun () ->
        Option.map
          (fun (p, changed) ->
            {
              pr_record = p;
              pr_changed = Hashtbl.mem changed;
              pr_changed_funcs =
                List.sort String.compare
                  (Hashtbl.fold (fun f () acc -> f :: acc) changed []);
            })
          (pred_if_equal ()));
    a_note = (fun name n -> M.add (M.counter t.registry name) n);
    a_files;
    a_pred;
    a_digest_keys =
      (fun () ->
        if Lazy.is_val a_fp then
          List.concat_map
            (fun fk ->
              [ "typecheck:" ^ stage_key "\x00" fk; "lower:" ^ stage_key "\x01" fk ])
            keyed
        else []);
    a_sig_tables;
    a_sig_digests;
    a_verdicts = t.verdicts;
  }

(* Drop digest-table entries no live record reads: the table gains a
   typecheck and a lower entry per edited file, so without this a
   long-lived server's table grows with every edit.  A dropped entry a
   record does read again falls back to the store header.  Called with
   [t.lock] held. *)
let prune_digests_locked (t : t) =
  let live = Hashtbl.create (2 * Hashtbl.length t.file_digests + 1) in
  Hashtbl.iter
    (fun _ a -> List.iter (fun k -> Hashtbl.replace live k ()) (a.a_digest_keys ()))
    t.cache;
  Hashtbl.filter_map_inplace
    (fun k d -> if Hashtbl.mem live k then Some d else None)
    t.file_digests

(* Look up (or create) the artifact record for a source set.  Stages are
   not forced here; forcing — and any frontend exception — happens at
   the use site, exactly once per cached entry (lazy memoizes the
   exception too).  A new record starts from the last record of the
   same name whose analysis completed, its predecessor.  [keyed] is the
   source set as [key_sources] keyed it. *)
let artifacts_keyed (t : t) ~name (sources, key) : artifacts =
  locked t (fun () ->
      t.cache_clock <- t.cache_clock + 1;
      match Hashtbl.find_opt t.cache key with
      | Some a ->
          M.incr (M.counter t.registry "engine.cache_hits");
          Hashtbl.replace t.cache_atime key t.cache_clock;
          a
      | None ->
          M.incr (M.counter t.registry "engine.cache_misses");
          let pred = Hashtbl.find_opt t.latest name in
          (* Evict the least-recently-used source set when full.  An
             artifact record pins the whole-program IR once forced, so a
             long-lived server runs with a small [max_entries] and leans
             on this bound; one-shot workloads never come close to it.
             The memory tiers are bounded separately ([set_cache_budget_mb])
             — evicting a source set must not drop per-file work or
             verdicts that other live sets still share. *)
          let evicted = ref false in
          while Hashtbl.length t.cache >= t.max_entries do
            let victim = ref None in
            Hashtbl.iter
              (fun k tick ->
                match !victim with
                | Some (_, best) when best <= tick -> ()
                | _ -> victim := Some (k, tick))
              t.cache_atime;
            evicted := true;
            match !victim with
            | None ->
                Hashtbl.reset t.cache (* atime lost sync; start over *);
                Hashtbl.reset t.latest
            | Some (k, _) ->
                (match Hashtbl.find_opt t.cache k with
                | Some v -> (
                    match Hashtbl.find_opt t.latest v.a_name with
                    | Some l when l == v -> Hashtbl.remove t.latest v.a_name
                    | _ -> ())
                | None -> ());
                Hashtbl.remove t.cache k;
                Hashtbl.remove t.cache_atime k;
                M.incr (M.counter t.registry "engine.artifact_evictions")
          done;
          if !evicted then prune_digests_locked t;
          let a = build_artifacts t ?pred ~key ~name sources in
          Hashtbl.add t.cache key a;
          Hashtbl.replace t.cache_atime key t.cache_clock;
          a)

let artifacts (t : t) ~name sources : artifacts =
  artifacts_keyed t ~name (key_sources t ~name sources)

(* Convert a frontend exception into a structured diagnostic.  The
   message formats mirror what the CLIs used to print by hand. *)
let frontend_diag : exn -> D.t option = function
  | Minigo.Lexer.Lex_error (m, loc) ->
      Some
        (D.v ~pass:"frontend/lex" ~loc
           (Printf.sprintf "lex error: %s at %s" m (Minigo.Loc.to_string loc)))
  | Minigo.Parser.Parse_error (m, loc) ->
      Some
        (D.v ~pass:"frontend/parse" ~loc
           (Printf.sprintf "parse error: %s at %s" m (Minigo.Loc.to_string loc)))
  | Minigo.Typecheck.Type_error (m, loc) ->
      Some
        (D.v ~pass:"frontend/typecheck" ~loc
           (Printf.sprintf "type error: %s at %s" m (Minigo.Loc.to_string loc)))
  | Goir.Lower.Lower_error (m, loc) ->
      Some
        (D.v ~pass:"frontend/lower" ~loc
           (Printf.sprintf "lowering error: %s at %s" m
              (Minigo.Loc.to_string loc)))
  | Goobs.Faults.Injected ("frontend", key) ->
      (* the injection site sits in each file's parse unit; carry the
         file name as a location so salvage can identify the file *)
      Some
        (D.v ~pass:"frontend/fault"
           ~loc:(Minigo.Loc.make ~file:key ~line:1 ~col:1)
           (Printf.sprintf "injected fault at frontend (%s)" key))
  | _ -> None

(* Compile a keyed source set through the frontend stages, capturing
   frontend exceptions as diagnostics instead of letting them escape. *)
let compile (t : t) ~name keyed : (artifacts, D.t) result =
  let a = artifacts_keyed t ~name keyed in
  (* forcing [a_content] forces the typed and lowered files, which
     surfaces every frontend error (assembly is a pure merge and cannot
     fail) while leaving [a_ir] unforced: a run whose passes are all
     served from the result cache never pays for whole-program
     assembly *)
  match Lazy.force a.a_content with
  | _ -> Ok a
  | exception e -> (
      (* a record that does not compile has nothing to take over *)
      Atomic.set a.a_pred None;
      match frontend_diag e with Some d -> Error d | None -> raise e)

(* -------------------------------------------------------- analysis --- *)

let select_passes (t : t) ?only ?(extra = []) () : pass list =
  let check_known names =
    List.iter
      (fun n ->
        if not (List.exists (fun p -> p.p_name = n) t.passes) then
          invalid_arg (Printf.sprintf "Engine.analyse: unknown pass %S" n))
      names
  in
  match only with
  | Some names ->
      check_known names;
      List.filter (fun p -> List.mem p.p_name names) t.passes
  | None ->
      check_known extra;
      List.filter
        (fun p -> p.p_default || List.mem p.p_name extra)
        t.passes

(* ------------------------------------------- frontend fault salvage --- *)

(* Identify which file a frontend diagnostic points at: locations are
   named "%s/file%d.go" by [build_artifacts]. *)
let failing_file_index ~name ~n (d : D.t) : int option =
  match d.D.loc with
  | None -> None
  | Some l ->
      let file = Minigo.Loc.file l in
      let prefix = name ^ "/file" in
      let plen = String.length prefix in
      if
        String.length file > plen + 3
        && String.sub file 0 plen = prefix
        && Filename.check_suffix file ".go"
      then
        match
          int_of_string_opt (String.sub file plen (String.length file - plen - 3))
        with
        | Some k when k >= 0 && k < n -> Some k
        | _ -> None
      else None

(* Replace a broken file with a minimal parseable stub that keeps its
   package line (so sibling files still typecheck against the same
   package), preserving every other file's name and index. *)
let stub_of (src : string) : string =
  let first_line =
    match String.index_opt src '\n' with
    | Some i -> String.sub src 0 i
    | None -> src
  in
  if String.length first_line >= 8 && String.sub first_line 0 8 = "package " then
    first_line ^ "\n"
  else "package p\n"

(* Compile with per-file fault containment: when the frontend fails over
   a multi-file source set, the failing file is replaced by a stub and
   compilation retried, so one broken corpus file degrades to one
   frontend diagnostic (plus a supervision note) instead of killing the
   whole run.  Returns the artifacts (if any subset survived), the
   frontend diagnostics in discovery order, and the number of files
   dropped.  A retry keys only the stubbed file anew. *)
let compile_salvaging (t : t) ~name ((sources, _) as keyed) :
    artifacts option * D.t list * int =
  let arr = Array.of_list (List.map (fun s -> s.s_src) sources) in
  let n = Array.length arr in
  let stubbed = Array.make n false in
  let dropped () =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 stubbed
  in
  let diags = ref [] in
  let rec go attempts keyed =
    match compile t ~name keyed with
    | Ok a -> Some a
    | Error d ->
        diags := d :: !diags;
        if n <= 1 || attempts >= n then None
        else
          match failing_file_index ~name ~n d with
          | Some k when not stubbed.(k) ->
              stubbed.(k) <- true;
              arr.(k) <- stub_of arr.(k);
              if dropped () >= n then None (* nothing left to analyse *)
              else begin
                diags :=
                  Supervise.diag ?loc:d.D.loc
                    ~unit_name:(Printf.sprintf "%s/file%d.go" name k)
                    Supervise.Degraded
                    "file dropped after frontend failure; siblings still \
                     analysed"
                  :: !diags;
                go (attempts + 1)
                  (key_sources t ~like:(fst keyed) ~name (Array.to_list arr))
              end
          | _ -> None
  in
  let a = go 0 keyed in
  (a, List.rev !diags, dropped ())

(* Run the frontend plus the selected detector passes over one source
   set.  Never raises on malformed input: lex/parse/type/lowering
   errors come back as [Error]-severity diagnostics in [r_diags].
   Every unit of work — each source file, each pass, and (inside the
   passes) each channel/function — runs behind a [Supervise] fault
   boundary, so a partial failure yields partial results plus health
   accounting rather than an aborted run. *)
let analyse ?only ?extra (t : t) ~name sources : run =
  let t0 = Clock.now_s () in
  let ((_, key) as keyed) = key_sources t ~name sources in
  let from_cache = locked t (fun () -> Hashtbl.mem t.cache key) in
  (* run-local health ledger for the units owned by the engine itself
     (source files, pass boundaries are accounted in each pass's
     registry); folded into the engine registry at the end *)
  let hreg = M.create () in
  let selected = select_passes t ?only ?extra () in
  let nfiles = List.length sources in
  if J.enabled () then
    J.emit ~event:"run.start"
      [
        ("name", J.S name);
        ("files", J.I nfiles);
        ("passes", J.I (List.length selected));
      ];
  (* run.end closes the ledger with schedule-independent facts only: the
     diagnostics digest, counts, and the health snapshot.  Elapsed time
     rides in the volatile dur_ms slot. *)
  let journal_run_end (r : run) : run =
    if J.enabled () then
      J.emit ~event:"run.end" ~dur_ms:(1000.0 *. r.r_elapsed_s)
        ([
           ("name", J.S r.r_name);
           ("key", J.S r.r_key);
           ("from_cache", J.B r.r_from_cache);
           ("diags", J.I (List.length r.r_diags));
           ("errors", J.I (List.length (List.filter D.is_error r.r_diags)));
           ( "digest",
             J.S (Digest.to_hex (Digest.string (D.list_to_json r.r_diags)))
           );
         ]
        @ List.map
            (fun (k, v) ->
              let k =
                if String.length k > 7 && String.sub k 0 7 = "health." then
                  "health_" ^ String.sub k 7 (String.length k - 7)
                else k
              in
              (k, J.I v))
            r.r_health);
    r
  in
  match compile_salvaging t ~name keyed with
  | None, fdiags, ndropped ->
      let bump k v = M.add (M.counter hreg k) v in
      bump Supervise.h_attempted nfiles;
      bump Supervise.h_degraded (max 1 ndropped);
      bump Supervise.h_skipped (max 0 (nfiles - max 1 ndropped));
      let health = Supervise.health_of (M.counters_list hreg) in
      M.merge_into ~dst:t.registry hreg;
      journal_run_end
        {
          r_name = name;
          r_key = key;
          r_from_cache = from_cache;
          r_artifacts = None;
          r_diags = fdiags;
          r_passes = [];
          r_elapsed_s = Clock.elapsed_since t0;
          r_health = health;
        }
  | Some a, fdiags, ndropped ->
      let bump k v = M.add (M.counter hreg k) v in
      bump Supervise.h_attempted nfiles;
      bump Supervise.h_ok (nfiles - ndropped);
      bump Supervise.h_degraded ndropped;
      let pass_runs =
        List.map
          (fun p ->
            if J.enabled () then
              J.emit ~event:"pass.start" [ ("pass", J.S p.p_name) ];
            let p0 = Clock.now_s () in
            (* A fresh registry per pass run keeps the run's metric
               snapshot exact even when several analyses share the
               engine concurrently; it is folded into the engine-wide
               registry afterwards. *)
            let preg = M.create () in
            let diags, ran =
              match
                Supervise.checked ~metrics:preg
                  ~unit_name:("pass " ^ p.p_name) (fun () ->
                    Trace.with_span ~name:("pass." ^ p.p_name) (fun () ->
                        p.p_run t.pool preg a))
              with
              | Ok ds -> (ds, true)
              | Error (`Skipped reason) ->
                  ( [
                      Supervise.diag ~pass:p.p_name
                        ~unit_name:("pass " ^ p.p_name) Supervise.Skipped
                        (reason ^ "; partial results flushed");
                    ],
                    false )
              | Error (`Degraded detail) ->
                  ( [
                      Supervise.diag ~pass:p.p_name
                        ~unit_name:("pass " ^ p.p_name)
                        Supervise.Internal_error
                        (detail ^ "; other passes unaffected");
                    ],
                    true )
            in
            let elapsed = Clock.elapsed_since p0 in
            if ran then begin
              M.incr (M.counter t.registry ("pass." ^ p.p_name ^ ".runs"));
              M.observe
                (M.histogram t.registry ("pass." ^ p.p_name ^ ".ms"))
                (1000.0 *. elapsed)
            end;
            if J.enabled () then
              J.emit ~event:"pass.done" ~dur_ms:(1000.0 *. elapsed)
                [
                  ("pass", J.S p.p_name);
                  ("ran", J.B ran);
                  ("diags", J.I (List.length diags));
                  ( "digest",
                    J.S
                      (Digest.to_hex (Digest.string (D.list_to_json diags)))
                  );
                ];
            let metrics = M.counters_list preg in
            M.merge_into ~dst:t.registry preg;
            {
              pr_pass = p.p_name;
              pr_elapsed_s = elapsed;
              pr_diags = diags;
              pr_metrics = metrics;
            })
          selected
      in
      let health =
        Supervise.health_sum
          (M.counters_list hreg
          :: List.map (fun pr -> pr.pr_metrics) pass_runs)
      in
      (* the analysis is complete: [a] is now what the next record of
         this name compares itself with, and lets go of its own
         predecessor *)
      locked t (fun () ->
          match Hashtbl.find_opt t.cache a.a_key with
          | Some c when c == a -> Hashtbl.replace t.latest name a
          | _ -> ());
      Atomic.set a.a_pred None;
      M.merge_into ~dst:t.registry hreg;
      journal_run_end
        {
          r_name = name;
          r_key = a.a_key;
          r_from_cache = from_cache;
          r_artifacts = Some a;
          r_diags = fdiags @ List.concat_map (fun pr -> pr.pr_diags) pass_runs;
          r_passes = pass_runs;
          r_elapsed_s = Clock.elapsed_since t0;
          r_health = health;
        }

let errors (r : run) = List.filter D.is_error r.r_diags
let frontend_failed (r : run) = r.r_artifacts = None

(* ------------------------------------------- frontend profiling ------ *)

(* The [top] source files with the largest cumulative frontend compute
   time (parse + sig + typecheck + lower + facts), slowest first. *)
let slowest_files ?(top = 10) (t : t) : (string * float) list =
  let all =
    locked t (fun () ->
        Hashtbl.fold (fun f s acc -> (f, s) :: acc) t.file_times [])
  in
  let sorted =
    List.sort (fun (fa, a) (fb, b) -> compare (b, fa) (a, fb)) all
  in
  List.filteri (fun i _ -> i < top) sorted

(* The --profile "frontend:" section: slowest files, interning pool
   effectiveness, per-file cache traffic, and each per-file stage's
   effective parallelism (summed per-file compute time over the stage's
   wall time — 1.0x means the fan-out ran sequentially). *)
let frontend_report ?(top = 10) (t : t) : string =
  let b = Buffer.create 512 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt
  in
  line "frontend:";
  let files = slowest_files ~top t in
  let total = locked t (fun () -> Hashtbl.length t.file_times) in
  line "  top %d slowest files (of %d):" (List.length files) total;
  List.iter (fun (f, s) -> line "    %8.1f ms  %s" (1000.0 *. s) f) files;
  let st = Minigo.Intern.stats () in
  let lookups = st.Minigo.Intern.st_hits + st.st_misses in
  line
    "  interning: %d string(s), %d type(s) pooled; %d/%d lookup(s) shared%s"
    st.st_strings st.st_types st.st_hits lookups
    (if lookups = 0 then ""
     else
       Printf.sprintf " (%.0f%% hit rate)"
         (100.0 *. float_of_int st.st_hits /. float_of_int lookups));
  let c n = M.value (M.counter t.registry n) in
  let mem_hits = c "engine.file_mem_hit" and disk_hits = c "engine.file_disk_hit" in
  if mem_hits + disk_hits > 0 then
    line "  per-file cache: %d memory hit(s), %d disk hit(s)" mem_hits
      disk_hits;
  List.iter
    (fun s ->
      let wall = M.h_sum (M.histogram t.registry ("stage." ^ s ^ ".ms")) in
      let files_ms =
        M.h_sum (M.histogram t.registry ("stage." ^ s ^ ".file_ms"))
      in
      if wall > 0.0 && files_ms > 0.0 then
        line "  stage %-10s %8.1f ms across files / %8.1f ms wall = %.2fx \
              parallel"
          s files_ms wall (files_ms /. wall))
    [ "parse"; "typecheck"; "lower"; "facts" ];
  Buffer.contents b

(* ------------------------------------------------- run rendering ----- *)

let run_to_json (r : run) : string =
  let pass_json pr =
    Printf.sprintf
      {|{"name":"%s","elapsed_s":%.6f,"diagnostics":%d,"metrics":{%s}}|}
      (M.json_escape pr.pr_pass) pr.pr_elapsed_s
      (List.length pr.pr_diags)
      (String.concat ","
         (List.map
            (fun (k, v) -> Printf.sprintf {|"%s":%d|} (M.json_escape k) v)
            pr.pr_metrics))
  in
  let health_json =
    String.concat ","
      (List.map
         (fun (k, v) ->
           (* strip the "health." namespace: the object is already
              called "health" *)
           let k =
             if String.length k > 7 && String.sub k 0 7 = "health." then
               String.sub k 7 (String.length k - 7)
             else k
           in
           Printf.sprintf {|"%s":%d|} (M.json_escape k) v)
         r.r_health)
  in
  Printf.sprintf
    {|{"name":"%s","source_key":"%s","from_cache":%b,"frontend_ok":%b,"elapsed_s":%.6f,"health":{%s},"diagnostics":%s,"passes":[%s]}|}
    (M.json_escape r.r_name) r.r_key r.r_from_cache
    (not (frontend_failed r))
    r.r_elapsed_s health_json
    (D.list_to_json r.r_diags)
    (String.concat "," (List.map pass_json r.r_passes))
