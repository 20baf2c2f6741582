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
   (the traditional checkers' primitive map).  Cached on the record
   itself, so they live exactly as long as it does. *)
type derived = ..

type artifacts = {
  a_key : string;                 (* content hash of (name, sources) *)
  a_name : string;
  a_sources : string list;
  a_typed : Minigo.Ast.program Lazy.t;  (* type-checked, normalised *)
  a_ir : Goir.Ir.program Lazy.t;
  a_alias : Goanalysis.Alias.t Lazy.t;
  a_callgraph : Goanalysis.Callgraph.t Lazy.t;
  a_content : string option Lazy.t;
      (* combined digest of every file's typed+lowered *compiled form*
         (the marshalled bytes the disk tier stores), when all are
         known; [None] when the disk tier is off or any file's digest
         is unavailable.  Detector passes key their result cache on it:
         an edit that changes a file's content hash but not its
         compiled form (a trailing comment) still hits the pass
         cache. *)
  a_derived : derived Memo.t;
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

(* Per-file artifact memos, keyed by the file's content hash (plus, for
   the stages that read cross-file context, the program's signature
   fingerprint).  Promise-keyed so concurrent analyses sharing a file
   compute each per-file unit at most once — which also keeps the
   per-file stage counters schedule-independent.  Tokens are not
   memoised: a file is lexed only when its AST misses both tiers. *)
type file_caches = {
  fc_ast : Minigo.Ast.file Memo.t;
  fc_sigs : Minigo.Typecheck.sig_item list Memo.t;
  fc_typed : Minigo.Ast.file Memo.t;
  fc_lowered : Goir.Lower.lowered_file Memo.t;
  fc_facts :
    (Goanalysis.Alias.func_summary list * Goanalysis.Callgraph.func_sites list)
    Memo.t;
}

type t = {
  mutable passes : pass list;
  cache : (string, artifacts) Hashtbl.t;
  cache_atime : (string, int) Hashtbl.t;
      (* recency tick per source-set key, for LRU eviction *)
  mutable cache_clock : int;
  mutable registry : M.t;
      (* stage/cache counters, pass timings, pass metrics.  Mutable so a
         long-lived server can point the engine at a fresh per-request
         registry before each run and fold it into the process registry
         after ([merge_into]) — request-scoped counters without losing
         /metrics monotonicity. *)
  max_entries : int;
  pool : Pool.t;
  lock : Mutex.t; (* guards [cache] and [file_times]: batch drivers
                     analyse several source sets concurrently through
                     one engine *)
  store : Store.t option; (* optional on-disk tier for per-file
                             artifacts (parse/sig/typed/lowered) *)
  fc : file_caches;
  file_times : (string, float) Hashtbl.t;
      (* cumulative frontend seconds per source file, for --profile *)
  file_digests : (string, string) Hashtbl.t;
      (* "<stage>:<key>" -> digest of the value's marshalled bytes,
         recorded by the disk tier on read and write; feeds
         [a_content] *)
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
  {
    passes;
    cache = Hashtbl.create 32;
    cache_atime = Hashtbl.create 32;
    cache_clock = 0;
    registry;
    max_entries;
    pool;
    lock = Mutex.create ();
    store = Option.map Store.at cache_dir;
    fc =
      {
        fc_ast = Memo.create ();
        fc_sigs = Memo.create ();
        fc_typed = Memo.create ();
        fc_lowered = Memo.create ();
        fc_facts = Memo.create ();
      };
    file_times = Hashtbl.create 64;
    file_digests = Hashtbl.create 64;
  }

let pool t = t.pool
let jobs t = Pool.jobs t.pool

let locked (t : t) f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let record_digest (t : t) ~stage ~key d =
  locked t (fun () -> Hashtbl.replace t.file_digests (stage ^ ":" ^ key) d)

let value_digest (t : t) ~stage ~key =
  locked t (fun () -> Hashtbl.find_opt t.file_digests (stage ^ ":" ^ key))

let register (t : t) (p : pass) =
  if List.exists (fun q -> q.p_name = p.p_name) t.passes then
    invalid_arg ("Engine.register: duplicate pass " ^ p.p_name);
  t.passes <- t.passes @ [ p ]

let passes t = t.passes
let registry t = t.registry

(* Swap the engine's reporting registry.  Callers serialize runs (the
   server holds its request lock across set + analyse), so counters of a
   run never straddle two registries. *)
let set_registry t r = t.registry <- r

(* Bound the per-file memo tables to roughly [mb] megabytes total, split
   evenly across the five stages (the typed/lowered tables dominate in
   practice, but an even split keeps small stages from being squeezed to
   zero).  Evictions are counted per engine under
   "engine.file_mem_evictions".  [mb <= 0] removes the bound. *)
let set_cache_budget_mb (t : t) mb =
  let per = if mb <= 0 then 0 else max 1 (mb * 1024 * 1024 / 5) in
  let on_evict n = M.add (M.counter t.registry "engine.file_mem_evictions") n in
  Memo.set_budget ~on_evict t.fc.fc_ast ~bytes:per;
  Memo.set_budget ~on_evict t.fc.fc_sigs ~bytes:per;
  Memo.set_budget ~on_evict t.fc.fc_typed ~bytes:per;
  Memo.set_budget ~on_evict t.fc.fc_lowered ~bytes:per;
  Memo.set_budget ~on_evict t.fc.fc_facts ~bytes:per

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

let key_of ~name sources =
  Digest.to_hex (Digest.string (String.concat "\x00" (name :: sources)))

let cached (t : t) ~name sources =
  locked t (fun () -> Hashtbl.mem t.cache (key_of ~name sources))

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

(* ------------------------------------------------ warm manifest ---- *)

(* The disk-backed memo tiers, by stage name: what a long-lived server
   lists in its warm-state manifest ([memo_keys]) and reads back into a
   fresh engine ([preload]).  Facts are memory-only and cheap to rebuild
   from the lowered files, so they are not listed. *)
let disk_tiers (t : t) =
  let tier stage memo reintern =
    let load key =
      Memo.preload memo key (fun () ->
          Option.map reintern (disk_read t ~stage ~key))
    in
    (stage, ((fun () -> Memo.keys memo), load))
  in
  [
    tier "parse" t.fc.fc_ast Minigo.Intern.file;
    tier "sig" t.fc.fc_sigs Fun.id;
    tier "typecheck" t.fc.fc_typed Minigo.Intern.file;
    tier "lower" t.fc.fc_lowered Fun.id;
  ]

let memo_keys (t : t) : (string * string list) list =
  List.map (fun (stage, (keys, _)) -> (stage, keys ())) (disk_tiers t)

(* Read the named entries into memory through the ordinary disk path
   (digest check, re-interning, value-digest record, budget charge),
   without touching any run counter.  Entries that are gone or unreadable
   are skipped: they recompute on first use.  Returns the entries
   loaded. *)
let preload (t : t) (manifest : (string * string list) list) : int =
  let tiers = disk_tiers t in
  List.fold_left
    (fun n (stage, keys) ->
      match List.assoc_opt stage tiers with
      | Some (_, load) ->
          List.fold_left (fun n key -> if load key then n + 1 else n) n keys
      | None -> n)
    0 manifest

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

(* Minimum items per forked task for per-file fan-outs.  Small batches
   run inline (no session, no fork overhead); large ones chunk so the
   per-task grain stays coarse.  Derived from the batch size alone —
   never from the job count — so counters and diagnostics stay
   schedule-independent. *)
let frontend_grain n = if n <= 8 then n else max 2 (n / 32)

(* Build the lazy stage chain for one source set.  File naming matches
   [Parser.parse_program] so locations are byte-identical to the
   pre-engine pipeline.

   Every per-file stage fans out over the engine's pool: results come
   back in file order and a failing file re-raises the smallest file
   index's exception (after the siblings finish and publish their cache
   entries), so diagnostics are byte-identical at any [jobs] and a
   salvage retry recompiles only the stubbed file.  Per-file artifacts
   are keyed by the file's content hash; the stages that read cross-file
   context (typecheck, lower, facts) add the program's signature
   fingerprint, so editing one file's bodies re-runs exactly that file
   while a signature change invalidates every dependent. *)
(* A domain-safe once-cell: the per-file compute closures below share
   whole-program inputs (type environment, lowering signatures) that a
   fully cache-warm run never needs — build them on first use only.
   The builders never yield, so a task computing one cannot suspend
   while holding the lock. *)
let once f =
  let mu = Mutex.create () in
  let r = ref None in
  fun () ->
    Mutex.lock mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock mu)
      (fun () ->
        match !r with
        | Some v -> v
        | None ->
            let v = f () in
            r := Some v;
            v)

let build_artifacts (t : t) ~name sources : artifacts =
  let keyed =
    List.mapi
      (fun i src ->
        let file = Printf.sprintf "%s/file%d.go" name i in
        (file, src, Digest.to_hex (Digest.string (file ^ "\x00" ^ src))))
      sources
  in
  let grain = frontend_grain (List.length keyed) in
  let pmap f xs = Pool.map ~pool:t.pool ~grain f xs in
  (* lexing is part of the parse unit; it keeps its own run counter,
     bumped before the fault site so a faulting file still counts *)
  let parse_file (file, src, key) =
    file_unit t ~stage:"parse" ~memo:t.fc.fc_ast ~key ~file ~disk:true
      ~reintern:Minigo.Intern.file (fun () ->
        M.incr (M.counter t.registry "stage.lex.runs");
        Faults.trigger ~site:"frontend" ~key:file ();
        Minigo.Parser.parse_tokens ~file (Minigo.Lexer.tokenize ~file src))
  in
  (* a file's declaration signatures: the only cross-file input the
     downstream per-file stages read.  Keyed on content alone (no
     program fingerprint — signatures depend only on the file's own
     text), so a warm run reads 49 tiny entries plus parses the one
     edited file instead of re-parsing the world. *)
  let sig_file ((file, _, key) as fk) =
    file_unit t ~stage:"sig" ~memo:t.fc.fc_sigs ~key ~file ~disk:true
      (fun () -> Minigo.Typecheck.file_signatures (parse_file fk))
  in
  let a_sigs = lazy (stage_span t "sig" (fun () -> pmap sig_file keyed)) in
  let a_fp =
    lazy
      (Minigo.Typecheck.signatures_fingerprint
         (List.concat (Lazy.force a_sigs)))
  in
  (* whole-program signature tables, built from the per-file signature
     items on first use only: a run whose passes are all served from
     the result cache never constructs them *)
  let env =
    once (fun () ->
        Minigo.Typecheck.env_of_signatures (List.concat (Lazy.force a_sigs)))
  in
  let lsigs =
    once (fun () ->
        Goir.Lower.sigs_of_signatures (List.concat (Lazy.force a_sigs)))
  in
  let typed_file ((file, _, key) as fk) =
    let fp = Lazy.force a_fp in
    let key = Digest.to_hex (Digest.string (key ^ "\x00" ^ fp)) in
    file_unit t ~stage:"typecheck" ~memo:t.fc.fc_typed ~key ~file ~disk:true
      ~reintern:Minigo.Intern.file (fun () ->
        Minigo.Typecheck.check_file (env ()) (parse_file fk))
  in
  let a_typed =
    lazy (stage_span t "typecheck" (fun () -> pmap typed_file keyed))
  in
  let lowered_file ((file, _, key) as fk) =
    let fp = Lazy.force a_fp in
    let key = Digest.to_hex (Digest.string (key ^ "\x01" ^ fp)) in
    file_unit t ~stage:"lower" ~memo:t.fc.fc_lowered ~key ~file ~disk:true
      (fun () -> Goir.Lower.lower_file (lsigs ()) (typed_file fk))
  in
  let a_lowered =
    lazy (stage_span t "lower" (fun () -> pmap lowered_file keyed))
  in
  let a_ir =
    lazy
      (stage_span t "assemble" (fun () ->
           Goir.Lower.assemble (Lazy.force a_typed) (Lazy.force a_lowered)))
  in
  (* per-file local facts for the global analyses, with file-local
     program points; rebased below by each file's pp offset *)
  let a_facts =
    lazy
      (stage_span t "facts" (fun () ->
           let lfs = Lazy.force a_lowered in
           let fp = Lazy.force a_fp in
           pmap
             (fun ((file, _, key), lf) ->
               let key = Digest.to_hex (Digest.string (key ^ "\x02" ^ fp)) in
               file_unit t ~stage:"facts" ~memo:t.fc.fc_facts ~key ~file
                 (fun () ->
                   let funcs = List.map snd (Goir.Lower.file_funcs lf) in
                   ( List.map Goanalysis.Alias.extract_func funcs,
                     List.map Goanalysis.Callgraph.extract_func funcs )))
             (List.combine keyed lfs)))
  in
  let offsets lfs =
    let off = ref 0 in
    List.map
      (fun lf ->
        let o = !off in
        off := o + Goir.Lower.file_pp_count lf;
        o)
      lfs
  in
  let a_alias =
    lazy
      (stage_counted t "alias" (fun () ->
           let ir = Lazy.force a_ir in
           let lfs = Lazy.force a_lowered in
           let facts = Lazy.force a_facts in
           let summaries =
             List.concat
               (List.map2
                  (fun off (sums, _) ->
                    List.map (Goanalysis.Alias.rebase_summary off) sums)
                  (offsets lfs) facts)
           in
           Goanalysis.Alias.solve ir summaries))
  in
  let a_callgraph =
    lazy
      (stage_counted t "callgraph" (fun () ->
           let ir = Lazy.force a_ir in
           let lfs = Lazy.force a_lowered in
           let facts = Lazy.force a_facts in
           let sites =
             List.concat
               (List.map2
                  (fun off (_, ss) ->
                    List.map (Goanalysis.Callgraph.rebase_sites off) ss)
                  (offsets lfs) facts)
           in
           Goanalysis.Callgraph.build_from_sites
             ~alias:(Lazy.force a_alias)
             ir sites))
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
      (let fp = Lazy.force a_fp in
       let part stage tag (_, _, key) =
         let key = Digest.to_hex (Digest.string (key ^ tag ^ fp)) in
         disk_digest t ~stage ~key
       in
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
  {
    a_key = key_of ~name sources;
    a_name = name;
    a_sources = sources;
    a_typed;
    a_ir;
    a_alias;
    a_callgraph;
    a_content;
    a_derived = Memo.create ();
  }

(* Look up (or create) the artifact record for a source set.  Stages are
   not forced here; forcing — and any frontend exception — happens at
   the use site, exactly once per cached entry (lazy memoizes the
   exception too). *)
let artifacts (t : t) ~name sources : artifacts =
  let key = key_of ~name sources in
  locked t (fun () ->
      t.cache_clock <- t.cache_clock + 1;
      match Hashtbl.find_opt t.cache key with
      | Some a ->
          M.incr (M.counter t.registry "engine.cache_hits");
          Hashtbl.replace t.cache_atime key t.cache_clock;
          a
      | None ->
          M.incr (M.counter t.registry "engine.cache_misses");
          (* Evict the least-recently-used source set when full.  An
             artifact record pins the whole-program IR once forced, so a
             long-lived server runs with a small [max_entries] and leans
             on this bound; one-shot workloads never come close to it.
             Per-file memos are bounded separately ([set_cache_budget_mb])
             — evicting a source set must not drop per-file work that
             other live sets still share. *)
          while Hashtbl.length t.cache >= t.max_entries do
            let victim = ref None in
            Hashtbl.iter
              (fun k tick ->
                match !victim with
                | Some (_, best) when best <= tick -> ()
                | _ -> victim := Some (k, tick))
              t.cache_atime;
            match !victim with
            | None -> Hashtbl.reset t.cache (* atime lost sync; start over *)
            | Some (k, _) ->
                Hashtbl.remove t.cache k;
                Hashtbl.remove t.cache_atime k;
                M.incr (M.counter t.registry "engine.artifact_evictions")
          done;
          let a = build_artifacts t ~name sources in
          Hashtbl.add t.cache key a;
          Hashtbl.replace t.cache_atime key t.cache_clock;
          a)

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
  | Faults.Injected ("frontend", key) ->
      (* the injection site sits in each file's parse unit; carry the
         file name as a location so salvage can identify the file *)
      Some
        (D.v ~pass:"frontend/fault"
           ~loc:(Minigo.Loc.make ~file:key ~line:1 ~col:1)
           (Printf.sprintf "injected fault at frontend (%s)" key))
  | _ -> None

(* Compile a source set through the frontend stages, capturing frontend
   exceptions as diagnostics instead of letting them escape. *)
let compile (t : t) ~name sources : (artifacts, D.t) result =
  let a = artifacts t ~name sources in
  (* forcing [a_content] forces the typed and lowered files, which
     surfaces every frontend error (assembly is a pure merge and cannot
     fail) while leaving [a_ir] unforced: a run whose passes are all
     served from the result cache never pays for whole-program
     assembly *)
  match Lazy.force a.a_content with
  | _ -> Ok a
  | exception e -> (
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
   dropped. *)
let compile_salvaging (t : t) ~name sources :
    artifacts option * D.t list * int =
  let arr = Array.of_list sources in
  let n = Array.length arr in
  let stubbed = Array.make n false in
  let dropped () =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 stubbed
  in
  let diags = ref [] in
  let rec go attempts =
    match compile t ~name (Array.to_list arr) with
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
              end
          | _ -> None
  in
  let a = go 0 in
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
  let from_cache = cached t ~name sources in
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
  match compile_salvaging t ~name sources with
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
          r_key = key_of ~name sources;
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
