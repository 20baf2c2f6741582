(* Per-layer attribution measured from outside the program.

   The traced run replays the analysis one public call at a time —
   Lexer, Parser, Typecheck, Lower, the alias/call-graph facts, BMOC and
   the five traditional checkers, in the order the engine runs them —
   and wraps each call in a span recording wall time and the allocation
   delta.  Per-file results are memoized by content like the engine's
   memo tiers, so replaying an edit recomputes only the edited file's
   frontend.  [Bmoc.detect_full] re-derives alias facts, the call graph,
   the primitive map and the disentangled scopes before its channel
   loop; those four calls and the per-root path enumeration are also
   replayed on their own, so the BMOC row splits into preparation and
   the rest. *)

module Ast = Minigo.Ast
module Tc = Minigo.Typecheck
module Lower = Goir.Lower
module Alias = Goanalysis.Alias
module Callgraph = Goanalysis.Callgraph
module Bmoc = Gcatch.Bmoc
module M = Goobs.Metrics

type span = { name : string; t0 : float; dur : float; alloc : float }

(* Spans stay in memory until the run writes them out. *)
let spans : span list ref = ref []

let span name f =
  let a0 = Gc.allocated_bytes () and t0 = Util.now () in
  let r = f () in
  let dur = Util.now () -. t0 in
  spans := { name; t0; dur; alloc = Gc.allocated_bytes () -. a0 } :: !spans;
  r

(* The calls on the analysis path, i.e. what an engine run executes.
   The bmoc.prep.* / primitives / disentangle / pathenum replays repeat
   work already inside "bmoc" and gfix is not part of an analysis, so
   neither counts towards the attributed share. *)
let analysis_path =
  [
    "lexer"; "parser"; "typecheck.sig"; "typecheck.env"; "typecheck.check";
    "lower"; "lower.assemble"; "facts"; "alias"; "callgraph"; "bmoc";
    "trad.primitives"; "trad.missing_unlock"; "trad.double_lock";
    "trad.lock_order"; "trad.field_race"; "trad.fatal_child";
  ]

(* Per-file memo of the frontend, keyed like the engine's tiers: file
   text for lex/parse/sig, plus the whole-program signature fingerprint
   for the stages that read other files' declarations. *)
type memo = {
  m_ast : (string, Ast.file) Hashtbl.t;
  m_sigs : (string, Tc.sig_item list) Hashtbl.t;
  m_typed : (string, Ast.file) Hashtbl.t;
  m_lowered : (string, Lower.lowered_file) Hashtbl.t;
  m_facts :
    (string, Alias.func_summary list * Callgraph.func_sites list) Hashtbl.t;
}

let new_memo () =
  {
    m_ast = Hashtbl.create 64;
    m_sigs = Hashtbl.create 64;
    m_typed = Hashtbl.create 64;
    m_lowered = Hashtbl.create 64;
    m_facts = Hashtbl.create 64;
  }

let memoize tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = f () in
      Hashtbl.replace tbl key v;
      v

type found = {
  bmoc_bugs : Gcatch.Report.bmoc_bug list;
  trad_bugs : int;
  fixed : int; (* reports GFix patched *)
}

(* Analyse one program through the public calls.  [fix] selects the
   BMOC reports GFix is run on (none by default, so GFix is timed on an
   empty report list). *)
let analyse ?(memo = new_memo ()) ?(fix = fun _ -> false) ~name sources =
  let files =
    List.mapi
      (fun i src ->
        let file = Printf.sprintf "%s/file%d.go" name i in
        (file, Digest.string (file ^ "\x00" ^ src), src))
      sources
  in
  let ast (file, key, src) =
    memoize memo.m_ast key (fun () ->
        let toks = span "lexer" (fun () -> Minigo.Lexer.tokenize ~file src) in
        span "parser" (fun () -> Minigo.Parser.parse_tokens ~file toks))
  in
  let sigs =
    List.map
      (fun ((_, key, _) as f) ->
        let a = ast f in
        memoize memo.m_sigs key (fun () ->
            span "typecheck.sig" (fun () -> Tc.file_signatures a)))
      files
  in
  let all_sigs = List.concat sigs in
  let env, fp =
    span "typecheck.env" (fun () ->
        (Tc.env_of_signatures all_sigs, Tc.signatures_fingerprint all_sigs))
  in
  let typed =
    List.map
      (fun ((_, key, _) as f) ->
        memoize memo.m_typed (key ^ fp) (fun () ->
            let a = ast f in
            span "typecheck.check" (fun () -> Tc.check_file env a)))
      files
  in
  let lsigs = lazy (span "lower" (fun () -> Lower.sigs_of_signatures all_sigs)) in
  let lowered =
    List.map2
      (fun (_, key, _) tf ->
        memoize memo.m_lowered (key ^ fp) (fun () ->
            let lsigs = Lazy.force lsigs in
            span "lower" (fun () -> Lower.lower_file lsigs tf)))
      files typed
  in
  let ir = span "lower.assemble" (fun () -> Lower.assemble typed lowered) in
  let facts =
    List.map2
      (fun (_, key, _) lf ->
        memoize memo.m_facts (key ^ fp) (fun () ->
            span "facts" (fun () ->
                let funcs = List.map snd (Lower.file_funcs lf) in
                ( List.map Alias.extract_func funcs,
                  List.map Callgraph.extract_func funcs ))))
      files lowered
  in
  let offsets =
    let off = ref 0 in
    List.map
      (fun lf ->
        let o = !off in
        off := o + Lower.file_pp_count lf;
        o)
      lowered
  in
  let alias =
    span "alias" (fun () ->
        Alias.solve ir
          (List.concat
             (List.map2
                (fun off (sums, _) -> List.map (Alias.rebase_summary off) sums)
                offsets facts)))
  in
  let cg =
    span "callgraph" (fun () ->
        Callgraph.build_from_sites ~alias ir
          (List.concat
             (List.map2
                (fun off (_, ss) -> List.map (Callgraph.rebase_sites off) ss)
                offsets facts)))
  in
  (* replay of detect_full's preparation and enumeration *)
  let palias = span "bmoc.prep.alias" (fun () -> Alias.analyse ir) in
  let pcg = span "bmoc.prep.callgraph" (fun () -> Callgraph.build ~alias:palias ir) in
  let prims = span "primitives" (fun () -> Gcatch.Primitives.collect ir palias) in
  let dis = span "disentangle" (fun () -> Gcatch.Disentangle.build prims pcg) in
  let cfg = { Bmoc.default_config with cache_dir = None } in
  let roots =
    List.sort_uniq compare
      (List.filter
         (function Alias.Achan _ -> true | _ -> false)
         (Gcatch.Primitives.channels prims))
  in
  let enumerated = Hashtbl.create 64 in
  let combos = ref 0 and events = ref 0 in
  span "pathenum" (fun () ->
      List.iter
        (fun c ->
          let scope = Gcatch.Disentangle.scope_of dis c in
          let pset = Gcatch.Disentangle.pset dis c in
          let key =
            ( scope.Gcatch.Disentangle.root,
              scope.Gcatch.Disentangle.funcs,
              List.sort_uniq compare pset )
          in
          if not (Hashtbl.mem enumerated key) then begin
            Hashtbl.add enumerated key ();
            let ctx =
              {
                Gcatch.Pathenum.prog = ir;
                alias = palias;
                cg = pcg;
                pset;
                scope_funcs = scope.Gcatch.Disentangle.funcs;
                cfg = cfg.Bmoc.path_cfg;
                touch_memo = Hashtbl.create 16;
              }
            in
            List.iter
              (fun combo ->
                incr combos;
                List.iter
                  (fun (gi : Gcatch.Pathenum.goroutine_instance) ->
                    events :=
                      !events + List.length gi.gi_path.Gcatch.Pathenum.p_events)
                  combo)
              (Gcatch.Pathenum.combinations ctx ~root:scope.Gcatch.Disentangle.root
                 ~max_combos:cfg.Bmoc.max_combos
                 ~max_goroutines:cfg.Bmoc.max_goroutines)
          end)
        roots);
  let full =
    span "bmoc" (fun () -> Bmoc.detect_full ~cfg ~metrics:(M.create ()) ir)
  in
  let tprims = span "trad.primitives" (fun () -> Gcatch.Primitives.collect ir alias) in
  let module Tr = Gcatch.Traditional in
  let metrics = M.create () in
  let trad =
    List.concat
      [
        span "trad.missing_unlock" (fun () ->
            Tr.check_missing_unlock ~metrics tprims alias ir);
        span "trad.double_lock" (fun () ->
            Tr.check_double_lock ~metrics tprims alias cg ir);
        span "trad.lock_order" (fun () ->
            Tr.check_conflicting_order ~metrics tprims alias ir);
        span "trad.field_race" (fun () ->
            Tr.check_field_race ~metrics tprims alias ir);
        span "trad.fatal_child" (fun () -> Tr.check_fatal_in_child ~metrics ir);
      ]
  in
  let fixes =
    span "gfix" (fun () ->
        Gcatch.Gfix.fix_all typed (List.filter fix full.Bmoc.f_bugs))
  in
  let fixed =
    List.length
      (List.filter
         (function _, Gcatch.Gfix.Fixed _ -> true | _ -> false)
         fixes)
  in
  ( { bmoc_bugs = full.Bmoc.f_bugs; trad_bugs = List.length trad; fixed },
    (!combos, !events) )

(* ---------------------------------------------------------- summary --- *)

(* Summed (wall s, allocated bytes) of every span called [name]. *)
let total name =
  List.fold_left
    (fun (t, a) s -> if s.name = name then (t +. s.dur, a +. s.alloc) else (t, a))
    (0.0, 0.0) !spans

let ms name = 1000.0 *. fst (total name)

let alloc_mb names =
  List.fold_left (fun acc n -> acc +. snd (total n)) 0.0 names /. 1048576.0

(* The per-layer metrics of one replay, per operation.  [reference_s]
   is the wall time of the same work done by an in-process engine run
   at one job: what the named layers should add up to. *)
let metrics ~ops ~reference_s ~enumerated:(combos, events) ~fixed =
  let per v = v /. float_of_int ops in
  let m name = per (ms name) in
  let prep =
    ms "bmoc.prep.alias" +. ms "bmoc.prep.callgraph" +. ms "primitives"
    +. ms "disentangle"
  in
  let attributed = List.fold_left (fun acc n -> acc +. ms n) 0.0 analysis_path in
  let reference_ms = 1000.0 *. reference_s in
  [
    ("lexer.ms", m "lexer", "ms");
    ("parser.ms", m "parser", "ms");
    ("typecheck.sig_ms", m "typecheck.sig", "ms");
    ("typecheck.env_ms", m "typecheck.env", "ms");
    ("typecheck.check_ms", m "typecheck.check", "ms");
    ( "minigo.alloc_mb",
      per
        (alloc_mb
           [ "lexer"; "parser"; "typecheck.sig"; "typecheck.env"; "typecheck.check" ]),
      "MB" );
    ("lower.ms", m "lower", "ms");
    ("lower.assemble_ms", m "lower.assemble", "ms");
    ("lower.alloc_mb", per (alloc_mb [ "lower"; "lower.assemble" ]), "MB");
    ("facts.ms", m "facts", "ms");
    ("alias.ms", m "alias", "ms");
    ("callgraph.ms", m "callgraph", "ms");
    ("goanalysis.alloc_mb", per (alloc_mb [ "facts"; "alias"; "callgraph" ]), "MB");
    ("primitives.ms", m "primitives", "ms");
    ("disentangle.ms", m "disentangle", "ms");
    ("pathenum.ms", m "pathenum", "ms");
    ("pathenum.combinations", per (float_of_int combos), "count");
    ("pathenum.path_events", per (float_of_int events), "count");
    ("bmoc.ms", m "bmoc", "ms");
    ("bmoc.prep_ms", per prep, "ms");
    ("bmoc.alloc_mb", per (alloc_mb [ "bmoc" ]), "MB");
    ("trad.missing_unlock_ms", m "trad.missing_unlock", "ms");
    ("trad.double_lock_ms", m "trad.double_lock", "ms");
    ("trad.lock_order_ms", m "trad.lock_order", "ms");
    ("trad.field_race_ms", m "trad.field_race", "ms");
    ("trad.fatal_child_ms", m "trad.fatal_child", "ms");
    ("gfix.ms", m "gfix", "ms");
    ("gfix.fixed", per (float_of_int fixed), "count");
    ("trace.unattributed_ms", per (reference_ms -. attributed), "ms");
    ("trace.attributed_pct", 100.0 *. attributed /. reference_ms, "%");
  ]

(* Self-time table: every span name with its total, per-op time, share
   of the reference run and allocation, then what the named analysis
   layers leave unexplained. *)
let table ~ops ~reference_s =
  let names =
    List.sort_uniq compare (List.map (fun s -> s.name) !spans)
  in
  let reference_ms = 1000.0 *. reference_s in
  let b = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "%-22s %12s %12s %8s %10s  %s" "layer" "total ms" "per op ms" "share" "alloc MB" "";
  List.iter
    (fun n ->
      let t, a = total n in
      line "%-22s %12.1f %12.2f %7.1f%% %10.1f  %s" n (1000.0 *. t)
        (1000.0 *. t /. float_of_int ops)
        (100.0 *. 1000.0 *. t /. reference_ms)
        (a /. 1048576.0)
        (if List.mem n analysis_path then "" else "(not on the analysis path)"))
    names;
  let attributed = List.fold_left (fun acc n -> acc +. ms n) 0.0 analysis_path in
  line "%-22s %12.1f %12.2f %7.1f%%" "unattributed" (reference_ms -. attributed)
    ((reference_ms -. attributed) /. float_of_int ops)
    (100.0 *. (reference_ms -. attributed) /. reference_ms);
  line "%-22s %12.1f %12.2f" "reference (engine -j1)" reference_ms
    (reference_ms /. float_of_int ops);
  Buffer.contents b

(* Chrome trace-event JSON of every span, one track. *)
let chrome_json () =
  let ev s =
    Printf.sprintf
      "{\"name\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"alloc_mb\":%.3f}}"
      (Util.json_str s.name) (s.t0 *. 1e6) (s.dur *. 1e6) (s.alloc /. 1048576.0)
  in
  "{\"traceEvents\":[" ^ String.concat ",\n" (List.rev_map ev !spans) ^ "]}\n"
