(* Early cutoff on the edit path: a record whose per-file facts and
   program-point counts equal its predecessor's takes over the alias
   facts, call graph, primitive map and disentangling, reassembles its
   program onto the predecessor's (placing only the edited files),
   re-walks only the functions whose IR changed, re-checks only those in
   each traditional checker, and re-solves only the channels whose scope
   holds one, taking every other channel's outcome over.  Every version
   of an edit sequence must analyse to exactly what a fresh engine
   produces, and the engine counters say what was recomputed. *)

module E = Goengine.Engine
module D = Goengine.Diagnostics

(* ---- the subject: a channel file, the trad mix, a quick large app ---- *)

let chans =
  {|package f

func produce(ch chan int) {
	if 1 > 0 {
		ch <- 1
	}
}

func consume() int {
	ch := make(chan int)
	go produce(ch)
	return <-ch
}

func closer(done chan int) {
	<-done
}

func sendAfter() {
	done := make(chan int, 1)
	go closer(done)
	done <- 1
}
|}

let replace_first ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then
      Alcotest.failf "edit site %S not found" sub
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

(* test/smoke/trad_mix.go, plus a function (called where [reset] is)
   whose unlocked write the field-race checker reports *)
let trad_mix =
  (* run by dune from test/, or by hand from the repository root *)
  let path =
    List.find Sys.file_exists [ "smoke/trad_mix.go"; "test/smoke/trad_mix.go" ]
  in
  let src = In_channel.with_open_text path In_channel.input_all in
  let body = String.sub src 9 (String.length src - 9) (* "package p" *) in
  "package f"
  ^ replace_first ~sub:"\treset(m)\n" ~by:"\treset(m)\n\ttouch(m)\n" body
  ^ {|
func touch(m Meter) {
	m.hits = 2
}
|}

let fillers =
  List.init 4 (fun i ->
      "package f\n" ^ Gocorpus.Filler.generate ~seed:(700 + i) ~target_lines:300)

let base = [ chans; trad_mix ] @ fillers

(* ---- edits ---- *)

let edit_file k f srcs = List.mapi (fun i s -> if i = k then f s else s) srcs

(* A pure helper's accumulator initialiser ("total := 0" in the first
   helper that has one) takes the value [v]. *)
let helper_literal ~v s =
  let lines = String.split_on_char '\n' s in
  let is_site l = String.starts_with ~prefix:"\ttotal := " l in
  if not (List.exists is_site lines) then Alcotest.fail "no helper literal";
  let seen = ref false in
  String.concat "\n"
    (List.map
       (fun l ->
         if is_site l && not !seen then begin
           seen := true;
           Printf.sprintf "\ttotal := %d" v
         end
         else l)
       lines)

(* Counter deltas a version must show: [Cold] with no predecessor,
   [Cutoff (walked, enumerated)] when the facts compare equal, [Full]
   when they do not and the record recomputes (building the signature
   tables anew when the signatures changed), and [Same_record] when the
   sources are a cached record's. *)
type expect =
  | Cold
  | Cutoff of int * int
  | Full of { sig_tables : int }
  | Same_record

(* Applied in order, each to the previous version.  Besides the edits a
   user makes every day, each compared input has an edit that only it
   catches: a field store carries no location in the facts (function IR),
   a receive and a close have equal alias facts (sync facts), a sleep adds
   a program point and no fact (pp counts), and the literal in [produce]
   sits in a scope function that is not the channel's root (the scope
   set). *)
let edits =
  [
    ("literal in a pure helper", edit_file 2 (helper_literal ~v:7), Cutoff (1, 0));
    ( "literal inside a channel's scope function",
      edit_file 0 (replace_first ~sub:"1 > 0" ~by:"1 > 2"),
      Cutoff (1, 1) );
    ( "a field write moves down a line",
      edit_file 1 (replace_first ~sub:"\tm.hits = 2" ~by:"\n\tm.hits = 2"),
      Cutoff (1, 0) );
    ( "a receive becomes a close",
      edit_file 0 (replace_first ~sub:"\t<-done\n" ~by:"\tclose(done)\n"),
      Full { sig_tables = 0 } );
    ( "a statement with no facts shifts every later file",
      edit_file 0 (fun s -> replace_first ~sub:"\tdone <- 1\n" ~by:"\tdone <- 1\n\tsleep(1)\n" s),
      Full { sig_tables = 0 } );
    ( "an inserted comment line",
      edit_file 1 (replace_first ~sub:"package f\n" ~by:"package f\n// moved\n"),
      Full { sig_tables = 0 } );
    ( "an added send",
      edit_file 0 (replace_first ~sub:"\tgo produce(ch)\n" ~by:"\tgo produce(ch)\n\tch <- 2\n"),
      Full { sig_tables = 0 } );
    ( "a renamed function",
      edit_file 1 (fun s ->
          replace_first ~sub:"func flush(" ~by:"func flush2("
            (replace_first ~sub:"\tflush(c)" ~by:"\tflush2(c)" s)),
      Full { sig_tables = 1 } );
    ( "a signature change",
      edit_file 1 (replace_first ~sub:"func runCache(x int)" ~by:"func runCache(x int, y int)"),
      Full { sig_tables = 1 } );
  ]

(* ---- comparison ---- *)

(* what a run must reproduce: each pass's diagnostics, typed reports and
   metrics, less the scheduler's own "pool."/"sched." counters *)
let rendered (r : E.run) =
  let pass (pr : E.pass_run) =
    let metrics =
      List.filter
        (fun (k, _) ->
          not
            (String.starts_with ~prefix:"pool." k
            || String.starts_with ~prefix:"sched." k))
        pr.E.pr_metrics
    in
    String.concat "\n"
      [
        pr.E.pr_pass;
        D.list_to_json pr.E.pr_diags;
        String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) metrics);
      ]
  in
  String.concat "\n\n" (List.map pass r.E.r_passes)

let analyse engine srcs = E.analyse ~extra:[ "nonblocking" ] engine ~name:"app" srcs

let counted =
  [
    "stage.alias.runs";
    "stage.callgraph.runs";
    "stage.primitives.runs";
    "stage.disentangle.runs";
    "engine.cutoff_hits";
    "engine.cutoff_misses";
    "engine.lockset_funcs_walked";
    "engine.trad_funcs_checked";
    "engine.bmoc_channels_enumerated";
    "engine.bmoc_channels_replayed";
    "engine.assemble_files_placed";
    "engine.sig_tables_built";
    "engine.sig_digests";
    "engine.sources_hashed";
  ]

(* the solve cache counts its lookups in the process registry *)
let solve_lookups () =
  let c k = Goobs.Metrics.(value (counter default ("bmoc.solve_cache_" ^ k))) in
  c "hit" + c "miss"

let snapshot engine =
  ("solve lookups", solve_lookups ())
  :: List.map (fun k -> (k, E.counter_value engine k)) counted

let delta before after =
  List.map2 (fun (k, a) (_, b) -> (k, b - a)) before after

let nfiles = List.length base

(* Five traditional checkers, each checking a function at most once. *)
let ncheckers = 5

let check_expect label expect d ~nchannels ~nfuncs =
  let c k = List.assoc k d in
  let checked n =
    Alcotest.(check int) (label ^ ": functions checked") (ncheckers * n)
      (c "engine.trad_funcs_checked")
  in
  let placed n =
    Alcotest.(check int) (label ^ ": files placed") n
      (c "engine.assemble_files_placed")
  in
  let tables n =
    Alcotest.(check int) (label ^ ": signature tables built") n
      (c "engine.sig_tables_built")
  in
  (* an edit digests the signatures of the file it edited, no other *)
  let sig_digests n =
    Alcotest.(check int) (label ^ ": signature digests") n
      (c "engine.sig_digests")
  in
  match expect with
  | Cold ->
      placed nfiles;
      tables 1;
      sig_digests nfiles;
      Alcotest.(check int) (label ^ ": no predecessor") 0
        (c "engine.cutoff_hits" + c "engine.cutoff_misses");
      Alcotest.(check int) (label ^ ": one alias run") 1 (c "stage.alias.runs");
      Alcotest.(check int) (label ^ ": every channel enumerated") nchannels
        (c "engine.bmoc_channels_enumerated");
      checked nfuncs
  | Cutoff (walked, enumerated) ->
      placed 1;
      tables 0;
      sig_digests 1;
      List.iter
        (fun k -> Alcotest.(check int) (label ^ ": no " ^ k) 0 (c k))
        [
          "stage.alias.runs";
          "stage.callgraph.runs";
          "stage.primitives.runs";
          "stage.disentangle.runs";
          "engine.cutoff_misses";
        ];
      Alcotest.(check int) (label ^ ": cutoff") 1 (c "engine.cutoff_hits");
      Alcotest.(check int) (label ^ ": functions walked") walked
        (c "engine.lockset_funcs_walked");
      Alcotest.(check int) (label ^ ": channels enumerated") enumerated
        (c "engine.bmoc_channels_enumerated");
      Alcotest.(check int) (label ^ ": channels taken over")
        (nchannels - enumerated)
        (c "engine.bmoc_channels_replayed");
      (* a channel taken over makes no solve-cache lookup *)
      Alcotest.(check int) (label ^ ": solve-cache lookups") enumerated
        (c "solve lookups");
      (* each checker re-checks the functions walked again, no other *)
      checked walked
  | Full { sig_tables } ->
      placed nfiles;
      tables sig_tables;
      sig_digests 1;
      Alcotest.(check int) (label ^ ": cutoff missed") 1 (c "engine.cutoff_misses");
      List.iter
        (fun k -> Alcotest.(check int) (label ^ ": one " ^ k) 1 (c k))
        [ "stage.alias.runs"; "stage.callgraph.runs"; "stage.primitives.runs" ];
      Alcotest.(check int) (label ^ ": nothing replayed") 0
        (c "engine.bmoc_channels_replayed");
      checked nfuncs
  | Same_record ->
      List.iter
        (fun (k, v) ->
          (* the record takes its own channels' outcomes and every
             checker's results over, without a solve-cache lookup; its
             sources are keyed again (checked by the caller) *)
          if k <> "engine.bmoc_channels_replayed" && k <> "engine.sources_hashed"
          then
            Alcotest.(check int) (label ^ ": no " ^ k) 0 v)
        d;
      Alcotest.(check int) (label ^ ": every channel taken over") nchannels
        (c "engine.bmoc_channels_replayed")

let channels (r : E.run) =
  List.assoc "bmoc.channels_analysed"
    (List.find (fun (pr : E.pass_run) -> pr.E.pr_pass = "bmoc") r.E.r_passes)
      .E.pr_metrics

let ir_of (r : E.run) =
  match r.E.r_artifacts with
  | Some a -> Lazy.force a.E.a_ir
  | None -> Alcotest.fail "frontend failed"

(* A version's program, reassembled or not, is what lowering the same
   files from scratch and assembling them produces. *)
let check_assembly label (ir : Goir.Ir.program) srcs =
  let fresh =
    Goir.Lower.lower_program
      (Minigo.Typecheck.check_program (Minigo.Parser.parse_program ~name:"app" srcs))
  in
  let names (p : Goir.Ir.program) =
    List.map (fun (f : Goir.Ir.func) -> f.name) (Goir.Ir.funcs_list p)
  in
  Alcotest.(check (list string)) (label ^ ": same function order") (names fresh)
    (names ir);
  Alcotest.(check int) (label ^ ": one table entry per function")
    (Hashtbl.length fresh.funcs) (Hashtbl.length ir.funcs);
  List.iter2
    (fun (f : Goir.Ir.func) (g : Goir.Ir.func) ->
      Alcotest.(check bool) (label ^ ": " ^ f.name ^ " structurally equal") true
        (f = g);
      Alcotest.(check bool) (label ^ ": " ^ f.name ^ " is the table's") true
        (match Goir.Ir.find_func ir f.name with Some h -> h == f | None -> false))
    (Goir.Ir.funcs_list ir) (Goir.Ir.funcs_list fresh);
  Alcotest.(check (option string)) (label ^ ": same main") fresh.main ir.main

(* The channels a version must re-solve: those whose scope holds a
   function whose IR differs from the previous version's. *)
let channels_to_solve (r : E.run) ~(before : Goir.Ir.func list) =
  let a = Option.get r.E.r_artifacts in
  let old = Hashtbl.create 64 in
  List.iter (fun (f : Goir.Ir.func) -> Hashtbl.replace old f.name f) before;
  let changed =
    List.filter_map
      (fun (f : Goir.Ir.func) ->
        match Hashtbl.find_opt old f.name with
        | Some g when g = f -> None
        | _ -> Some f.name)
      (Goir.Ir.funcs_list (Lazy.force a.E.a_ir))
  in
  let dis = Gcatch.Passes.dis_for a in
  List.filter_map
    (fun c ->
      match c with
      | Goanalysis.Alias.Achan _
        when List.exists
               (fun f -> List.mem f changed)
               (Gcatch.Disentangle.scope_of dis c).funcs ->
          Some (Goanalysis.Alias.obj_str c)
      | _ -> None)
    (Gcatch.Primitives.channels (Gcatch.Passes.prims_for a))

(* A deep copy, to show that analysing a later version (which shares
   this program's blocks) wrote nothing to it. *)
let deep_copy (fs : Goir.Ir.func list) : Goir.Ir.func list =
  Marshal.from_string (Marshal.to_string fs []) 0

(* The edit sequence through one engine, each version checked against a
   fresh engine on the same sources; then back to the original. *)
let run_sequence ~jobs () =
  let engine = Gcatch.Passes.engine ~jobs () in
  let prev = ref None in
  let prev_srcs = ref [] in
  let check_version label srcs expect =
    let before = snapshot engine in
    Goobs.Profile.reset ();
    let r = analyse engine srcs in
    let d = delta before (snapshot engine) in
    (* a source is hashed only when it is not the previous version's
       string at the same position: an edit hashes the file it edited *)
    let replaced =
      List.length
        (List.filteri
           (fun i s ->
             match List.nth_opt !prev_srcs i with
             | Some s0 -> s0 != s
             | None -> true)
           srcs)
    in
    prev_srcs := srcs;
    Alcotest.(check int) (label ^ ": sources hashed") replaced
      (List.assoc "engine.sources_hashed" d);
    (* a profile sample per channel solved here, none per channel taken
       over *)
    let solved =
      List.sort compare
        (List.map
           (fun (s : Goobs.Profile.channel_sample) -> s.cs_channel)
           (Goobs.Profile.channels ()))
    in
    (match (expect, !prev) with
    | Cutoff _, Some (_, copy) ->
        Alcotest.(check (list string))
          (label ^ ": the channels whose scope changed are solved, no other")
          (List.sort compare (channels_to_solve r ~before:copy))
          solved
    | Same_record, _ ->
        Alcotest.(check (list string)) (label ^ ": no channel solved") [] solved
    | _ -> ());
    let ir = ir_of r in
    check_assembly label ir srcs;
    (match !prev with
    | Some (pir, copy) ->
        Alcotest.(check bool)
          (label ^ ": the previous version's program is unchanged") true
          (Goir.Ir.funcs_list pir = copy)
    | None -> ());
    prev := Some (ir, deep_copy (Goir.Ir.funcs_list ir));
    let fresh = analyse (Gcatch.Passes.engine ~jobs ()) srcs in
    Alcotest.(check string) (label ^ ": same as a fresh engine") (rendered fresh)
      (rendered r);
    Alcotest.(check (list (pair string int))) (label ^ ": same health")
      fresh.E.r_health r.E.r_health;
    Alcotest.(check bool)
      (label ^ ": same typed reports") true
      (Gcatch.Passes.bmoc_bugs r.E.r_diags = Gcatch.Passes.bmoc_bugs fresh.E.r_diags
      && Gcatch.Passes.trad_bugs r.E.r_diags
         = Gcatch.Passes.trad_bugs fresh.E.r_diags
      && Gcatch.Passes.nb_bugs r.E.r_diags = Gcatch.Passes.nb_bugs fresh.E.r_diags);
    check_expect label expect d ~nchannels:(channels r)
      ~nfuncs:(List.length (Goir.Ir.funcs_list ir))
  in
  check_version "original" base Cold;
  ignore
    (List.fold_left
       (fun srcs (label, edit, expect) ->
         let srcs = edit srcs in
         check_version label srcs expect;
         srcs)
       base edits);
  check_version "revert to the original" base Same_record

let test_sequence_j1 () = run_sequence ~jobs:1 ()
let test_sequence_j4 () = run_sequence ~jobs:4 ()

(* ---- safety ---- *)

(* Reuse stands down while fault injection is armed: an edit that would
   take the cutoff recomputes in full instead (the plan below never
   fires), with the same output. *)
let test_faults_stand_down () =
  let engine = Gcatch.Passes.engine () in
  ignore (analyse engine base);
  let srcs = edit_file 2 (helper_literal ~v:7) base in
  let before = snapshot engine in
  let r =
    Fun.protect ~finally:Goobs.Faults.clear (fun () ->
        (match Goobs.Faults.parse "solver@no-such-channel" with
        | Ok specs -> Goobs.Faults.set_plan specs
        | Error e -> Alcotest.fail e);
        analyse engine srcs)
  in
  let d = delta before (snapshot engine) in
  Alcotest.(check int) "no cutoff" 0 (List.assoc "engine.cutoff_hits" d);
  Alcotest.(check int) "alias recomputed" 1 (List.assoc "stage.alias.runs" d);
  Alcotest.(check int) "nothing replayed" 0
    (List.assoc "engine.bmoc_channels_replayed" d);
  Alcotest.(check string) "same as a fresh engine"
    (rendered (analyse (Gcatch.Passes.engine ()) srcs))
    (rendered r)

let trad_passes =
  [
    "trad.missing-unlock";
    "trad.double-lock";
    "trad.lock-order";
    "trad.field-race";
    "trad.fatal-child";
  ]

(* A function whose walk raised is never taken over: the successor walks
   it again and every checker checks it again, so it degrades in each
   lockset pass exactly as before, beside the edited function. *)
let test_raised_walk_rechecked () =
  let engine = Gcatch.Passes.engine () in
  let a = E.artifacts engine ~name:"app" base in
  (match Goir.Ir.find_func (Lazy.force a.E.a_ir) "flush" with
  | Some f -> f.blocks.(f.entry).term <- Goir.Ir.Tjump 9999
  | None -> Alcotest.fail "no flush");
  let degraded (r : E.run) =
    List.map
      (fun (pr : E.pass_run) ->
        ( pr.E.pr_pass,
          Goengine.Supervise.(health_get pr.E.pr_metrics h_degraded) ))
      r.E.r_passes
  in
  let r1 = E.analyse ~only:trad_passes engine ~name:"app" base in
  let before = snapshot engine in
  let r2 =
    E.analyse ~only:trad_passes engine ~name:"app"
      (edit_file 2 (helper_literal ~v:7) base)
  in
  let d = delta before (snapshot engine) in
  Alcotest.(check int) "cutoff" 1 (List.assoc "engine.cutoff_hits" d);
  Alcotest.(check int) "the edited function and the raised one walked" 2
    (List.assoc "engine.lockset_funcs_walked" d);
  Alcotest.(check int) "both checked by every checker" (2 * ncheckers)
    (List.assoc "engine.trad_funcs_checked" d);
  Alcotest.(check (list (pair string int)))
    "degraded in each lockset pass, as before"
    [
      ("trad.missing-unlock", 1);
      ("trad.double-lock", 1);
      ("trad.lock-order", 1);
      ("trad.field-race", 1);
      ("trad.fatal-child", 0);
    ]
    (degraded r2);
  Alcotest.(check string) "same results as before the edit" (rendered r1)
    (rendered r2)

(* Nothing is taken over while a watchdog reports pressure: every unit
   meets its boundary and is skipped there, as on a cold run. *)
let test_pressure_stands_down () =
  let ir = Pipeline.compile_ir ~name:"app" base in
  let alias = Goanalysis.Alias.analyse ir in
  let cg = Goanalysis.Callgraph.build ~alias ir in
  let prims = Gcatch.Primitives.collect ir alias in
  let dis = Gcatch.Disentangle.build prims cg in
  let module T = Gcatch.Traditional in
  let module S = Goengine.Supervise in
  let health reg k = S.health_get (S.health_of (Goobs.Metrics.counters_list reg)) k in
  let w = T.walk prims alias ir in
  let nfuncs = List.length (Goir.Ir.funcs_list ir) in
  let bugs, kept, _ = T.run T.missing_unlock w in
  Alcotest.(check bool) "reports" true (bugs <> []);
  let verdicts = Goengine.Memo.create () in
  let detect ?carry reg =
    Gcatch.Bmoc.detect_with ~metrics:reg ~dis ?carry ~verdicts ~alias ~cg ~prims
      ir
  in
  let cold = detect (Goobs.Metrics.create ()) in
  let nchannels = cold.Gcatch.Bmoc.f_stats.channels_analysed in
  Alcotest.(check bool) "channels" true (nchannels > 0);
  let carry = (cold.Gcatch.Bmoc.f_outcomes, []) in
  (* unpressured: everything is taken over, and credited *)
  let reg = Goobs.Metrics.create () in
  let again, _, checked = T.run ~metrics:reg ~prior:(kept, T.unchanged) T.missing_unlock w in
  Alcotest.(check int) "no function checked" 0 checked;
  Alcotest.(check (list string)) "same reports"
    (List.map Gcatch.Report.trad_str bugs)
    (List.map Gcatch.Report.trad_str again);
  Alcotest.(check int) "every function credited ok" nfuncs (health reg S.h_ok);
  let reg = Goobs.Metrics.create () in
  let r = detect ~carry reg in
  Alcotest.(check int) "every channel taken over" nchannels r.Gcatch.Bmoc.f_replayed;
  Alcotest.(check int) "every channel ok" nchannels (health reg S.h_ok);
  Alcotest.(check bool) "same bugs" true
    (r.Gcatch.Bmoc.f_bugs = cold.Gcatch.Bmoc.f_bugs);
  List.iter
    (fun (label, arm, clear) ->
      Fun.protect ~finally:clear (fun () ->
          arm ();
          let reg = Goobs.Metrics.create () in
          let bugs, _, checked =
            T.run ~metrics:reg ~prior:(kept, T.unchanged) T.missing_unlock w
          in
          Alcotest.(check int) (label ^ ": every function checked") nfuncs checked;
          Alcotest.(check int) (label ^ ": no reports") 0 (List.length bugs);
          Alcotest.(check int) (label ^ ": every function skipped") nfuncs
            (health reg S.h_skipped);
          let reg = Goobs.Metrics.create () in
          let r = detect ~carry reg in
          Alcotest.(check int) (label ^ ": no channel taken over") 0
            r.Gcatch.Bmoc.f_replayed;
          Alcotest.(check int) (label ^ ": every channel skipped") nchannels
            (health reg S.h_skipped);
          Alcotest.(check int) (label ^ ": no bugs") 0
            (List.length r.Gcatch.Bmoc.f_bugs)))
    [
      ("deadline", (fun () -> S.set_deadline_ms (-1)), S.clear_deadline);
      ("heap", (fun () -> S.set_max_heap_mb 0), S.clear_max_heap);
    ]

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* A channel the first analysis left without an outcome (its solve timed
   out) is solved when the record is analysed again, and no other
   channel is.  The solve cache is off, so the timed-out solve cannot be
   answered from the cold run's entry. *)
let test_missing_outcomes_resolved () =
  let ir = Pipeline.compile_ir ~name:"app" base in
  let alias = Goanalysis.Alias.analyse ir in
  let cg = Goanalysis.Callgraph.build ~alias ir in
  let prims = Gcatch.Primitives.collect ir alias in
  let dis = Gcatch.Disentangle.build prims cg in
  let cfg = { Gcatch.Bmoc.default_config with solve_cache = false } in
  let detect ?carry () =
    Gcatch.Bmoc.detect_with ~cfg ~metrics:(Goobs.Metrics.create ()) ~dis ?carry
      ~verdicts:(Goengine.Memo.create ()) ~alias ~cg ~prims ir
  in
  let names outs =
    List.sort compare
      (Hashtbl.fold (fun c _ acc -> Goanalysis.Alias.obj_str c :: acc) outs [])
  in
  let cold = detect () in
  let all = names cold.Gcatch.Bmoc.f_outcomes in
  let key = List.hd all in
  let missing = List.filter (fun c -> contains c key) all in
  Alcotest.(check bool) "some channels but not all time out" true
    (List.length missing < List.length all);
  let first =
    Fun.protect ~finally:Goobs.Faults.clear (fun () ->
        (match Goobs.Faults.parse ("solver:*@" ^ key ^ "!timeout") with
        | Ok specs -> Goobs.Faults.set_plan specs
        | Error e -> Alcotest.fail e);
        detect ())
  in
  Alcotest.(check (list string)) "the timed-out channels have no outcome"
    (List.filter (fun c -> not (List.mem c missing)) all)
    (names first.Gcatch.Bmoc.f_outcomes);
  Goobs.Profile.reset ();
  let again = detect ~carry:(first.Gcatch.Bmoc.f_outcomes, []) () in
  Alcotest.(check (list string)) "exactly those channels solved" missing
    (List.sort compare
       (List.map
          (fun (s : Goobs.Profile.channel_sample) -> s.cs_channel)
          (Goobs.Profile.channels ())));
  Alcotest.(check int) "those channels ran" (List.length missing)
    again.Gcatch.Bmoc.f_enumerated;
  Alcotest.(check int) "the others taken over"
    (List.length all - List.length missing)
    again.Gcatch.Bmoc.f_replayed;
  Alcotest.(check (list string)) "every channel has an outcome again" all
    (names again.Gcatch.Bmoc.f_outcomes);
  Alcotest.(check bool) "same bugs as the cold run" true
    (again.Gcatch.Bmoc.f_bugs = cold.Gcatch.Bmoc.f_bugs)

(* A disentangling is shared by the records of several versions, so
   asking it for an object it did not cover must not write to it. *)
let test_scope_of_read_only () =
  let ir = Pipeline.compile_ir ~name:"wg" [ {|package f
func run() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		wg.Done()
	}()
	wg.Wait()
}
|} ] in
  let alias = Goanalysis.Alias.analyse ir in
  let cg = Goanalysis.Callgraph.build ~alias ir in
  let prims = Gcatch.Primitives.collect ir alias in
  let dis = Gcatch.Disentangle.build prims cg in
  let wgs =
    Hashtbl.fold
      (fun o k acc -> if k = Gcatch.Primitives.Pwaitgroup then o :: acc else acc)
      prims.Gcatch.Primitives.kinds []
  in
  Alcotest.(check bool) "a WaitGroup" true (wgs <> []);
  let n = Hashtbl.length dis.Gcatch.Disentangle.scopes in
  List.iter
    (fun o ->
      Alcotest.(check bool) "not covered by build" false
        (Hashtbl.mem dis.Gcatch.Disentangle.scopes o);
      ignore (Gcatch.Disentangle.scope_of dis o))
    wgs;
  Alcotest.(check int) "scopes unchanged" n
    (Hashtbl.length dis.Gcatch.Disentangle.scopes)

(* ---- memory ---- *)

(* The digest table keeps only the live records' entries: fifty distinct
   edits through an engine holding two records leave it bounded by a
   small multiple of the file count. *)
let test_digest_table_bounded () =
  let dir = Filename.temp_dir "gcatch-cutoff" "" in
  let engine =
    E.create ~passes:(Gcatch.Passes.all ()) ~max_entries:2 ~cache_dir:dir ()
  in
  let srcs = Array.of_list fillers in
  let nfiles = Array.length srcs in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      for n = 1 to 50 do
        let k = n mod nfiles in
        srcs.(k) <- helper_literal ~v:(n + 1) srcs.(k);
        ignore
          (E.analyse ~only:[ "trad.fatal-child" ] engine ~name:"app"
             (Array.to_list srcs));
        let entries = E.digest_entries engine in
        Alcotest.(check bool)
          (Printf.sprintf "edit %d: %d digest entries for %d files" n entries
             nfiles)
          true
          (entries <= 6 * nfiles)
      done)

let tests =
  [
    Alcotest.test_case "edit sequence matches fresh engines (jobs 1)" `Quick
      test_sequence_j1;
    Alcotest.test_case "edit sequence matches fresh engines (jobs 4)" `Quick
      test_sequence_j4;
    Alcotest.test_case "channels left without an outcome are solved again"
      `Quick test_missing_outcomes_resolved;
    Alcotest.test_case "reuse stands down under fault injection" `Quick
      test_faults_stand_down;
    Alcotest.test_case "a function whose walk raised is checked again" `Quick
      test_raised_walk_rechecked;
    Alcotest.test_case "reuse stands down under pressure" `Quick
      test_pressure_stands_down;
    Alcotest.test_case "scope_of never writes" `Quick test_scope_of_read_only;
    Alcotest.test_case "digest table bounded across edits" `Quick
      test_digest_table_bounded;
  ]
