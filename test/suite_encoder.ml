(* The BMOC constraint encoder against its reference.

   [Gcatch.Constraints] writes each problem's clauses straight into the
   SAT core; [Ref_encoder] builds the same formulas as [Expr] trees and
   adds them to [Ref_solver], which translates them with its own copy
   of the old Tseitin and cardinality encoding.  For every (combination,
   group) problem that BMOC hands the solver — on the 21 corpus apps,
   the 49 bug-set programs and the differential suite's grid — both run
   in step, and after each problem their SAT instances must agree: the
   same number of variables, and the same clauses in the same order
   with their literals in the same order (a digest of the clause
   stream, theory lemmas and retired guards included).  Their verdicts,
   witnesses and solver counters must agree too. *)

module C = Gcatch.Constraints
module R = Ref_encoder
module Alias = Goanalysis.Alias
module Callgraph = Goanalysis.Callgraph
module Pathenum = Gcatch.Pathenum
module Primitives = Gcatch.Primitives
module Disentangle = Gcatch.Disentangle
module Bmoc = Gcatch.Bmoc

let cfg = Bmoc.default_config

(* The solver counters one problem reports, as a list. *)
let stats_recorder () =
  let got = ref [] in
  let on_stats ~conflicts ~decisions ~propagations ~theory_conflicts ~learnts
      ~restarts ~reductions =
    got :=
      [ conflicts; decisions; propagations; theory_conflicts; learnts; restarts; reductions ]
  in
  (got, on_stats)

let verdict_str = function
  | C.Cannot_block -> "cannot block"
  | C.Blocks w ->
      "blocks " ^ String.concat "," (List.map (fun (pp, o) -> Printf.sprintf "%d:%d" pp o) w)

let ref_verdict_str = function
  | R.Cannot_block -> "cannot block"
  | R.Blocks w ->
      "blocks " ^ String.concat "," (List.map (fun (pp, o) -> Printf.sprintf "%d:%d" pp o) w)

(* Every problem of [prog]'s channels, in the order [Bmoc.detect_channel]
   solves them (the same enumeration, feasibility filter, dedup and
   group dedup), through both encoders.  Returns the number of
   problems. *)
let check_program name (prog : Goir.Ir.program) =
  let alias = Alias.analyse prog in
  let cg = Callgraph.build ~alias prog in
  let prims = Primitives.collect prog alias in
  let dis = Disentangle.build prims cg in
  let roots =
    List.filter
      (fun o ->
        match o with
        | Alias.Achan _ -> Primitives.kind_of prims o = Some Primitives.Pchan
        | _ -> false)
      dis.Disentangle.all
  in
  List.fold_left
    (fun problems c ->
      let scope = Disentangle.scope_of dis c and pset = Disentangle.pset dis c in
      let ctx =
        {
          Pathenum.prog;
          alias;
          cg;
          pset;
          scope_funcs = scope.funcs;
          cfg = cfg.path_cfg;
          touch_memo = Hashtbl.create 16;
        }
      in
      let combos =
        Pathenum.combinations ctx ~root:scope.root ~max_combos:cfg.max_combos
          ~max_goroutines:cfg.max_goroutines
      in
      let live =
        List.mapi (fun i cb -> (i, cb)) combos
        |> List.filter (fun (_, cb) ->
               (not (Pathenum.has_conflicts cb)) && Pathenum.has_blocking_op cb)
      in
      let live, _ = Pathenum.dedup_combinations live in
      let session = C.create_session ~pset ~prims in
      let rs = R.create_session () in
      let seen = Hashtbl.create 16 in
      let n = ref 0 in
      List.iter
        (fun (combo_id, combo) ->
          List.iter
            (fun (group : C.group_member list) ->
              let key =
                List.sort compare
                  (List.map
                     (fun (g : C.group_member) ->
                       (List.nth (List.nth combo g.g_gid).Pathenum.gi_path.p_events g.g_uid)
                         .Pathenum.e_pp)
                     group)
              in
              if not (Hashtbl.mem seen key) then begin
                incr n;
                let where =
                  Printf.sprintf "%s, channel %s, combination %d, problem %d" name
                    (Alias.obj_str c) combo_id !n
                in
                let got, on_stats = stats_recorder () in
                let v = C.solve_incr session ~on_stats combo group in
                let ref_got, ref_on_stats = stats_recorder () in
                let rv =
                  R.solve_incr rs ~on_stats:ref_on_stats
                    {
                      R.combo;
                      group = List.map (fun (g : C.group_member) -> { R.g_gid = g.g_gid; g_uid = g.g_uid }) group;
                      pset;
                      prims;
                    }
                in
                let vars, clauses, digest = Gosmt.Solver.instance session.C.s in
                let ref_vars, ref_clauses, ref_digest = Ref_solver.instance rs.R.ss in
                Alcotest.(check int) (where ^ ": variables") ref_vars vars;
                Alcotest.(check int) (where ^ ": clauses") ref_clauses clauses;
                Alcotest.(check int) (where ^ ": clause stream") ref_digest digest;
                Alcotest.(check string) (where ^ ": verdict") (ref_verdict_str rv) (verdict_str v);
                Alcotest.(check (list int)) (where ^ ": solver counters") !ref_got !got;
                match v with C.Blocks _ -> Hashtbl.add seen key () | C.Cannot_block -> ()
              end)
            (Bmoc.suspicious_groups cfg pset combo))
        live;
      problems + !n)
    0 roots

(* A pinned program's [bmoc.solver_calls] (absent when zero). *)
let pinned_solver_calls metrics =
  List.find_map
    (fun kv ->
      match String.split_on_char '=' kv with
      | [ "bmoc.solver_calls"; n ] -> Some (int_of_string n)
      | _ -> None)
    (String.split_on_char ' ' metrics)
  |> Option.value ~default:0

(* The corpus and the bug set: as many problems as the pinned BMOC runs
   made solver calls, so the enumeration here is BMOC's. *)
let test_corpus () =
  List.iter2
    (fun (name, sources) (pin_name, pin_metrics, _) ->
      Alcotest.(check string) "program order" pin_name name;
      let n = check_program name (Pipeline.compile_ir ~name sources) in
      Alcotest.(check int) (name ^ ": problems") (pinned_solver_calls pin_metrics) n)
    Suite_corpus.programs Sat_pins.pins

let test_differential_grid () =
  let total = ref 0 in
  for cap = 0 to 2 do
    for sends = 0 to 3 do
      for recvs = 0 to 3 do
        if sends + recvs > 0 then begin
          let name = Printf.sprintf "diff-%d-%d-%d" cap sends recvs in
          let src = Suite_differential.program ~cap ~sends ~recvs in
          total := !total + check_program name (Pipeline.compile_ir ~name [ src ])
        end
      done
    done
  done;
  Alcotest.(check bool) "the grid has problems" true (!total > 0)

let tests =
  [
    Alcotest.test_case "same instance as the reference: corpus and bug set" `Slow
      test_corpus;
    Alcotest.test_case "same instance as the reference: differential grid" `Quick
      test_differential_grid;
  ]
