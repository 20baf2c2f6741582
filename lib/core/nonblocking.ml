module Ir = Goir.Ir
module Alias = Goanalysis.Alias
module Callgraph = Goanalysis.Callgraph
module Solver = Gosmt.Solver

(* Non-blocking misuse-of-channel detectors — the extension the paper
   sketches in §6: "we can enhance GCatch to detect bugs caused by this
   error by configuring a new type of bug constraints where a sending
   operation has a larger order variable value than a closing operation
   conducted on the same channel".

   Two checkers, both built from the BMOC detector's path machinery but
   with a lighter constraint system (only Φorder ∧ Φspawn — the panic
   happens the moment the racy order is possible, no blocking reasoning
   is needed):

   - send-on-closed: a send that can execute after a close of the same
     channel panics at run time;
   - double-close: two closes of the same channel in one feasible
     combination panic at run time.

   A same-goroutine send-then-close is *not* flagged: program order makes
   O_close < O_send unsatisfiable. *)

type nb_kind = Send_on_closed | Double_close

let nb_kind_str = function
  | Send_on_closed -> "send on closed channel"
  | Double_close -> "channel closed twice"

type nb_bug = {
  nb_kind : nb_kind;
  nb_chan : Alias.obj;
  nb_first : Minigo.Loc.t; (* the close *)
  nb_second : Minigo.Loc.t; (* the send / second close *)
  nb_func : string;
}

let nb_str (b : nb_bug) =
  Printf.sprintf "%s: %s closed at %s, %s at %s (scope %s)"
    (nb_kind_str b.nb_kind) (Alias.obj_str b.nb_chan)
    (Minigo.Loc.to_string b.nb_first)
    (match b.nb_kind with Send_on_closed -> "sent" | Double_close -> "closed again")
    (Minigo.Loc.to_string b.nb_second)
    b.nb_func

(* Events of one kind on one object across a combination. *)
let events_on (combo : Pathenum.combination) (obj : Alias.obj) ~kind :
    (int * Pathenum.event) list =
  List.concat_map
    (fun (gi : Pathenum.goroutine_instance) ->
      List.filter_map
        (fun (e : Pathenum.event) ->
          match e.e_desc with
          | Sync (Sop (k, objs)) when k = kind && List.mem obj objs ->
              Some (gi.gi_id, e)
          | _ -> None)
        gi.gi_path.p_events)
    combo

(* Can [first] execute strictly before [second] under program and spawn
   order?  Encoded exactly as the paper suggests: order variables per
   event, O_first < O_second, solve. *)
let order_feasible (combo : Pathenum.combination) (first : int * Pathenum.event)
    (second : int * Pathenum.event) : bool =
  let s = Solver.create () in
  let ovar = Hashtbl.create 32 in
  let ovar_of gid uid =
    match Hashtbl.find_opt ovar (gid, uid) with
    | Some v -> v
    | None ->
        let v = Solver.new_order_var s in
        Hashtbl.replace ovar (gid, uid) v;
        v
  in
  List.iter
    (fun (gi : Pathenum.goroutine_instance) ->
      let rec chain = function
        | (a : Pathenum.event) :: (b :: _ as rest) ->
            Solver.add s
              (Solver.lt s (ovar_of gi.gi_id a.e_uid) (ovar_of gi.gi_id b.e_uid));
            chain rest
        | _ -> ()
      in
      chain gi.gi_path.p_events;
      match (gi.gi_parent, gi.gi_spawn_uid, gi.gi_path.p_events) with
      | Some parent, Some spawn_uid, first_ev :: _ ->
          Solver.add s
            (Solver.lt s (ovar_of parent spawn_uid)
               (ovar_of gi.gi_id first_ev.e_uid))
      | _ -> ())
    combo;
  let fg, fe = first and sg, se = second in
  Solver.add s (Solver.lt s (ovar_of fg fe.e_uid) (ovar_of sg se.e_uid));
  match Solver.solve s with Solver.Sat_model _ -> true | Solver.Unsat -> false

let detect ?(cfg = Bmoc.default_config) ?dis ~(alias : Alias.t)
    ~(cg : Callgraph.t) ~(prims : Primitives.t) (prog : Ir.program) :
    nb_bug list =
  let dis =
    match dis with Some d -> d | None -> Disentangle.build prims cg
  in
  let bugs = ref [] in
  let seen = Hashtbl.create 16 in
  let report kind obj scope_root first second =
    let key = (kind, obj, (first : Minigo.Loc.t), (second : Minigo.Loc.t)) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      bugs :=
        {
          nb_kind = kind;
          nb_chan = obj;
          nb_first = first;
          nb_second = second;
          nb_func = scope_root;
        }
        :: !bugs
    end
  in
  List.iter
    (fun c ->
      match c with
      | Alias.Achan _ ->
          (* only channels with at least one close can panic this way *)
          let has_close =
            List.exists
              (fun (o : Primitives.op) -> o.o_kind = Report.Kclose)
              (Primitives.ops_of prims c)
          in
          if has_close then begin
            let scope = Disentangle.scope_of dis c in
            let pset = Disentangle.pset dis c in
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
              Pathenum.combinations ctx ~root:scope.root
                ~max_combos:cfg.max_combos ~max_goroutines:cfg.max_goroutines
            in
            List.iter
              (fun combo ->
                if not (Pathenum.has_conflicts combo) then begin
                  let closes = events_on combo c ~kind:Report.Kclose in
                  let sends = events_on combo c ~kind:Report.Ksend in
                  (* send-on-closed *)
                  List.iter
                    (fun close ->
                      List.iter
                        (fun send ->
                          if order_feasible combo close send then
                            report Send_on_closed c scope.root
                              (snd close).Pathenum.e_loc
                              (snd send).Pathenum.e_loc)
                        sends)
                    closes;
                  (* double-close: two distinct close events in one
                     feasible combination *)
                  match closes with
                  | (_ :: _ :: _ : _ list) ->
                      let rec pairs = function
                        | a :: rest ->
                            List.iter
                              (fun b ->
                                (* both orders infeasible would mean the
                                   two closes cannot co-exist *)
                                if
                                  (snd a).Pathenum.e_pp
                                  <> (snd b).Pathenum.e_pp
                                  && (order_feasible combo a b
                                     || order_feasible combo b a)
                                then
                                  report Double_close c scope.root
                                    (snd a).Pathenum.e_loc
                                    (snd b).Pathenum.e_loc)
                              rest;
                            pairs rest
                        | [] -> ()
                      in
                      pairs closes
                  | _ -> ()
                end)
              combos
          end
      | _ -> ())
    (Primitives.channels prims);
  List.rev !bugs
