module Ir = Goir.Ir

(* Call graph construction.

   Direct calls and [go] spawns produce exact edges.  Indirect calls
   (through function values) are resolved using alias results; when alias
   information is empty we fall back to matching every program function
   with the same arity — the same over-approximation the paper's CHA
   package makes, and the paper's documented source of call-graph false
   positives (§5.1).  As in the paper, when the fallback produces more
   than one candidate we mark the call [ambiguous] so detectors can choose
   to ignore it. *)

type edge_kind = Ecall | Ego

type edge = {
  caller : string;
  callee : string;
  site : Ir.pp;
  kind : edge_kind;
  ambiguous : bool;
}

type t = {
  edges : edge list;
  succs : (string, edge list) Hashtbl.t;
  preds : (string, edge list) Hashtbl.t;
}

let arity (f : Ir.func) = List.length f.params

(* ------------------------------------------------- per-file sites ---- *)

(* Call-site extraction is per function (pure, cacheable per file);
   edge resolution — which needs the whole program for existence checks,
   alias results, and the CHA arity fallback — happens afterwards over
   the collected sites. *)

type site =
  | Sdirect of string * Ir.pp * edge_kind
  | Sindirect of Ir.var * int * Ir.pp (* function var, arg count, site *)

type func_sites = {
  cs_name : string;
  cs_sites : site list;
  cs_pp_base : int; (* added to the sites' program points *)
}

let extract_func (f : Ir.func) : func_sites =
  let sites = ref [] in
  Ir.iter_insts
    (fun (i : Ir.inst) ->
      match i.idesc with
      | Icall (_, g, _) -> sites := Sdirect (g, i.ipp, Ecall) :: !sites
      | Igo (g, _) -> sites := Sdirect (g, i.ipp, Ego) :: !sites
      | Icall_indirect (_, fv, args) ->
          sites := Sindirect (fv, List.length args, i.ipp) :: !sites
      | _ -> ())
    f;
  { cs_name = f.name; cs_sites = List.rev !sites; cs_pp_base = 0 }

let rebase_sites off (cs : func_sites) : func_sites =
  if off = 0 then cs else { cs with cs_pp_base = cs.cs_pp_base + off }

(* Resolve sites into edges.  The site lists are taken in function
   name order ({!Ir.in_func_order}: sorted unless they already are, a
   name listed twice keeping its last entry) so the edge list comes out
   exactly as the whole-program builder produced it ([Ir.funcs_list]
   order, reverse-cons discovery order). *)
let build_from_sites ?alias (prog : Ir.program) (sites : func_sites list) : t
    =
  let sites = Ir.in_func_order (fun cs -> cs.cs_name) sites in
  let edges = ref [] in
  let add ?(ambiguous = false) caller callee site kind =
    if Hashtbl.mem prog.funcs callee then
      edges := { caller; callee; site; kind; ambiguous } :: !edges
  in
  List.iter
    (fun cs ->
      List.iter
        (fun s ->
          match s with
          | Sdirect (g, pp, kind) -> add cs.cs_name g (cs.cs_pp_base + pp) kind
          | Sindirect (fv, argc, pp) -> (
              let pp = cs.cs_pp_base + pp in
              let candidates =
                match alias with
                | Some al ->
                    Alias.ObjSet.fold
                      (fun o acc ->
                        match o with Alias.Afunc g -> g :: acc | _ -> acc)
                      (Alias.pts_var al cs.cs_name fv)
                      []
                | None -> []
              in
              match candidates with
              | [] ->
                  (* CHA-style fallback: all functions of matching arity *)
                  let matching =
                    List.filter
                      (fun (g : Ir.func) -> arity g = argc)
                      (Ir.funcs_list prog)
                  in
                  let ambiguous = List.length matching > 1 in
                  List.iter
                    (fun (g : Ir.func) ->
                      add ~ambiguous cs.cs_name g.name pp Ecall)
                    matching
              | [ g ] -> add cs.cs_name g pp Ecall
              | gs ->
                  List.iter
                    (fun g -> add ~ambiguous:true cs.cs_name g pp Ecall)
                    gs))
        cs.cs_sites)
    sites;
  let succs = Hashtbl.create 16 in
  let preds = Hashtbl.create 16 in
  List.iter
    (fun e ->
      Hashtbl.replace succs e.caller
        (e :: (Option.value (Hashtbl.find_opt succs e.caller) ~default:[]));
      Hashtbl.replace preds e.callee
        (e :: (Option.value (Hashtbl.find_opt preds e.callee) ~default:[])))
    !edges;
  { edges = !edges; succs; preds }

let build ?alias (prog : Ir.program) : t =
  build_from_sites ?alias prog
    (List.map extract_func (Ir.funcs_list prog))

let callees t f = Option.value (Hashtbl.find_opt t.succs f) ~default:[]
let callers t f = Option.value (Hashtbl.find_opt t.preds f) ~default:[]

(* Transitive closure of functions reachable from [f] (via calls and
   spawns), including [f] itself. *)
let reachable_from t f =
  let seen = Hashtbl.create 16 in
  let rec go f =
    if not (Hashtbl.mem seen f) then begin
      Hashtbl.add seen f ();
      List.iter (fun e -> go e.callee) (callees t f)
    end
  in
  go f;
  seen

(* Lowest common ancestor of a set of functions in the call graph: the
   function with the smallest reachable-set that can reach all of them.
   The paper uses this to define a channel's analysis scope (§3.2). *)
let ancestors t f =
  let seen = Hashtbl.create 16 in
  let rec go f =
    if not (Hashtbl.mem seen f) then begin
      Hashtbl.add seen f ();
      List.iter (fun e -> go e.caller) (callers t f)
    end
  in
  go f;
  seen

(* The covering candidates are exactly the common ancestors of [fs]
   (reach(g) ∋ f ⟺ g caller-reaches f — same edge set, walked
   backwards), so intersect the ancestor sets instead of testing every
   program function: one forward walk per surviving candidate, not one
   per function.  The winner is unchanged — smallest reachable set,
   ties to the lexicographically first name, which is the order the old
   stable sort over the name-sorted function list produced.  Every
   candidate is a program function: an ancestor is [f0] itself (a
   function holding an operation) or the caller of an edge, and edges
   are built from the call sites of program functions. *)
let lca t (fs : string list) : string option =
  match fs with
  | [] -> None
  | [ f ] -> Some f
  | f0 :: rest ->
      let cand0 =
        Hashtbl.fold (fun g () acc -> g :: acc) (ancestors t f0) []
      in
      let cands =
        List.fold_left
          (fun acc f ->
            let a = ancestors t f in
            List.filter (fun g -> Hashtbl.mem a g) acc)
          cand0 rest
      in
      let covering =
        List.map (fun g -> (g, Hashtbl.length (reachable_from t g))) cands
      in
      (match covering with
      | [] -> None
      | first :: others ->
          let best, _ =
            List.fold_left
              (fun (bg, bs) (g, s) ->
                if s < bs || (s = bs && g < bg) then (g, s) else (bg, bs))
              first others
          in
          Some best)
