module Ir = Goir.Ir

(* Andersen-style, flow-insensitive, field-sensitive alias analysis.

   GCatch "distinguishes primitives using their static creation sites and
   leverages alias analysis to determine whether an operation is performed
   on a primitive" (paper §3.1).  We reproduce that: every channel, mutex,
   waitgroup and struct is identified by an abstract object, and the solver
   computes which objects each variable (and struct field) may denote.

   Abstract objects:
   - [Achan pp]      — a make(chan) site
   - [Astruct pp]    — a struct allocation / zero-valued declaration site
   - [Afunc name]    — a function value
   - [Aext (f, p)]   — an opaque object standing for the value a parameter
                       [p] of entry function [f] receives from outside the
                       analysed program (library analysis mode)
   - [Aprim (owner, field)] — a primitive living in field [field] of
                       another object (e.g. a mutex field of a struct, or
                       the $done channel of a context) *)

module SMap = Map.Make (String)

type obj =
  | Achan of Ir.pp
  | Astruct of Ir.pp
  | Afunc of string
  | Aext of string * string
  | Aprim of obj * string

let rec obj_str = function
  | Achan p -> Printf.sprintf "chan@%d" p
  | Astruct p -> Printf.sprintf "struct@%d" p
  | Afunc f -> Printf.sprintf "func:%s" f
  | Aext (f, p) -> Printf.sprintf "ext:%s.%s" f p
  | Aprim (o, f) -> Printf.sprintf "%s.%s" (obj_str o) f

module ObjSet = Set.Make (struct
  type t = obj

  let compare = compare
end)

let is_pointerish (t : Minigo.Ast.typ) =
  match t with
  | Tchan _ | Tmutex | Twaitgroup | Tcond | Tstruct _ | Tcontext | Tfunc _ | Tany
    ->
      true
  | Tint | Tbool | Tstring | Tunit | Ttesting | Terror -> false

(* ------------------------------------------- per-function summaries --- *)

(* The analysis is split into a per-function fact-extraction pass (pure,
   cacheable per file, parallelisable) and a sequential global fixpoint
   over the extracted summaries.  A summary records, in the exact order
   the whole-program pass visits them, every instruction the solver
   interprets — order matters because [ensure_field] materialises a
   primitive object only for fields that are still empty when first
   touched, so the visit order is part of the observable result.

   Variables are numbered per function, the parameters first and the
   others in order of first mention, one number per name (so repeated
   [_] parameters share one): [fs_vars.(i)] is variable [i]'s name, and
   [fs_by_name] lists the numbers in name order, for lookups by name.
   The solver works on array slots and never hashes a variable name.

   Summaries extracted from file-local IR carry file-local program
   points; [rebase_summary] moves them by the file's assembly offset by
   adding it to [fs_pp_base] (only the two creation-site facts embed a
   point, and the solver adds the base to those). *)

(* An operand, as far as objects go: constants and nil denote none, so
   extraction writes them all as [Xnone] — a literal edit then leaves
   the function's summary unchanged, which is what lets the engine keep
   a program's alias facts across such an edit. *)
type operand =
  | Xnone
  | Xvar of int
  | Xfunc of string
  | Xfield of int * string

type place = Lvar of int | Lfield of int * string

type fact =
  | Fmake_chan of int * Ir.pp * int option * Minigo.Loc.t
  | Fmake_struct of int * Ir.pp
  | Fassign of int * operand
  | Ffield_load of int * int * string
  | Ffield_store of int * string * operand
  | Fsend of place * operand
  | Frecv of int * place
  | Ftouch of int * string
      (* a field place looked up for its side effect only (a select
         receive that binds nothing): it may materialise a primitive
         field object *)
  | Fcall of int list * string * operand list
  | Fcall_indirect of int list * int * operand list
  | Fgo of string * operand list

type func_summary = {
  fs_name : string;
  fs_vars : string array; (* variable number -> name *)
  fs_by_name : int array; (* the variable numbers, sorted by name *)
  fs_params : (int * Minigo.Ast.typ) list;
      (* each parameter's variable number and type, in order *)
  fs_returns : operand list list;
      (* one per Treturn with operands, in block order *)
  fs_facts : fact list;
  fs_warm : (int * string) list;
      (* field places the post-fixpoint warm pass touches *)
  fs_pp_base : int; (* added to the creation sites' program points *)
}

(* extraction state: the variables numbered so far (by name, and
   newest first), and the facts and warm places collected, newest
   first *)
type extraction = {
  ids : (string, int) Hashtbl.t;
  mutable names : string list;
  mutable facts : fact list;
  mutable warm : (int * string) list;
}

let var x v =
  match Hashtbl.find_opt x.ids v with
  | Some i -> i
  | None ->
      let i = Hashtbl.length x.ids in
      Hashtbl.add x.ids v i;
      x.names <- v :: x.names;
      i

let operand x (o : Ir.operand) =
  match o with
  | Ovar v | Oplace (Pvar v) -> Xvar (var x v)
  | Oplace (Pfield (v, fld)) -> Xfield (var x v, fld)
  | Oconst_func g -> Xfunc g
  | Oconst_int _ | Oconst_bool _ | Oconst_str _ | Onil -> Xnone

let place x (p : Ir.place) =
  match p with
  | Pvar v -> Lvar (var x v)
  | Pfield (v, fld) -> Lfield (var x v, fld)

let rec vars x = function [] -> [] | v :: vs -> var x v :: vars x vs

let rec operands x = function
  | [] -> []
  | o :: os -> operand x o :: operands x os

let push x f = x.facts <- f :: x.facts

(* only field places matter to the warm pass *)
let warm_place x (p : Ir.place) =
  match p with
  | Pfield (v, fld) -> x.warm <- (var x v, fld) :: x.warm
  | Pvar _ -> ()

let warm_operand x = function Ir.Oplace p -> warm_place x p | _ -> ()

let extract_inst x (i : Ir.inst) =
  (match i.idesc with
  | Imake_chan (v, _, cap) -> push x (Fmake_chan (var x v, i.ipp, cap, i.iloc))
  | Imake_struct (v, _) -> push x (Fmake_struct (var x v, i.ipp))
  | Iassign (v, o) -> push x (Fassign (var x v, operand x o))
  | Ifield_load (v, b, fld) -> push x (Ffield_load (var x v, var x b, fld))
  | Ifield_store (b, fld, o) -> push x (Ffield_store (var x b, fld, operand x o))
  | Isend (p, o) -> push x (Fsend (place x p, operand x o))
  | Irecv (Some v, p, _) -> push x (Frecv (var x v, place x p))
  | Irecv (None, _, _) | Iclose _ | Ilock _ | Iunlock _ -> ()
  | Iwg_add _ | Iwg_done _ | Iwg_wait _ -> ()
  | Icall (rets, g, args) -> push x (Fcall (vars x rets, g, operands x args))
  | Icall_indirect (rets, fv, args) ->
      push x (Fcall_indirect (vars x rets, var x fv, operands x args))
  | Igo (g, args) -> push x (Fgo (g, operands x args))
  | Itesting_fatal _ | Ibinop _ | Iunop _ | Isleep _ | Iprint _ | Inop _ -> ());
  match i.idesc with
  | Isend (p, o) | Iwg_add (p, o) ->
      warm_place x p;
      warm_operand x o
  | Irecv (_, p, _) | Iclose p | Ilock p | Iunlock p | Iwg_done p | Iwg_wait p
    ->
      warm_place x p
  | Icall (_, _, os) | Icall_indirect (_, _, os) | Igo (_, os) | Iprint os ->
      List.iter (warm_operand x) os
  | Iassign (_, o) | Ifield_store (_, _, o) | Iunop (_, _, o) | Isleep o ->
      warm_operand x o
  | Ibinop (_, _, o1, o2) ->
      warm_operand x o1;
      warm_operand x o2
  | Imake_chan _ | Imake_struct _ | Itesting_fatal _ | Ifield_load _ | Inop _
    ->
      ()

(* select arms access places too *)
let extract_arm x (a : Ir.select_arm) =
  match a.arm_op with
  | Arm_recv (p, v) ->
      (match (v, p) with
      | Some v, _ -> push x (Frecv (var x v, place x p))
      | None, Pfield (b, fld) -> push x (Ftouch (var x b, fld))
      | None, Pvar _ -> () (* a variable lookup has no side effect *));
      warm_place x p
  | Arm_send (p, o) ->
      push x (Fsend (place x p, operand x o));
      warm_place x p;
      warm_operand x o

let extract_func (f : Ir.func) : func_summary =
  let x = { ids = Hashtbl.create 16; names = []; facts = []; warm = [] } in
  let params = List.map (fun (v, ty) -> (var x v, ty)) f.params in
  Ir.iter_insts (extract_inst x) f;
  Array.iter
    (fun (b : Ir.block) ->
      match b.term with
      | Tselect (arms, _, _) -> List.iter (extract_arm x) arms
      | _ -> ())
    f.blocks;
  let returns =
    Array.fold_right
      (fun (b : Ir.block) acc ->
        match b.term with
        | Treturn (_ :: _ as os) -> operands x os :: acc
        | _ -> acc)
      f.blocks []
  in
  let names = Array.of_list (List.rev x.names) in
  let by_name = Array.init (Array.length names) Fun.id in
  Array.stable_sort (fun a b -> String.compare names.(a) names.(b)) by_name;
  {
    fs_name = f.name;
    fs_vars = names;
    fs_by_name = by_name;
    fs_params = params;
    fs_returns = returns;
    fs_facts = List.rev x.facts;
    fs_warm = List.rev x.warm;
    fs_pp_base = 0;
  }

let rebase_summary off (s : func_summary) : func_summary =
  if off = 0 then s else { s with fs_pp_base = s.fs_pp_base + off }

(* ------------------------------------------------------------ solver --- *)

(* The functions are laid end to end: function [i]'s variable [j] is
   slot [base.(i) + j] of the points-to array. *)
type t = {
  funcs : func_summary array; (* in name order, one per name *)
  index : (string, int) Hashtbl.t; (* function name -> position in [funcs] *)
  base : int array;
  pts : ObjSet.t array;
  fields : (obj * string, ObjSet.t) Hashtbl.t;
  chan_cap : (Ir.pp, int option) Hashtbl.t;
  chan_loc : (Ir.pp, Minigo.Loc.t) Hashtbl.t;
  (* change stamps: a slot's stamp, and [fields_stamp] for the whole
     field table, is the [clock] value of its last change *)
  stamp : int array;
  mutable fields_stamp : int;
  mutable clock : int;
}

let pts_field st obj fld =
  match Hashtbl.find_opt st.fields (obj, fld) with
  | Some s -> s
  | None -> ObjSet.empty

let add_var st slot objs =
  let cur = st.pts.(slot) in
  if not (ObjSet.subset objs cur) then begin
    st.pts.(slot) <- ObjSet.union cur objs;
    st.clock <- st.clock + 1;
    st.stamp.(slot) <- st.clock
  end

let add_field st obj fld objs =
  let cur = pts_field st obj fld in
  if not (ObjSet.subset objs cur) then begin
    Hashtbl.replace st.fields (obj, fld) (ObjSet.union cur objs);
    st.clock <- st.clock + 1;
    st.fields_stamp <- st.clock
  end

(* Materialise a primitive object for a field that nothing ever stores
   into: mutex / waitgroup fields, the synthetic $done channel of a
   context, channels embedded in externally-created structs. *)
let ensure_field st obj fld =
  if ObjSet.is_empty (pts_field st obj fld) then
    add_field st obj fld (ObjSet.singleton (Aprim (obj, fld)))

(* Objects the field place [slot.fld] may denote, materialising
   never-stored fields on the way. *)
let pts_field_place st slot fld =
  ObjSet.fold
    (fun obj acc ->
      ensure_field st obj fld;
      ObjSet.union acc (pts_field st obj fld))
    st.pts.(slot) ObjSet.empty

(* Operands and places of the function whose slots start at [b]. *)
let pts_operand st b = function
  | Xnone -> ObjSet.empty
  | Xvar v -> st.pts.(b + v)
  | Xfunc g -> ObjSet.singleton (Afunc g)
  | Xfield (v, fld) ->
      ObjSet.fold
        (fun obj acc -> ObjSet.union acc (pts_field st obj fld))
        st.pts.(b + v) ObjSet.empty

let pts_place st b = function
  | Lvar v -> st.pts.(b + v)
  | Lfield (v, fld) -> pts_field_place st (b + v) fld

(* The skip rule.  A fact re-runs only when one of its inputs changed
   since it last started, at clock [t] (-1 before its first run): the
   slots it reads, and the field table when it reads a field.  Skipping
   is exact: with its inputs as they were, the fact would add what it
   added last time, and every set only grows, so it would change
   nothing — every round ends in the state a full round would leave,
   and [ensure_field] sees the same first touches. *)
let var_changed st b t v = st.stamp.(b + v) > t

let operand_changed st b t = function
  | Xnone | Xfunc _ -> false
  | Xvar v -> var_changed st b t v
  | Xfield (v, _) -> var_changed st b t v || st.fields_stamp > t

let place_changed st b t = function
  | Lvar v -> var_changed st b t v
  | Lfield (v, _) -> var_changed st b t v || st.fields_stamp > t

(* A call from function [caller] to function [callee]: each argument
   flows into its parameter, then every returned operand into its
   result variable (pairs up to the shorter list).  Written as plain
   recursions: the solver runs them for every call, every round. *)
let rec args_changed st fb t params args =
  match (params, args) with
  | _ :: params, a :: args ->
      operand_changed st fb t a || args_changed st fb t params args
  | _ -> false

let rec rets_changed st cb t rets os =
  match (rets, os) with
  | _ :: rets, o :: os -> operand_changed st cb t o || rets_changed st cb t rets os
  | _ -> false

let rec returns_changed st cb t rets = function
  | [] -> false
  | os :: returns ->
      rets_changed st cb t rets os || returns_changed st cb t rets returns

let call_changed st t caller callee args rets =
  let fb = st.base.(caller) and cb = st.base.(callee) in
  let cs = st.funcs.(callee) in
  args_changed st fb t cs.fs_params args
  || (rets <> [] && returns_changed st cb t rets cs.fs_returns)

let rec flow_args st fb cb params args =
  match (params, args) with
  | (v, _) :: params, a :: args ->
      add_var st (cb + v) (pts_operand st fb a);
      flow_args st fb cb params args
  | _ -> ()

let rec flow_rets st fb cb rets os =
  match (rets, os) with
  | r :: rets, o :: os ->
      add_var st (fb + r) (pts_operand st cb o);
      flow_rets st fb cb rets os
  | _ -> ()

let link_call st caller callee args rets =
  let fb = st.base.(caller) and cb = st.base.(callee) in
  let cs = st.funcs.(callee) in
  flow_args st fb cb cs.fs_params args;
  if rets <> [] then List.iter (flow_rets st fb cb rets) cs.fs_returns

let callee_candidates st b fv =
  ObjSet.fold
    (fun o acc ->
      match o with
      | Afunc g -> (
          match Hashtbl.find_opt st.index g with
          | Some i -> i :: acc
          | None -> acc)
      | _ -> acc)
    st.pts.(b + fv) []

(* Should fact [fact] of function [i], last started at [t], run?
   [callee] is its resolved callee (-1: none in the program). *)
let needs_run st i t callee (fact : fact) =
  let b = st.base.(i) in
  t < 0
  || t < st.clock
     &&
     match fact with
     | Fmake_chan _ | Fmake_struct _ -> false
     | Fassign (_, o) -> operand_changed st b t o
     | Ffield_load (_, v, _) | Ftouch (v, _) ->
         var_changed st b t v || st.fields_stamp > t
     | Ffield_store (v, _, o) -> var_changed st b t v || operand_changed st b t o
     | Fsend (p, o) -> place_changed st b t p || operand_changed st b t o
     | Frecv (_, p) -> place_changed st b t p || st.fields_stamp > t
     | Fcall (rets, _, args) ->
         callee >= 0 && call_changed st t i callee args rets
     | Fgo (_, args) -> callee >= 0 && call_changed st t i callee args []
     | Fcall_indirect _ ->
         (* its inputs include its callees' returned operands, and its
            callees change with the points-to set: re-run it whenever
            anything changed *)
         true

let run_fact st i callee (fact : fact) =
  let s = st.funcs.(i) and b = st.base.(i) in
  match fact with
  | Fmake_chan (v, pp, _, _) ->
      add_var st (b + v) (ObjSet.singleton (Achan (s.fs_pp_base + pp)))
  | Fmake_struct (v, pp) ->
      add_var st (b + v) (ObjSet.singleton (Astruct (s.fs_pp_base + pp)))
  | Fassign (v, o) -> add_var st (b + v) (pts_operand st b o)
  | Ffield_load (v, base, fld) ->
      ObjSet.iter
        (fun obj ->
          ensure_field st obj fld;
          add_var st (b + v) (pts_field st obj fld))
        st.pts.(b + base)
  | Ffield_store (base, fld, o) ->
      ObjSet.iter
        (fun obj -> add_field st obj fld (pts_operand st b o))
        st.pts.(b + base)
  | Fsend (p, o) ->
      (* sending a pointer-ish value through a channel transfers it to
         every receive bound to an aliased channel.  The paper notes its
         alias package cannot do this (17 FPs); we model the channel's
         payload as field $elem of the channel object, giving GCatch
         strictly better alias precision than the original
         implementation had. *)
      ObjSet.iter
        (fun obj -> add_field st obj "$elem" (pts_operand st b o))
        (pts_place st b p)
  | Frecv (v, p) ->
      ObjSet.iter
        (fun obj -> add_var st (b + v) (pts_field st obj "$elem"))
        (pts_place st b p)
  | Ftouch (v, fld) -> ignore (pts_field_place st (b + v) fld)
  | Fcall (rets, _, args) -> if callee >= 0 then link_call st i callee args rets
  | Fgo (_, args) -> if callee >= 0 then link_call st i callee args []
  | Fcall_indirect (rets, fv, args) ->
      List.iter
        (fun g -> link_call st i g args rets)
        (callee_candidates st b fv)

(* The sequential global fixpoint over per-function summaries, visited
   in name order ([Ir.funcs_list] order; summaries handed over in any
   other order are sorted first).  A name summarised twice (declared in
   two files) keeps its last summary, as assembly keeps the last
   declaration.  The program itself is not read: the summaries carry
   every function's name, variables, parameters and facts. *)
let solve (_ : Ir.program) (summaries : func_summary list) : t =
  let funcs =
    Array.of_list (Ir.in_func_order (fun s -> s.fs_name) summaries)
  in
  let nf = Array.length funcs in
  let index = Hashtbl.create (2 * nf + 1) in
  Array.iteri (fun i s -> Hashtbl.replace index s.fs_name i) funcs;
  let base = Array.make (nf + 1) 0 and nfacts = ref 0 in
  Array.iteri
    (fun i s ->
      base.(i + 1) <- base.(i) + Array.length s.fs_vars;
      nfacts := !nfacts + List.length s.fs_facts)
    funcs;
  let st =
    {
      funcs;
      index;
      base;
      pts = Array.make base.(nf) ObjSet.empty;
      fields = Hashtbl.create 64;
      chan_cap = Hashtbl.create 16;
      chan_loc = Hashtbl.create 16;
      stamp = Array.make base.(nf) 0;
      fields_stamp = 0;
      clock = 0;
    }
  in
  (* per fact, in visit order: its resolved callee and the clock when it
     last started *)
  let callee = Array.make !nfacts (-1) and last = Array.make !nfacts (-1) in
  let called = Array.make nf false in
  let k = ref 0 in
  Array.iter
    (fun s ->
      List.iter
        (fun (fact : fact) ->
          (match fact with
          | Fcall (_, g, _) | Fgo (g, _) -> (
              match Hashtbl.find_opt index g with
              | Some c ->
                  callee.(!k) <- c;
                  called.(c) <- true
              | None -> ())
          | Fmake_chan (_, pp, cap, loc) ->
              Hashtbl.replace st.chan_cap (s.fs_pp_base + pp) cap;
              Hashtbl.replace st.chan_loc (s.fs_pp_base + pp) loc
          | _ -> ());
          incr k)
        s.fs_facts)
    funcs;
  (* external objects for the parameters of functions nobody calls
     inside the program (entry points / exported library functions) *)
  Array.iteri
    (fun i s ->
      if not called.(i) then
        List.iter
          (fun (v, ty) ->
            if is_pointerish ty then
              add_var st (base.(i) + v)
                (ObjSet.singleton (Aext (s.fs_name, s.fs_vars.(v)))))
          s.fs_params)
    funcs;
  let rec visit i k = function
    | [] -> k
    | fact :: facts ->
        if needs_run st i last.(k) callee.(k) fact then begin
          last.(k) <- st.clock;
          run_fact st i callee.(k) fact
        end;
        visit i (k + 1) facts
  in
  let rounds = ref 0 and changed = ref true in
  while !changed && !rounds < 100 do
    incr rounds;
    let before = st.clock in
    let k = ref 0 in
    for i = 0 to nf - 1 do
      k := visit i !k funcs.(i).fs_facts
    done;
    changed := st.clock > before
  done;
  (* Warm every field place the program can ever query: a field place
     materialises primitive objects for never-stored fields on first
     lookup ([ensure_field]), and detectors query places from several
     domains at once — after this pass those queries are read-only. *)
  Array.iteri
    (fun i s ->
      List.iter
        (fun (v, fld) -> ignore (pts_field_place st (base.(i) + v) fld))
        s.fs_warm)
    funcs;
  st

let analyse (prog : Ir.program) : t =
  solve prog (List.map extract_func (Ir.funcs_list prog))

(* ------------------------------------------------------------ queries *)

(* The slot of variable [v] of function [f]: the function by name, the
   variable by binary search in its numbers sorted by name. *)
let slot st f v =
  match Hashtbl.find_opt st.index f with
  | None -> None
  | Some i ->
      let s = st.funcs.(i) in
      let rec find lo hi =
        if lo >= hi then None
        else
          let mid = (lo + hi) / 2 in
          let k = s.fs_by_name.(mid) in
          let c = String.compare v s.fs_vars.(k) in
          if c = 0 then Some (st.base.(i) + k)
          else if c < 0 then find lo mid
          else find (mid + 1) hi
      in
      find 0 (Array.length s.fs_vars)

let pts_var st f v =
  match slot st f v with Some s -> st.pts.(s) | None -> ObjSet.empty

(* Objects a place may denote. *)
let objects_of_place st fname (p : Ir.place) : ObjSet.t =
  match (p, slot st fname (match p with Pvar v | Pfield (v, _) -> v)) with
  | _, None -> ObjSet.empty
  | Pvar _, Some s -> st.pts.(s)
  | Pfield (_, fld), Some s -> pts_field_place st s fld

(* All channel-like objects a place may denote. *)
let channels_of_place st fname p =
  ObjSet.filter
    (function Achan _ | Aprim _ | Aext _ -> true | _ -> false)
    (objects_of_place st fname p)

(* Static capacity of a channel object, when known. *)
let capacity st = function
  | Achan pp -> ( match Hashtbl.find_opt st.chan_cap pp with Some c -> c | None -> None)
  | Aprim _ | Aext _ -> None (* externally created: capacity unknown *)
  | _ -> None

let creation_loc st = function
  | Achan pp -> Hashtbl.find_opt st.chan_loc pp
  | _ -> None

(* Do two places possibly alias (share an object)? *)
let may_alias st f1 p1 f2 p2 =
  not
    (ObjSet.is_empty
       (ObjSet.inter (objects_of_place st f1 p1) (objects_of_place st f2 p2)))
