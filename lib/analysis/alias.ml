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

type t = {
  pts : (string * string, ObjSet.t) Hashtbl.t; (* (func, var) -> objects *)
  fields : (obj * string, ObjSet.t) Hashtbl.t;
  mutable changed : bool;
  chan_elem : (Ir.pp, Minigo.Ast.typ) Hashtbl.t;
  chan_cap : (Ir.pp, int option) Hashtbl.t;
  chan_loc : (Ir.pp, Minigo.Loc.t) Hashtbl.t;
}

let get tbl key =
  match Hashtbl.find_opt tbl key with Some s -> s | None -> ObjSet.empty

let add_to st tbl key objs =
  let cur = get tbl key in
  let next = ObjSet.union cur objs in
  if not (ObjSet.equal cur next) then begin
    Hashtbl.replace tbl key next;
    st.changed <- true
  end

let pts_var st f v = get st.pts (f, v)
let pts_field st obj fld = get st.fields (obj, fld)

(* Materialise a primitive object for a field that nothing ever stores
   into: mutex / waitgroup fields, the synthetic $done channel of a
   context, channels embedded in externally-created structs. *)
let ensure_field st obj fld =
  let cur = get st.fields (obj, fld) in
  if ObjSet.is_empty cur then
    add_to st st.fields (obj, fld) (ObjSet.singleton (Aprim (obj, fld)))

let pts_operand st fname (o : Ir.operand) : ObjSet.t =
  match o with
  | Ovar v -> pts_var st fname v
  | Oconst_func f -> ObjSet.singleton (Afunc f)
  | Oplace (Pvar v) -> pts_var st fname v
  | Oplace (Pfield (v, fld)) ->
      ObjSet.fold
        (fun obj acc -> ObjSet.union acc (pts_field st obj fld))
        (pts_var st fname v) ObjSet.empty
  | Oconst_int _ | Oconst_bool _ | Oconst_str _ | Onil -> ObjSet.empty

(* Objects a place may denote. *)
let pts_place st fname (p : Ir.place) : ObjSet.t =
  match p with
  | Pvar v -> pts_var st fname v
  | Pfield (v, fld) ->
      ObjSet.fold
        (fun obj acc ->
          ensure_field st obj fld;
          ObjSet.union acc (pts_field st obj fld))
        (pts_var st fname v) ObjSet.empty

let is_pointerish (t : Minigo.Ast.typ) =
  match t with
  | Tchan _ | Tmutex | Twaitgroup | Tcond | Tstruct _ | Tcontext | Tfunc _ | Tany
    ->
      true
  | Tint | Tbool | Tstring | Tunit | Ttesting | Terror -> false

let callee_candidates st fname (fv : Ir.var) =
  ObjSet.fold
    (fun o acc -> match o with Afunc g -> g :: acc | _ -> acc)
    (pts_var st fname fv) []

(* ------------------------------------------- per-function summaries --- *)

(* The analysis is split into a per-function fact-extraction pass (pure,
   cacheable per file, parallelisable) and a sequential global fixpoint
   over the extracted summaries.  A summary records, in the exact order
   the old monolithic pass visited them, every instruction the solver
   interprets — order matters because [ensure_field] materialises a
   primitive object only for fields that are still empty when first
   touched, so the visit order is part of the observable result.

   Summaries extracted from file-local IR carry file-local program
   points; [rebase_summary] shifts them by the file's assembly offset
   (only the two creation-site facts embed a point). *)

type fact =
  | Fmake_chan of Ir.var * Ir.pp * Minigo.Ast.typ * int option * Minigo.Loc.t
  | Fmake_struct of Ir.var * Ir.pp
  | Fassign of Ir.var * Ir.operand
  | Ffield_load of Ir.var * Ir.var * string
  | Ffield_store of Ir.var * string * Ir.operand
  | Fsend of Ir.place * Ir.operand
  | Frecv of Ir.var * Ir.place
  | Ftouch of Ir.place
      (* a place the old pass looked up for its side effect only
         (a select receive that binds nothing): [pts_place] may
         materialise a primitive field object *)
  | Fcall of Ir.var list * string * Ir.operand list
  | Fcall_indirect of Ir.var list * Ir.var * Ir.operand list
  | Fgo of string * Ir.operand list

type func_summary = {
  fs_name : string;
  fs_params : (Ir.var * Minigo.Ast.typ) list;
  fs_returns : Ir.operand list list; (* one per Treturn, in block order *)
  fs_facts : fact list;
  fs_warm : Ir.place list; (* places the post-fixpoint warm pass touches *)
}

(* Constant operands denote no object ([pts_operand] maps them to the
   empty set), so extraction writes every one as [Onil]: a literal edit
   then leaves the function's summary unchanged, which is what lets the
   engine keep a program's alias facts across such an edit. *)
let canon (o : Ir.operand) : Ir.operand =
  match o with
  | Oconst_int _ | Oconst_bool _ | Oconst_str _ -> Onil
  | Oconst_func _ | Onil | Ovar _ | Oplace _ -> o

let extract_func (f : Ir.func) : func_summary =
  let facts = ref [] in
  let warm = ref [] in
  let push x = facts := x :: !facts in
  let wplace p = warm := p :: !warm in
  let woperand = function Ir.Oplace p -> wplace p | _ -> () in
  Ir.iter_insts
    (fun (i : Ir.inst) ->
      (match i.idesc with
      | Imake_chan (v, elem, cap) ->
          push (Fmake_chan (v, i.ipp, elem, cap, i.iloc))
      | Imake_struct (v, _) -> push (Fmake_struct (v, i.ipp))
      | Iassign (v, o) -> push (Fassign (v, canon o))
      | Ifield_load (v, b, fld) -> push (Ffield_load (v, b, fld))
      | Ifield_store (b, fld, o) -> push (Ffield_store (b, fld, canon o))
      | Isend (p, o) -> push (Fsend (p, canon o))
      | Irecv (Some v, p, _) -> push (Frecv (v, p))
      | Irecv (None, _, _) | Iclose _ | Ilock _ | Iunlock _ -> ()
      | Iwg_add _ | Iwg_done _ | Iwg_wait _ -> ()
      | Icall (rets, g, args) -> push (Fcall (rets, g, List.map canon args))
      | Icall_indirect (rets, fv, args) ->
          push (Fcall_indirect (rets, fv, List.map canon args))
      | Igo (g, args) -> push (Fgo (g, List.map canon args))
      | Itesting_fatal _ | Ibinop _ | Iunop _ | Isleep _ | Iprint _ | Inop _ ->
          ());
      match i.idesc with
      | Isend (p, o) ->
          wplace p;
          woperand o
      | Irecv (_, p, _) | Iclose p | Ilock p | Iunlock p | Iwg_done p
      | Iwg_wait p ->
          wplace p
      | Iwg_add (p, o) ->
          wplace p;
          woperand o
      | Icall (_, _, os) | Icall_indirect (_, _, os) | Igo (_, os)
      | Iprint os ->
          List.iter woperand os
      | Iassign (_, o) | Ifield_store (_, _, o) | Iunop (_, _, o) | Isleep o
        ->
          woperand o
      | Ibinop (_, _, o1, o2) ->
          woperand o1;
          woperand o2
      | Imake_chan _ | Imake_struct _ | Itesting_fatal _ | Ifield_load _
      | Inop _ ->
          ())
    f;
  (* select arms access places too *)
  Array.iter
    (fun (b : Ir.block) ->
      match b.term with
      | Tselect (arms, _, _) ->
          List.iter
            (fun (a : Ir.select_arm) ->
              (match a.arm_op with
              | Arm_recv (p, Some v) -> push (Frecv (v, p))
              | Arm_recv (p, None) -> push (Ftouch p)
              | Arm_send (p, o) -> push (Fsend (p, canon o)));
              match a.arm_op with
              | Arm_recv (p, _) -> wplace p
              | Arm_send (p, o) ->
                  wplace p;
                  woperand o)
            arms
      | _ -> ())
    f.blocks;
  let returns =
    List.rev
      (Array.fold_left
         (fun acc (b : Ir.block) ->
           match b.term with Treturn os -> List.map canon os :: acc | _ -> acc)
         [] f.blocks)
  in
  {
    fs_name = f.name;
    fs_params = f.params;
    fs_returns = returns;
    fs_facts = List.rev !facts;
    fs_warm = List.rev !warm;
  }

let rebase_fact off (fact : fact) : fact =
  match fact with
  | Fmake_chan (v, pp, elem, cap, loc) ->
      Fmake_chan (v, pp + off, elem, cap, loc)
  | Fmake_struct (v, pp) -> Fmake_struct (v, pp + off)
  | Fassign _ | Ffield_load _ | Ffield_store _ | Fsend _ | Frecv _ | Ftouch _
  | Fcall _ | Fcall_indirect _ | Fgo _ ->
      fact

let rebase_summary off (s : func_summary) : func_summary =
  if off = 0 then s
  else { s with fs_facts = List.map (rebase_fact off) s.fs_facts }

(* Seed external objects for parameters of functions nobody calls inside
   the program (entry points / exported library functions), in name
   order.  A name summarised twice (declared in two files) seeds from
   the summary [by_name] holds, the function assembly keeps. *)
let seed_entry_params st called by_name (summaries : func_summary list) =
  List.iter
    (fun s ->
      if
        (not (Hashtbl.mem called s.fs_name))
        && Hashtbl.find by_name s.fs_name == s
      then
        List.iter
          (fun (v, ty) ->
            if is_pointerish ty then
              add_to st st.pts (s.fs_name, v)
                (ObjSet.singleton (Aext (s.fs_name, v))))
          s.fs_params)
    summaries

(* One propagation pass over every summary. *)
let propagate st by_name (summaries : func_summary list) =
  let link_call st caller (callee : func_summary) args rets =
    (* arguments flow into parameters *)
    List.iteri
      (fun i (pv, _) ->
        match List.nth_opt args i with
        | Some a ->
            add_to st st.pts (callee.fs_name, pv) (pts_operand st caller a)
        | None -> ())
      callee.fs_params;
    (* returned operands flow into result variables *)
    List.iter
      (fun os ->
        List.iteri
          (fun i r ->
            match List.nth_opt os i with
            | Some o ->
                add_to st st.pts (caller, r) (pts_operand st callee.fs_name o)
            | None -> ())
          rets)
      callee.fs_returns
  in
  List.iter
    (fun s ->
      let fname = s.fs_name in
      List.iter
        (fun fact ->
          match fact with
          | Fmake_chan (v, pp, elem, cap, loc) ->
              Hashtbl.replace st.chan_elem pp elem;
              Hashtbl.replace st.chan_cap pp cap;
              Hashtbl.replace st.chan_loc pp loc;
              add_to st st.pts (fname, v) (ObjSet.singleton (Achan pp))
          | Fmake_struct (v, pp) ->
              add_to st st.pts (fname, v) (ObjSet.singleton (Astruct pp))
          | Fassign (v, o) ->
              add_to st st.pts (fname, v) (pts_operand st fname o)
          | Ffield_load (v, b, fld) ->
              ObjSet.iter
                (fun obj ->
                  ensure_field st obj fld;
                  add_to st st.pts (fname, v) (pts_field st obj fld))
                (pts_var st fname b)
          | Ffield_store (b, fld, o) ->
              ObjSet.iter
                (fun obj ->
                  add_to st st.fields (obj, fld) (pts_operand st fname o))
                (pts_var st fname b)
          | Fsend (p, o) ->
              (* sending a pointer-ish value through a channel transfers
                 it to every receive bound to an aliased channel.  The
                 paper notes its alias package cannot do this (17 FPs);
                 we model the channel's payload as field $elem of the
                 channel object, giving GCatch strictly better alias
                 precision than the original implementation had. *)
              ObjSet.iter
                (fun obj ->
                  add_to st st.fields (obj, "$elem") (pts_operand st fname o))
                (pts_place st fname p)
          | Frecv (v, p) ->
              ObjSet.iter
                (fun obj ->
                  add_to st st.pts (fname, v) (pts_field st obj "$elem"))
                (pts_place st fname p)
          | Ftouch p -> ignore (pts_place st fname p)
          | Fcall (rets, g, args) -> (
              match Hashtbl.find_opt by_name g with
              | Some callee -> link_call st fname callee args rets
              | None -> ())
          | Fcall_indirect (rets, fv, args) ->
              List.iter
                (fun g ->
                  match Hashtbl.find_opt by_name g with
                  | Some callee -> link_call st fname callee args rets
                  | None -> ())
                (callee_candidates st fname fv)
          | Fgo (g, args) -> (
              match Hashtbl.find_opt by_name g with
              | Some callee -> link_call st fname callee args []
              | None -> ()))
        s.fs_facts)
    summaries

(* The sequential global fixpoint over per-function summaries.  The
   summary list is re-sorted by function name so the solve visits
   functions in exactly the order the whole-program pass does
   ([Ir.funcs_list] is the name-sorted order fixed at assembly) —
   per-file callers can hand the summaries over in any order.  The
   program itself is not read: the summaries carry every function's
   name, parameters and facts, and the result holds no IR. *)
let solve (_ : Ir.program) (summaries : func_summary list) : t =
  let summaries =
    List.sort (fun a b -> String.compare a.fs_name b.fs_name) summaries
  in
  let by_name = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_name s.fs_name s) summaries;
  let st =
    {
      pts = Hashtbl.create 64;
      fields = Hashtbl.create 64;
      changed = true;
      chan_elem = Hashtbl.create 16;
      chan_cap = Hashtbl.create 16;
      chan_loc = Hashtbl.create 16;
    }
  in
  (* functions that are called (directly or spawned) somewhere *)
  let called = Hashtbl.create 16 in
  List.iter
    (fun s ->
      List.iter
        (fun fact ->
          match fact with
          | Fcall (_, g, _) | Fgo (g, _) -> Hashtbl.replace called g ()
          | _ -> ())
        s.fs_facts)
    summaries;
  seed_entry_params st called by_name summaries;
  let rounds = ref 0 in
  while st.changed && !rounds < 100 do
    st.changed <- false;
    incr rounds;
    propagate st by_name summaries
  done;
  (* Warm every field place the program can ever query: [pts_place]
     materialises primitive objects for never-stored fields on first
     lookup ([ensure_field]), and detectors query places from several
     domains at once — after this pass those queries are read-only. *)
  List.iter
    (fun s ->
      List.iter (fun p -> ignore (pts_place st s.fs_name p)) s.fs_warm)
    summaries;
  st

let analyse (prog : Ir.program) : t =
  solve prog (List.map extract_func (Ir.funcs_list prog))

(* ------------------------------------------------------------ queries *)

(* All channel-like objects a place may denote. *)
let channels_of_place st fname p =
  ObjSet.filter
    (function Achan _ | Aprim _ | Aext _ -> true | _ -> false)
    (pts_place st fname p)

let objects_of_place = pts_place

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
  not (ObjSet.is_empty (ObjSet.inter (pts_place st f1 p1) (pts_place st f2 p2)))

let all_channel_objects st =
  let acc = ref ObjSet.empty in
  Hashtbl.iter
    (fun _ s ->
      ObjSet.iter
        (fun o -> match o with Achan _ -> acc := ObjSet.add o !acc | _ -> ())
        s)
    st.pts;
  !acc
