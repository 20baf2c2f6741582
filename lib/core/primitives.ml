module Ir = Goir.Ir
module Alias = Goanalysis.Alias
module Callgraph = Goanalysis.Callgraph
module Syncops = Goanalysis.Syncops

(* Primitive and operation discovery (Algorithm 1, lines 2–5).

   GCatch identifies every synchronization primitive by its static
   creation site and uses alias analysis to map each sync operation to the
   primitives it may touch.  The result is the [op_map]: for each abstract
   object, every operation performed on it anywhere in the program. *)

type op = {
  o_obj : Alias.obj;
  o_func : string;       (* function containing the operation *)
  o_pp : Ir.pp;
  o_loc : Minigo.Loc.t;
  o_kind : Report.op_kind;
  o_deferred : bool;
  o_select_arm : int option; (* arm index when the op lives in a select *)
}

type prim_kind = Pchan | Pmutex | Pwaitgroup

type t = {
  ops : (Alias.obj, op list) Hashtbl.t;
  kinds : (Alias.obj, prim_kind) Hashtbl.t;
  alias : Alias.t;
}

let add_op t (o : op) =
  let cur = Option.value (Hashtbl.find_opt t.ops o.o_obj) ~default:[] in
  Hashtbl.replace t.ops o.o_obj (o :: cur)

let note_kind t obj kind =
  if not (Hashtbl.mem t.kinds obj) then Hashtbl.replace t.kinds obj kind

(* Objects a place may refer to, from the alias analysis. *)
let objs t fname place = Alias.ObjSet.elements (Alias.objects_of_place t.alias fname place)

let kinds_of : Syncops.kind -> Report.op_kind * prim_kind = function
  | Send -> (Report.Ksend, Pchan)
  | Recv -> (Report.Krecv, Pchan)
  | Close -> (Report.Kclose, Pchan)
  | Lock -> (Report.Klock, Pmutex)
  | Unlock -> (Report.Kunlock, Pmutex)
  | Wg_add -> (Report.Kwg_add, Pwaitgroup)
  | Wg_done -> (Report.Kwg_done, Pwaitgroup)
  | Wg_wait -> (Report.Kwg_wait, Pwaitgroup)

(* The map from per-function sync facts (one entry per program
   function, in any order).  Functions are visited in name order, the
   [Ir.funcs_list] order ({!Ir.in_func_order}: no sort when the entries
   already come in it); a name listed twice (declared in two files)
   keeps its last entry, as assembly keeps the last declaration. *)
let of_ops (alias : Alias.t) (funcs : Syncops.func_ops list) : t =
  let t = { ops = Hashtbl.create 64; kinds = Hashtbl.create 64; alias } in
  List.iter
    (fun (fo : Syncops.func_ops) ->
      List.iter
        (fun (s : Syncops.op) ->
          let kind, prim_kind = kinds_of s.s_kind in
          List.iter
            (fun obj ->
              note_kind t obj prim_kind;
              add_op t
                {
                  o_obj = obj;
                  o_func = fo.so_name;
                  o_pp = fo.so_pp_base + s.s_pp;
                  o_loc = s.s_loc;
                  o_kind = kind;
                  o_deferred = s.s_deferred;
                  o_select_arm = s.s_arm;
                })
            (objs t fo.so_name s.s_place))
        fo.so_ops)
    (Ir.in_func_order (fun (fo : Syncops.func_ops) -> fo.so_name) funcs);
  t

let collect (prog : Ir.program) (alias : Alias.t) : t =
  of_ops alias (List.map Syncops.extract_func (Ir.funcs_list prog))

let ops_of t obj = Option.value (Hashtbl.find_opt t.ops obj) ~default:[]

let kind_of t obj = Hashtbl.find_opt t.kinds obj

(* All channel objects with at least one operation, created inside the
   program (the detectors iterate these; externally-created channels are
   examined when their owner is analysed, per §3.2's scope rule). *)
let channels t =
  Hashtbl.fold
    (fun obj kind acc -> if kind = Pchan then obj :: acc else acc)
    t.kinds []
  |> List.sort compare

let mutexes t =
  Hashtbl.fold
    (fun obj kind acc -> if kind = Pmutex then obj :: acc else acc)
    t.kinds []
  |> List.sort compare

(* Functions whose bodies contain at least one operation on [obj]. *)
let funcs_using t obj =
  List.sort_uniq String.compare (List.map (fun o -> o.o_func) (ops_of t obj))

(* Static buffer size of a channel object, if known (BS in the constraint
   system; mutexes are modelled as channels with BS = 1, §3.4). *)
let buffer_size t obj =
  match kind_of t obj with
  | Some Pmutex -> Some 1
  | Some Pwaitgroup -> None
  | _ -> Alias.capacity t.alias obj
