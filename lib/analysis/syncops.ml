module Ir = Goir.Ir

(* Per-function synchronisation facts: every operation a function
   performs on a place that may hold a primitive, in the order the
   primitive map visits them (instructions in block order, then select
   arms in block order).

   These, with the alias summaries and call sites, are the per-file facts
   the whole-program analyses are derived from.  The primitive map reads
   nothing else of the IR, so two programs whose sync facts and alias
   facts are equal have equal primitive maps.  Like the other per-file
   facts they are extracted with file-local program points and rebased
   by the file's assembly offset, which [so_pp_base] carries. *)

type kind = Send | Recv | Close | Lock | Unlock | Wg_add | Wg_done | Wg_wait

type op = {
  s_kind : kind;
  s_place : Ir.place;
  s_pp : Ir.pp; (* the select's own point for a select arm *)
  s_loc : Minigo.Loc.t;
  s_deferred : bool;
  s_arm : int option; (* arm index when the op is a select arm *)
}

type func_ops = {
  so_name : string;
  so_ops : op list;
  so_pp_base : int; (* added to the operations' program points *)
}

let extract_func (f : Ir.func) : func_ops =
  let ops = ref [] in
  let push kind place ~pp ~loc ~deferred ~arm =
    ops :=
      {
        s_kind = kind;
        s_place = place;
        s_pp = pp;
        s_loc = loc;
        s_deferred = deferred;
        s_arm = arm;
      }
      :: !ops
  in
  Ir.iter_insts
    (fun (i : Ir.inst) ->
      let op kind p =
        push kind p ~pp:i.ipp ~loc:i.iloc ~deferred:i.ideferred ~arm:None
      in
      match i.idesc with
      | Isend (p, _) -> op Send p
      | Irecv (_, p, _) -> op Recv p
      | Iclose p -> op Close p
      | Ilock p -> op Lock p
      | Iunlock p -> op Unlock p
      | Iwg_add (p, _) -> op Wg_add p
      | Iwg_done p -> op Wg_done p
      | Iwg_wait p -> op Wg_wait p
      | _ -> ())
    f;
  Array.iter
    (fun (b : Ir.block) ->
      match b.term with
      | Tselect (arms, _, sel_pp) ->
          List.iteri
            (fun idx (a : Ir.select_arm) ->
              let kind, p =
                match a.arm_op with
                | Arm_recv (p, _) -> (Recv, p)
                | Arm_send (p, _) -> (Send, p)
              in
              push kind p ~pp:sel_pp ~loc:b.term_loc ~deferred:false
                ~arm:(Some idx))
            arms
      | _ -> ())
    f.blocks;
  { so_name = f.name; so_ops = List.rev !ops; so_pp_base = 0 }

let rebase off (fo : func_ops) : func_ops =
  if off = 0 || fo.so_ops = [] then fo
  else { fo with so_pp_base = fo.so_pp_base + off }
