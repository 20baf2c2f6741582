(* Intermediate representation of MiniGo programs.

   Lowering (see {!Lower}) turns every function — including lifted
   goroutine and function literals — into a control-flow graph of basic
   blocks.  Each instruction carries a unique program point [pp] so that
   detectors, constraints, and patches can all refer to "the send at
   pp 17" the way the paper refers to "the sending operation at line 7".

   Synchronization operations are first-class instructions rather than
   calls, which is the property the whole GCatch pipeline relies on. *)

type pp = int
(** Program point: globally unique per lowered program. *)

type var = string
(** Alpha-renamed local variable name, unique within a function. *)

(* A reference to a primitive (channel / mutex / waitgroup) as written in
   the source: either a local variable or a field of a struct held in a
   local variable. *)
type place =
  | Pvar of var
  | Pfield of var * string

type operand =
  | Oconst_int of int
  | Oconst_bool of bool
  | Oconst_str of string
  | Oconst_func of string (* name of a lifted function literal *)
  | Onil
  | Ovar of var
  | Oplace of place

(* Conditions preserved for path-feasibility filtering (paper §3.3): only
   conditions over read-only variables and constants are interpreted. *)
type cond =
  | Cvar of var                     (* boolean variable *)
  | Cnot of cond
  | Ccmp of Minigo.Ast.binop * operand * operand
  | Copaque of pp                   (* anything we do not interpret *)

type select_arm = {
  arm_op : arm_op;
  arm_target : int; (* block id *)
}

and arm_op =
  | Arm_recv of place * var option  (* channel, bound variable *)
  | Arm_send of place * operand

type inst = {
  ipp : pp;
  iloc : Minigo.Loc.t;
  idesc : inst_desc;
  ideferred : bool; (* materialised from a [defer] statement *)
}

and inst_desc =
  | Imake_chan of var * Minigo.Ast.typ * int option
      (* dst, element type, static capacity (None = not statically known;
         Some 0 = unbuffered) *)
  | Imake_struct of var * string
  | Isend of place * operand
  | Irecv of var option * place * bool (* bound var, channel, is_range *)
  | Iclose of place
  | Ilock of place
  | Iunlock of place
  | Iwg_add of place * operand
  | Iwg_done of place
  | Iwg_wait of place
  | Icall of var list * string * operand list       (* direct call *)
  | Icall_indirect of var list * var * operand list (* via function value *)
  | Igo of string * operand list                    (* spawn lowered function *)
  | Itesting_fatal of string                        (* t.Fatal/Fatalf/FailNow *)
  | Iassign of var * operand
  | Ifield_load of var * var * string
  | Ifield_store of var * string * operand
  | Ibinop of var * Minigo.Ast.binop * operand * operand
  | Iunop of var * Minigo.Ast.unop * operand
  | Isleep of operand
  | Iprint of operand list
  | Inop of string                                  (* annotation / debug *)

type terminator =
  | Tjump of int
  | Tbranch of cond * int * int       (* cond, then-block, else-block *)
  | Tselect of select_arm list * int option * pp
      (* arms, default target, pp of the select itself *)
  | Treturn of operand list
  | Tpanic
  | Texit                             (* goroutine exits (Fatal / Goexit) *)
  | Tunreachable

type block = {
  bid : int;
  mutable insts : inst list;
  mutable term : terminator;
  mutable term_loc : Minigo.Loc.t;
}

type func = {
  name : string;
  params : (var * Minigo.Ast.typ) list;
  result_types : Minigo.Ast.typ list;
  blocks : block array;
  entry : int;
  is_goroutine_body : bool;  (* lifted from a goroutine literal *)
  parent : string option;    (* lexical parent when lifted *)
  floc : Minigo.Loc.t;
  var_types : (var, Minigo.Ast.typ) Hashtbl.t;
}

type program = {
  funcs : (string, func) Hashtbl.t;
  order : func list; (* every function of [funcs], sorted by name *)
  main : string option;
  source : Minigo.Ast.program;
}

(* ----------------------------------------------------------- helpers *)

let successors (b : block) : int list =
  match b.term with
  | Tjump t -> [ t ]
  | Tbranch (_, a, c) -> [ a; c ]
  | Tselect (arms, dflt, _) ->
      let ts = List.map (fun a -> a.arm_target) arms in
      (match dflt with Some d -> d :: ts | None -> ts)
  | Treturn _ | Tpanic | Texit | Tunreachable -> []

let block f i = f.blocks.(i)

let fold_insts fn acc (f : func) =
  Array.fold_left
    (fun acc b -> List.fold_left fn acc b.insts)
    acc f.blocks

let iter_insts fn (f : func) = fold_insts (fun () i -> fn i) () f

let find_inst (f : func) (p : pp) : inst option =
  fold_insts
    (fun acc i -> match acc with Some _ -> acc | None -> if i.ipp = p then Some i else None)
    None f

(* Every function, sorted by name: the one deterministic iteration
   order all analyses share, computed once when the program is
   assembled. *)
let funcs_list (prog : program) : func list = prog.order

(* Per-function items (one per declaration, in any order) put in the
   {!funcs_list} order: sorted by name, a name listed twice keeping its
   last item, as assembly keeps a repeated name's last declaration.
   Input already in that order is returned as is after one linear
   check, so a caller handing over sorted items pays no sort. *)
let in_func_order (name : 'a -> string) (xs : 'a list) : 'a list =
  let rec strictly_sorted = function
    | a :: (b :: _ as rest) ->
        String.compare (name a) (name b) < 0 && strictly_sorted rest
    | [ _ ] | [] -> true
  in
  let rec last_of_each = function
    | a :: (b :: _ as rest) when String.equal (name a) (name b) ->
        last_of_each rest
    | a :: rest -> a :: last_of_each rest
    | [] -> []
  in
  if strictly_sorted xs then xs
  else
    last_of_each
      (List.stable_sort (fun a b -> String.compare (name a) (name b)) xs)

let find_func (prog : program) name = Hashtbl.find_opt prog.funcs name

let inst_count (prog : program) =
  List.fold_left (fun n f -> fold_insts (fun n _ -> n + 1) n f) 0 (funcs_list prog)

(* ----------------------------------------------------------- printing *)

let place_str = function
  | Pvar v -> v
  | Pfield (v, f) -> v ^ "." ^ f

let operand_str = function
  | Oconst_int n -> string_of_int n
  | Oconst_bool b -> string_of_bool b
  | Oconst_str s -> Printf.sprintf "%S" s
  | Oconst_func f -> "&" ^ f
  | Onil -> "nil"
  | Ovar v -> v
  | Oplace p -> place_str p

let rec cond_str = function
  | Cvar v -> v
  | Cnot c -> "!(" ^ cond_str c ^ ")"
  | Ccmp (op, a, b) ->
      Printf.sprintf "%s %s %s" (operand_str a) (Minigo.Pretty.binop_str op)
        (operand_str b)
  | Copaque p -> Printf.sprintf "<opaque@%d>" p

let inst_str (i : inst) =
  let d = if i.ideferred then "[defer] " else "" in
  let body =
    match i.idesc with
    | Imake_chan (v, t, cap) ->
        Printf.sprintf "%s = make(chan %s%s)" v (Minigo.Ast.typ_to_string t)
          (match cap with
          | None -> ", ?"
          | Some 0 -> ""
          | Some n -> ", " ^ string_of_int n)
    | Imake_struct (v, s) -> Printf.sprintf "%s = new %s" v s
    | Isend (p, o) -> Printf.sprintf "%s <- %s" (place_str p) (operand_str o)
    | Irecv (Some v, p, rng) ->
        Printf.sprintf "%s = <-%s%s" v (place_str p) (if rng then " (range)" else "")
    | Irecv (None, p, rng) ->
        Printf.sprintf "<-%s%s" (place_str p) (if rng then " (range)" else "")
    | Iclose p -> Printf.sprintf "close(%s)" (place_str p)
    | Ilock p -> Printf.sprintf "%s.Lock()" (place_str p)
    | Iunlock p -> Printf.sprintf "%s.Unlock()" (place_str p)
    | Iwg_add (p, o) -> Printf.sprintf "%s.Add(%s)" (place_str p) (operand_str o)
    | Iwg_done p -> Printf.sprintf "%s.Done()" (place_str p)
    | Iwg_wait p -> Printf.sprintf "%s.Wait()" (place_str p)
    | Icall (rets, f, args) ->
        Printf.sprintf "%s%s(%s)"
          (match rets with [] -> "" | rs -> String.concat ", " rs ^ " = ")
          f
          (String.concat ", " (List.map operand_str args))
    | Icall_indirect (rets, f, args) ->
        Printf.sprintf "%s(*%s)(%s)"
          (match rets with [] -> "" | rs -> String.concat ", " rs ^ " = ")
          f
          (String.concat ", " (List.map operand_str args))
    | Igo (f, args) ->
        Printf.sprintf "go %s(%s)" f (String.concat ", " (List.map operand_str args))
    | Itesting_fatal m -> Printf.sprintf "t.%s(...)" m
    | Iassign (v, o) -> Printf.sprintf "%s = %s" v (operand_str o)
    | Ifield_load (v, b, f) -> Printf.sprintf "%s = %s.%s" v b f
    | Ifield_store (b, f, o) -> Printf.sprintf "%s.%s = %s" b f (operand_str o)
    | Ibinop (v, op, a, b) ->
        Printf.sprintf "%s = %s %s %s" v (operand_str a)
          (Minigo.Pretty.binop_str op) (operand_str b)
    | Iunop (v, Minigo.Ast.Neg, a) -> Printf.sprintf "%s = -%s" v (operand_str a)
    | Iunop (v, Minigo.Ast.Not, a) -> Printf.sprintf "%s = !%s" v (operand_str a)
    | Isleep o -> Printf.sprintf "sleep(%s)" (operand_str o)
    | Iprint os ->
        Printf.sprintf "print(%s)" (String.concat ", " (List.map operand_str os))
    | Inop s -> Printf.sprintf "nop (%s)" s
  in
  Printf.sprintf "  [%d] %s%s" i.ipp d body

let term_str = function
  | Tjump t -> Printf.sprintf "  jump b%d" t
  | Tbranch (c, a, b) -> Printf.sprintf "  br %s ? b%d : b%d" (cond_str c) a b
  | Tselect (arms, dflt, p) ->
      let arm_s a =
        match a.arm_op with
        | Arm_recv (pl, Some v) ->
            Printf.sprintf "%s=<-%s -> b%d" v (place_str pl) a.arm_target
        | Arm_recv (pl, None) ->
            Printf.sprintf "<-%s -> b%d" (place_str pl) a.arm_target
        | Arm_send (pl, o) ->
            Printf.sprintf "%s<-%s -> b%d" (place_str pl) (operand_str o) a.arm_target
      in
      Printf.sprintf "  [%d] select {%s}%s" p
        (String.concat "; " (List.map arm_s arms))
        (match dflt with Some d -> Printf.sprintf " default b%d" d | None -> "")
  | Treturn os ->
      Printf.sprintf "  return %s" (String.concat ", " (List.map operand_str os))
  | Tpanic -> "  panic"
  | Texit -> "  goexit"
  | Tunreachable -> "  unreachable"

let func_str (f : func) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "func %s(%s)%s:\n" f.name
       (String.concat ", " (List.map fst f.params))
       (if f.is_goroutine_body then " [goroutine]" else ""));
  Array.iter
    (fun b ->
      Buffer.add_string buf (Printf.sprintf " b%d:\n" b.bid);
      List.iter (fun i -> Buffer.add_string buf (inst_str i ^ "\n")) b.insts;
      Buffer.add_string buf (term_str b.term ^ "\n"))
    f.blocks;
  Buffer.contents buf

let program_str (p : program) =
  String.concat "\n" (List.map func_str (funcs_list p))

(* All sync-operation pps of an instruction, if it is one. *)
let is_sync_inst (i : inst) =
  match i.idesc with
  | Isend _ | Irecv _ | Iclose _ | Ilock _ | Iunlock _ | Iwg_add _ | Iwg_done _
  | Iwg_wait _ ->
      true
  | _ -> false

(* Can this instruction block the executing goroutine? *)
let is_blocking_inst (i : inst) =
  match i.idesc with
  | Isend _ | Irecv _ | Ilock _ | Iwg_wait _ -> true
  | _ -> false
