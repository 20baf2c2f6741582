(* Static-analysis tests: alias analysis, call graph, dominance. *)

module Ir = Goir.Ir
module Alias = Goanalysis.Alias
module CG = Goanalysis.Callgraph
module Dom = Goanalysis.Dominance

let lower src =
  Goir.Lower.lower_program
    (Minigo.Typecheck.check_program
       (Minigo.Parser.parse_string ("package p\n" ^ src)))

let chan_objs alias fname var =
  Alias.ObjSet.elements (Alias.objects_of_place alias fname (Ir.Pvar var))

(* ---- alias ---- *)

let test_alias_direct () =
  let ir = lower "func f() {\n\tc := make(chan int)\n\td := c\n\t_ = d\n}" in
  let alias = Alias.analyse ir in
  match (chan_objs alias "f" "c", chan_objs alias "f" "d") with
  | [ oc ], [ od ] -> Alcotest.(check bool) "same object" true (oc = od)
  | _ -> Alcotest.fail "expected singleton points-to sets"

let test_alias_through_call () =
  let ir =
    lower
      "func use(x chan int) {\n\tx <- 1\n}\nfunc f() {\n\tc := make(chan int, 1)\n\tuse(c)\n\t<-c\n}"
  in
  let alias = Alias.analyse ir in
  Alcotest.(check bool) "param aliases caller channel" true
    (Alias.may_alias alias "f" (Ir.Pvar "c") "use" (Ir.Pvar "x"))

let test_alias_through_goroutine () =
  let ir =
    lower "func f() {\n\tc := make(chan int)\n\tgo func() {\n\t\tc <- 1\n\t}()\n\t<-c\n}"
  in
  let alias = Alias.analyse ir in
  Alcotest.(check bool) "capture aliases channel" true
    (Alias.may_alias alias "f" (Ir.Pvar "c") "f$fn1" (Ir.Pvar "c"))

let test_alias_struct_field () =
  let ir =
    lower
      "type Holder struct {\n\tch chan int\n}\nfunc f() {\n\th := Holder{ch: make(chan int, 1)}\n\th.ch <- 1\n\t<-h.ch\n}"
  in
  let alias = Alias.analyse ir in
  let objs = Alias.objects_of_place alias "f" (Ir.Pfield ("h", "ch")) in
  Alcotest.(check bool) "field holds the channel" true
    (Alias.ObjSet.exists (function Alias.Achan _ -> true | _ -> false) objs)

let test_alias_distinct_sites () =
  let ir =
    lower "func f() {\n\ta := make(chan int, 1)\n\tb := make(chan int, 1)\n\ta <- 1\n\tb <- 2\n\t<-a\n\t<-b\n}"
  in
  let alias = Alias.analyse ir in
  Alcotest.(check bool) "different creation sites do not alias" false
    (Alias.may_alias alias "f" (Ir.Pvar "a") "f" (Ir.Pvar "b"))

let test_alias_channel_payload () =
  (* a channel sent over a channel: the $elem field models the transfer —
     the precision the paper's alias package lacked (17 FPs) *)
  let ir =
    lower
      "func f() {\n\tinner := make(chan int, 1)\n\tcarrier := make(chan chan int, 1)\n\tcarrier <- inner\n\tgot := <-carrier\n\tgot <- 5\n\t<-inner\n}"
  in
  let alias = Alias.analyse ir in
  Alcotest.(check bool) "received channel aliases sent channel" true
    (Alias.may_alias alias "f" (Ir.Pvar "inner") "f" (Ir.Pvar "got"))

let test_alias_capacity () =
  let ir = lower "func f() {\n\ta := make(chan int)\n\tb := make(chan int, 7)\n\t_ = a\n\t_ = b\n}" in
  let alias = Alias.analyse ir in
  let cap v =
    match chan_objs alias "f" v with
    | [ o ] -> Alias.capacity alias o
    | _ -> None
  in
  Alcotest.(check (option int)) "unbuffered" (Some 0) (cap "a");
  Alcotest.(check (option int)) "buffered 7" (Some 7) (cap "b")

let test_alias_entry_params_external () =
  let ir = lower "func Handle(c chan int) {\n\tc <- 1\n}" in
  let alias = Alias.analyse ir in
  let objs = chan_objs alias "Handle" "c" in
  Alcotest.(check bool) "entry param gets an external object" true
    (List.exists (function Alias.Aext _ -> true | _ -> false) objs)

(* ---- the solver against a round-robin reference ---- *)

(* The alias pass as first written: string-keyed tables, and every
   instruction of every function, in name order, interpreted again each
   round until nothing changes.  The solver must answer every query as
   this does. *)
module Ref = struct
  module S = Alias.ObjSet

  type t = {
    pts : (string * string, S.t) Hashtbl.t;
    fields : (Alias.obj * string, S.t) Hashtbl.t;
    caps : (Ir.pp, int option * Minigo.Loc.t) Hashtbl.t;
    mutable changed : bool;
  }

  let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:S.empty

  let add r tbl k objs =
    let cur = get tbl k in
    if not (S.subset objs cur) then begin
      Hashtbl.replace tbl k (S.union cur objs);
      r.changed <- true
    end

  let var r f v = get r.pts (f, v)
  let field r o fld = get r.fields (o, fld)

  let operand r f (o : Ir.operand) =
    match o with
    | Ovar v | Oplace (Pvar v) -> var r f v
    | Oplace (Pfield (v, fld)) ->
        S.fold (fun o acc -> S.union acc (field r o fld)) (var r f v) S.empty
    | Oconst_func g -> S.singleton (Alias.Afunc g)
    | Oconst_int _ | Oconst_bool _ | Oconst_str _ | Onil -> S.empty

  (* a field still empty when touched holds a primitive *)
  let ensure r o fld =
    if S.is_empty (field r o fld) then
      add r r.fields (o, fld) (S.singleton (Alias.Aprim (o, fld)))

  let place r f (p : Ir.place) =
    match p with
    | Pvar v -> var r f v
    | Pfield (v, fld) ->
        S.fold
          (fun o acc ->
            ensure r o fld;
            S.union acc (field r o fld))
          (var r f v) S.empty

  let call r prog caller g args rets =
    match Ir.find_func prog g with
    | None -> ()
    | Some (c : Ir.func) ->
        List.iteri
          (fun i (pv, _) ->
            match List.nth_opt args i with
            | Some a -> add r r.pts (g, pv) (operand r caller a)
            | None -> ())
          c.params;
        Array.iter
          (fun (b : Ir.block) ->
            match b.term with
            | Treturn os ->
                List.iteri
                  (fun i rv ->
                    match List.nth_opt os i with
                    | Some o -> add r r.pts (caller, rv) (operand r g o)
                    | None -> ())
                  rets
            | _ -> ())
          c.blocks

  let send r f p o =
    S.iter (fun obj -> add r r.fields (obj, "$elem") (operand r f o)) (place r f p)

  let recv r f v p =
    S.iter (fun obj -> add r r.pts (f, v) (field r obj "$elem")) (place r f p)

  let step r prog (f : Ir.func) =
    let fn = f.name in
    Ir.iter_insts
      (fun (i : Ir.inst) ->
        match i.idesc with
        | Imake_chan (v, _, cap) ->
            Hashtbl.replace r.caps i.ipp (cap, i.iloc);
            add r r.pts (fn, v) (S.singleton (Alias.Achan i.ipp))
        | Imake_struct (v, _) -> add r r.pts (fn, v) (S.singleton (Alias.Astruct i.ipp))
        | Iassign (v, o) -> add r r.pts (fn, v) (operand r fn o)
        | Ifield_load (v, b, fld) ->
            S.iter
              (fun obj ->
                ensure r obj fld;
                add r r.pts (fn, v) (field r obj fld))
              (var r fn b)
        | Ifield_store (b, fld, o) ->
            S.iter (fun obj -> add r r.fields (obj, fld) (operand r fn o)) (var r fn b)
        | Isend (p, o) -> send r fn p o
        | Irecv (Some v, p, _) -> recv r fn v p
        | Icall (rets, g, args) -> call r prog fn g args rets
        | Igo (g, args) -> call r prog fn g args []
        | Icall_indirect (rets, fv, args) ->
            List.iter
              (fun g -> call r prog fn g args rets)
              (S.fold
                 (fun o acc -> match o with Alias.Afunc g -> g :: acc | _ -> acc)
                 (var r fn fv) [])
        | _ -> ())
      f;
    Array.iter
      (fun (b : Ir.block) ->
        match b.term with
        | Tselect (arms, _, _) ->
            List.iter
              (fun (a : Ir.select_arm) ->
                match a.arm_op with
                | Arm_recv (p, Some v) -> recv r fn v p
                | Arm_recv (p, None) -> ignore (place r fn p)
                | Arm_send (p, o) -> send r fn p o)
              arms
        | _ -> ())
      f.blocks

  let analyse prog =
    let r =
      { pts = Hashtbl.create 64; fields = Hashtbl.create 64; caps = Hashtbl.create 16; changed = true }
    in
    let funcs = Ir.funcs_list prog in
    let called = Hashtbl.create 16 in
    List.iter
      (Ir.iter_insts (fun (i : Ir.inst) ->
           match i.idesc with
           | Icall (_, g, _) | Igo (g, _) -> Hashtbl.replace called g ()
           | _ -> ()))
      funcs;
    List.iter
      (fun (f : Ir.func) ->
        if not (Hashtbl.mem called f.name) then
          List.iter
            (fun (v, ty) ->
              if Alias.is_pointerish ty then
                add r r.pts (f.name, v) (S.singleton (Alias.Aext (f.name, v))))
            f.params)
      funcs;
    let rounds = ref 0 in
    while r.changed && !rounds < 100 do
      r.changed <- false;
      incr rounds;
      List.iter (step r prog) funcs
    done;
    r
end

(* Every place an instruction or select arm of [f] names. *)
let places_of (f : Ir.func) =
  let acc = ref [] in
  let p x = acc := x :: !acc in
  let o = function Ir.Oplace x -> p x | _ -> () in
  Ir.iter_insts
    (fun (i : Ir.inst) ->
      match i.idesc with
      | Isend (x, v) | Iwg_add (x, v) -> p x; o v
      | Irecv (_, x, _) | Iclose x | Ilock x | Iunlock x | Iwg_done x
      | Iwg_wait x ->
          p x
      | Icall (_, _, os) | Icall_indirect (_, _, os) | Igo (_, os) | Iprint os
        ->
          List.iter o os
      | Iassign (_, v) | Ifield_store (_, _, v) | Iunop (_, _, v) | Isleep v ->
          o v
      | Ifield_load (_, b, fld) -> p (Pfield (b, fld))
      | Ibinop (_, _, v1, v2) -> o v1; o v2
      | Imake_chan _ | Imake_struct _ | Itesting_fatal _ | Inop _ -> ())
    f;
  Array.iter
    (fun (b : Ir.block) ->
      match b.term with
      | Tselect (arms, _, _) ->
          List.iter
            (fun (a : Ir.select_arm) ->
              match a.arm_op with
              | Arm_recv (x, _) -> p x
              | Arm_send (x, v) -> p x; o v)
            arms
      | _ -> ())
    f.blocks;
  List.rev !acc

(* What the queries answer on [prog]: each function variable's
   points-to set, the objects and channels of each place, and the
   capacity and creation site of every object those name.  Places are
   queried after the variables, in program order. *)
let alias_answers prog ~pts_var ~objects ~channels ~capacity ~creation =
  let module S = Alias.ObjSet in
  let seen = ref S.empty in
  let note s = seen := S.union !seen s; S.elements s in
  let vars =
    List.concat_map
      (fun (f : Ir.func) ->
        let vs =
          List.sort_uniq compare
            (List.map fst f.params
            @ Hashtbl.fold (fun v _ acc -> v :: acc) f.var_types [])
        in
        List.map (fun v -> ((f.name, v), note (pts_var f.name v))) vs)
      (Ir.funcs_list prog)
  in
  let places =
    List.concat_map
      (fun (f : Ir.func) ->
        List.map
          (fun p -> ((f.name, Ir.place_str p), note (objects f.name p), S.elements (channels f.name p)))
          (places_of f))
      (Ir.funcs_list prog)
  in
  let objs =
    List.map (fun o -> (Alias.obj_str o, capacity o, creation o)) (S.elements !seen)
  in
  (vars, places, objs)

let solver_answers prog (al : Alias.t) =
  alias_answers prog ~pts_var:(Alias.pts_var al)
    ~objects:(Alias.objects_of_place al) ~channels:(Alias.channels_of_place al)
    ~capacity:(Alias.capacity al) ~creation:(Alias.creation_loc al)

let reference_answers prog =
  let r = Ref.analyse prog in
  let channels f p =
    Alias.ObjSet.filter
      (function Alias.Achan _ | Aprim _ | Aext _ -> true | _ -> false)
      (Ref.place r f p)
  in
  let site o =
    match o with Alias.Achan pp -> Hashtbl.find_opt r.Ref.caps pp | _ -> None
  in
  alias_answers prog ~pts_var:(Ref.var r) ~objects:(Ref.place r) ~channels
    ~capacity:(fun o -> Option.bind (site o) fst)
    ~creation:(fun o -> Option.map snd (site o))

let check_answers name expected actual =
  let (ev, ep, eo), (av, ap, ao) = (expected, actual) in
  let objs = List.map Alias.obj_str in
  let diff what e a =
    List.iter2
      (fun (k, x) (k', y) ->
        if k <> k' || x <> y then
          Alcotest.failf "%s: %s %s.%s: expected {%s}, got {%s}" name what (fst k)
            (snd k) (String.concat " " (objs x)) (String.concat " " (objs y)))
      e a
  in
  Alcotest.(check int) (name ^ ": variables") (List.length ev) (List.length av);
  diff "points-to of" ev av;
  Alcotest.(check int) (name ^ ": places") (List.length ep) (List.length ap);
  diff "objects of" (List.map (fun (k, x, _) -> (k, x)) ep) (List.map (fun (k, x, _) -> (k, x)) ap);
  diff "channels of" (List.map (fun (k, _, c) -> (k, c)) ep) (List.map (fun (k, _, c) -> (k, c)) ap);
  Alcotest.(check bool) (name ^ ": capacities and creation sites") true (eo = ao)

let compile ~name sources =
  Goir.Lower.lower_program
    (Minigo.Typecheck.check_program (Minigo.Parser.parse_program ~name sources))

(* A struct field loaded, in name order, before any function stores to
   it: the first round gives the load the primitive the first touch
   materialises, and only the field table changes before the second
   round, which must run the load again to add the stored channel. *)
let field_first_touch =
  "package p\n\
   type Box struct {\n\tch chan int\n}\n\
   func a() {\n\tb := Box{}\n\tz(b)\n\tc := b.ch\n\tc <- 1\n}\n\
   func z(b Box) {\n\tb.ch = make(chan int, 1)\n}\n"

let test_alias_field_first_touch () =
  let ir = compile ~name:"touch" [ field_first_touch ] in
  let al = Alias.analyse ir in
  let kinds =
    List.map
      (function Alias.Achan _ -> "chan" | Aprim (_, f) -> "prim." ^ f | o -> Alias.obj_str o)
      (Alias.ObjSet.elements (Alias.pts_var al "a" "c"))
  in
  Alcotest.(check (list string)) "first-touch primitive and stored channel"
    [ "chan"; "prim.ch" ] kinds;
  check_answers "touch" (reference_answers ir) (solver_answers ir al)

(* Repeated [_] parameters: lowering names each of them [_], so they
   are one variable, holding every argument passed in either position. *)
let blank_params =
  "package p\n\
   func f(_ chan int, _ chan int) {\n}\n\
   func g() {\n\ta := make(chan int)\n\tb := make(chan int, 1)\n\tf(a, b)\n\tb <- 1\n}\n\
   func h(_ chan int, n int, _ chan int) {\n}\n"

let reference_inputs () =
  let dir = List.find Sys.file_exists [ "smoke"; "test/smoke" ] in
  let smoke =
    List.filter_map
      (fun f ->
        if Filename.check_suffix f ".go" then
          Some
            ( f,
              [ In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all ] )
        else None)
      (List.sort compare (Array.to_list (Sys.readdir dir)))
  in
  ("touch", [ field_first_touch ])
  :: ("blank", [ blank_params ])
  :: ( "filler",
       List.init 4 (fun i ->
           "package app\n" ^ Gocorpus.Filler.generate ~seed:(7000 + i) ~target_lines:300) )
  :: List.map (fun (a : Gocorpus.Apps.app) -> (a.spec.name, a.sources)) (Gocorpus.Apps.all ())
  @ List.map
      (fun (e : Gocorpus.Bugset.entry) -> (e.bs_name, [ "package b\n" ^ e.bs_src ]))
      Gocorpus.Bugset.entries
  @ smoke

let test_alias_matches_reference () =
  let inputs = reference_inputs () in
  Alcotest.(check bool) "every corpus, bug-set and smoke program" true
    (List.length inputs >= 3 + 21 + List.length Gocorpus.Bugset.entries + 3
    && List.exists (fun (n, _) -> n = "fig1_bug.go") inputs);
  List.iter
    (fun (name, sources) ->
      let ir = compile ~name sources in
      check_answers name (reference_answers ir) (solver_answers ir (Alias.analyse ir)))
    inputs

(* A function declared in two files: the engine's facts must be the
   whole-program analyses' on the assembled program, where the later
   declaration wins and the other functions of both files keep their
   call sites. *)
let test_name_in_two_files () =
  let module E = Goengine.Engine in
  let sources =
    [
      "package p\n\
       func f(c chan int) {\n\td := make(chan int)\n\tgo w(d)\n\tc <- 1\n}\n\
       func g() {\n\tc := make(chan int)\n\tgo f(c)\n\t<-c\n}\n\
       func w(d chan int) {\n\td <- 1\n}\n";
      "package p\n\
       func f(c chan int) {\n\td := make(chan int, 1)\n\td <- 2\n\t<-c\n}\n\
       func h() {\n\tc := make(chan int)\n\tgo f(c)\n\tc <- 3\n}\n";
    ]
  in
  let a = E.artifacts (Gcatch.Passes.engine ()) ~name:"dup" sources in
  let ir = Lazy.force a.E.a_ir in
  let alias = Alias.analyse (compile ~name:"dup" sources) in
  check_answers "dup" (solver_answers ir alias) (solver_answers ir (Lazy.force a.E.a_alias));
  let edges (cg : CG.t) =
    List.map
      (fun (e : CG.edge) -> Printf.sprintf "%s->%s@%d" e.caller e.callee e.site)
      cg.edges
  in
  let cg = CG.build ~alias ir in
  Alcotest.(check (list string)) "call graph" (edges cg) (edges (Lazy.force a.E.a_callgraph));
  Alcotest.(check bool) "both files' callers of f stay" true
    (List.length (CG.callers cg "f") = 2);
  Alcotest.(check bool) "the earlier f's spawn is gone" true (CG.callers cg "w" = []);
  let prims p =
    let module P = Gcatch.Primitives in
    List.map
      (fun o ->
        ( Alias.obj_str o,
          List.map (fun (op : P.op) -> (op.o_func, op.o_pp, op.o_kind)) (P.ops_of p o) ))
      (P.channels p @ P.mutexes p)
  in
  Alcotest.(check bool) "primitive map" true
    (prims (Gcatch.Primitives.collect ir alias) = prims (Gcatch.Passes.prims_for a))


(* ---- call graph ---- *)

let test_cg_direct_and_go () =
  let ir =
    lower
      "func a() {\n\tb()\n\tgo c()\n}\nfunc b() {}\nfunc c() {}"
  in
  let alias = Alias.analyse ir in
  let cg = CG.build ~alias ir in
  let callees = List.map (fun (e : CG.edge) -> (e.callee, e.kind)) (CG.callees cg "a") in
  Alcotest.(check bool) "calls b" true (List.mem ("b", CG.Ecall) callees);
  Alcotest.(check bool) "spawns c" true (List.mem ("c", CG.Ego) callees)

let test_cg_indirect_via_alias () =
  let ir =
    lower
      "func target() {\n\tprintln(1)\n}\nfunc f() {\n\tg := target\n\tg()\n}"
  in
  let alias = Alias.analyse ir in
  let cg = CG.build ~alias ir in
  let callees = List.map (fun (e : CG.edge) -> e.callee) (CG.callees cg "f") in
  Alcotest.(check bool) "resolves function value" true (List.mem "target" callees)

let test_cg_reachability () =
  let ir = lower "func a() {\n\tb()\n}\nfunc b() {\n\tc()\n}\nfunc c() {}\nfunc d() {}" in
  let cg = CG.build ir in
  let reach = CG.reachable_from cg "a" in
  Alcotest.(check bool) "a reaches c" true (Hashtbl.mem reach "c");
  Alcotest.(check bool) "a does not reach d" false (Hashtbl.mem reach "d")

let test_cg_lca () =
  let ir =
    lower
      "func root() {\n\tleft()\n\tright()\n}\nfunc left() {\n\tshared()\n}\nfunc right() {\n\tshared()\n}\nfunc shared() {}"
  in
  let cg = CG.build ir in
  Alcotest.(check (option string)) "LCA of left/right" (Some "root")
    (CG.lca cg [ "left"; "right" ]);
  Alcotest.(check (option string)) "LCA of a single func" (Some "left")
    (CG.lca cg [ "left" ])

(* ---- dominance ---- *)

let test_dominators () =
  let ir =
    lower
      "func f(x int) int {\n\tc := make(chan bool, 1)\n\tif x > 0 {\n\t\tc <- true\n\t} else {\n\t\tc <- false\n\t}\n\t<-c\n\treturn 0\n}"
  in
  let f = Option.get (Ir.find_func ir "f") in
  let dom = Dom.dominators f in
  (* the entry block dominates every return block *)
  List.iter
    (fun ret_bid ->
      Alcotest.(check bool) "entry dominates return" true
        (Dom.dominates f dom f.entry ret_bid))
    (Dom.return_blocks f);
  (* neither branch arm dominates the join *)
  let make_pp =
    Ir.fold_insts
      (fun acc (i : Ir.inst) ->
        match i.idesc with Imake_chan _ -> Some i.ipp | _ -> acc)
      None f
  in
  let recv_pp =
    Ir.fold_insts
      (fun acc (i : Ir.inst) ->
        match i.idesc with Irecv _ -> Some i.ipp | _ -> acc)
      None f
  in
  match (make_pp, recv_pp) with
  | Some mk, Some rc ->
      Alcotest.(check bool) "make dominates recv" true (Dom.pp_dominates f dom mk rc);
      Alcotest.(check bool) "recv does not dominate make" false
        (Dom.pp_dominates f dom rc mk)
  | _ -> Alcotest.fail "missing pps"

let tests =
  [
    Alcotest.test_case "alias: direct copy" `Quick test_alias_direct;
    Alcotest.test_case "alias: through call" `Quick test_alias_through_call;
    Alcotest.test_case "alias: through goroutine capture" `Quick test_alias_through_goroutine;
    Alcotest.test_case "alias: struct field" `Quick test_alias_struct_field;
    Alcotest.test_case "alias: distinct sites" `Quick test_alias_distinct_sites;
    Alcotest.test_case "alias: channel sent over channel" `Quick test_alias_channel_payload;
    Alcotest.test_case "alias: static capacity" `Quick test_alias_capacity;
    Alcotest.test_case "alias: entry params external" `Quick test_alias_entry_params_external;
    Alcotest.test_case "alias: field loaded before its first store" `Quick
      test_alias_field_first_touch;
    Alcotest.test_case "alias: solver matches round-robin reference" `Slow
      test_alias_matches_reference;
    Alcotest.test_case "facts: a name declared in two files" `Quick
      test_name_in_two_files;
    Alcotest.test_case "callgraph: direct and go edges" `Quick test_cg_direct_and_go;
    Alcotest.test_case "callgraph: indirect via alias" `Quick test_cg_indirect_via_alias;
    Alcotest.test_case "callgraph: reachability" `Quick test_cg_reachability;
    Alcotest.test_case "callgraph: LCA" `Quick test_cg_lca;
    Alcotest.test_case "dominance" `Quick test_dominators;
  ]
