(* IR lowering tests: CFG shape, sync instructions, lambda lifting, defer
   materialisation, and contiguous block ids (a regression test for the
   bid/index mismatch that once broke path enumeration). *)

module Ir = Goir.Ir
module A = Minigo.Ast

let lower src =
  Goir.Lower.lower_program
    (Minigo.Typecheck.check_program
       (Minigo.Parser.parse_string ("package p\n" ^ src)))

let func ir name =
  match Ir.find_func ir name with
  | Some f -> f
  | None -> Alcotest.failf "function %s not lowered" name

let inst_kinds (f : Ir.func) =
  Ir.fold_insts
    (fun acc (i : Ir.inst) ->
      (match i.idesc with
      | Imake_chan _ -> "make"
      | Isend _ -> "send"
      | Irecv _ -> "recv"
      | Iclose _ -> "close"
      | Ilock _ -> "lock"
      | Iunlock _ -> "unlock"
      | Igo _ -> "go"
      | Icall _ -> "call"
      | Itesting_fatal _ -> "fatal"
      | _ -> "other")
      :: acc)
    [] f
  |> List.rev

let test_block_ids_contiguous () =
  let ir =
    lower
      "func f(x int) int {\n\tif x > 0 {\n\t\treturn 1\n\t}\n\tfor i := range x {\n\t\tprintln(i)\n\t}\n\treturn 0\n}"
  in
  let f = func ir "f" in
  Array.iteri
    (fun i (b : Ir.block) -> Alcotest.(check int) "bid = index" i b.bid)
    f.blocks;
  (* every successor must be a valid block id *)
  Array.iter
    (fun b ->
      List.iter
        (fun s ->
          Alcotest.(check bool) "successor in range" true
            (s >= 0 && s < Array.length f.blocks))
        (Ir.successors b))
    f.blocks

let test_sync_ops_lowered () =
  let ir =
    lower
      "func f() {\n\tc := make(chan int)\n\tvar mu sync.Mutex\n\tmu.Lock()\n\tc <- 1\n\t<-c\n\tclose(c)\n\tmu.Unlock()\n}"
  in
  let kinds = List.filter (fun k -> k <> "other") (inst_kinds (func ir "f")) in
  Alcotest.(check (list string)) "sync sequence"
    [ "make"; "lock"; "send"; "recv"; "close"; "unlock" ]
    kinds

let test_goroutine_lifted () =
  let ir = lower "func f() {\n\tc := make(chan int)\n\tgo func() {\n\t\tc <- 1\n\t}()\n\t<-c\n}" in
  let lifted = func ir "f$fn1" in
  Alcotest.(check bool) "marked goroutine body" true lifted.is_goroutine_body;
  Alcotest.(check (option string)) "parent recorded" (Some "f") lifted.parent;
  (* the capture of c becomes a parameter *)
  Alcotest.(check int) "captured channel param" 1 (List.length lifted.params)

let test_nested_lift () =
  let ir =
    lower
      "func f() {\n\tc := make(chan int, 2)\n\tgo func() {\n\t\tgo func() {\n\t\t\tc <- 2\n\t\t}()\n\t\tc <- 1\n\t}()\n\t<-c\n\t<-c\n}"
  in
  let names =
    List.map (fun (f : Ir.func) -> f.name) (Ir.funcs_list ir)
    |> List.filter (fun n -> String.contains n '$')
  in
  Alcotest.(check int) "two lifted functions" 2 (List.length names)

let test_defer_materialised_at_returns () =
  let ir =
    lower
      "func f(x int) int {\n\tc := make(chan bool, 1)\n\tdefer close(c)\n\tif x > 0 {\n\t\treturn 1\n\t}\n\treturn 0\n}"
  in
  let f = func ir "f" in
  let closes =
    Ir.fold_insts
      (fun n (i : Ir.inst) ->
        match i.idesc with Iclose _ -> if i.ideferred then n + 1 else n | _ -> n)
      0 f
  in
  Alcotest.(check int) "one deferred close per return" 2 closes

let test_fatal_terminates_after_defers () =
  let ir =
    lower
      "func TestX(t *testing.T) {\n\tc := make(chan bool, 1)\n\tdefer c <- true\n\tt.Fatal(\"x\")\n}"
  in
  let f = func ir "TestX" in
  (* the Fatal block must end in Texit and contain the deferred send *)
  let found = ref false in
  Array.iter
    (fun (b : Ir.block) ->
      if b.term = Ir.Texit then begin
        let has_fatal =
          List.exists
            (fun (i : Ir.inst) ->
              match i.idesc with Itesting_fatal _ -> true | _ -> false)
            b.insts
        in
        let has_deferred_send =
          List.exists
            (fun (i : Ir.inst) ->
              match i.idesc with Isend _ -> i.ideferred | _ -> false)
            b.insts
        in
        if has_fatal && has_deferred_send then found := true
      end)
    f.blocks;
  Alcotest.(check bool) "defer before goroutine exit" true !found

let test_select_terminator () =
  let ir =
    lower
      "func f(a chan int, b chan int) {\n\tselect {\n\tcase <-a:\n\t\tprintln(1)\n\tcase b <- 2:\n\t\tprintln(2)\n\tdefault:\n\t\tprintln(3)\n\t}\n}"
  in
  let f = func ir "f" in
  let sel =
    Array.to_list f.blocks
    |> List.find_map (fun (b : Ir.block) ->
           match b.term with
           | Tselect (arms, dflt, _) -> Some (List.length arms, dflt <> None)
           | _ -> None)
  in
  Alcotest.(check (option (pair int bool))) "select arms and default"
    (Some (2, true)) sel

let test_mutex_decl_is_creation_site () =
  let ir = lower "func f() {\n\tvar mu sync.Mutex\n\tmu.Lock()\n\tmu.Unlock()\n}" in
  let f = func ir "f" in
  let makes =
    Ir.fold_insts
      (fun n (i : Ir.inst) ->
        match i.idesc with Imake_struct _ -> n + 1 | _ -> n)
      0 f
  in
  Alcotest.(check int) "zero-value mutex allocates" 1 makes

let test_ctx_done_is_field_load () =
  let ir =
    lower
      "func f(ctx context.Context) {\n\tselect {\n\tcase <-ctx.Done():\n\t\tprintln(1)\n\t}\n}"
  in
  let f = func ir "f" in
  let uses_done_field =
    Array.exists
      (fun (b : Ir.block) ->
        match b.term with
        | Tselect (arms, _, _) ->
            List.exists
              (fun (a : Ir.select_arm) ->
                match a.arm_op with
                | Arm_recv (Pfield (_, "$done"), _) -> true
                | _ -> false)
              arms
        | _ -> false)
      f.blocks
  in
  Alcotest.(check bool) "ctx.Done() lowered to $done field" true uses_done_field

let test_cancel_is_close () =
  let ir = lower "func f() {\n\tctx := background()\n\tcancel(ctx)\n}" in
  let f = func ir "f" in
  let closes_done =
    Ir.fold_insts
      (fun acc (i : Ir.inst) ->
        acc
        || match i.idesc with Iclose (Pfield (_, "$done")) -> true | _ -> false)
      false f
  in
  Alcotest.(check bool) "cancel lowered to close($done)" true closes_done

let test_alpha_renaming () =
  let ir =
    lower
      "func f() int {\n\tx := 1\n\tif x > 0 {\n\t\tx := 2\n\t\tprintln(x)\n\t}\n\treturn x\n}"
  in
  let f = func ir "f" in
  (* the shadowing definition must get a fresh name *)
  let assigned =
    Ir.fold_insts
      (fun acc (i : Ir.inst) ->
        match i.idesc with Iassign (v, _) -> v :: acc | _ -> acc)
      [] f
  in
  let distinct = List.sort_uniq String.compare assigned in
  Alcotest.(check bool) "shadowed x renamed" true (List.length distinct >= 2)

let test_pps_unique () =
  let ir =
    lower
      "func f() {\n\tc := make(chan int, 1)\n\tc <- 1\n\t<-c\n}\nfunc g() {\n\td := make(chan int, 1)\n\td <- 2\n\t<-d\n}"
  in
  let pps =
    List.concat_map
      (fun f -> Ir.fold_insts (fun acc (i : Ir.inst) -> i.ipp :: acc) [] f)
      (Ir.funcs_list ir)
  in
  Alcotest.(check int) "program points unique" (List.length pps)
    (List.length (List.sort_uniq compare pps))

(* a long straight-line body: one block, its instructions in emission
   order (pps increasing), and every block id its index *)
let test_straight_line_function () =
  let n = 5000 in
  let b = Buffer.create (16 * n) in
  Buffer.add_string b "func f() int {\n\tx := 0\n";
  for _ = 2 to n do
    Buffer.add_string b "\tx = x + 1\n"
  done;
  Buffer.add_string b "\treturn x\n}";
  let f = func (lower (Buffer.contents b)) "f" in
  Array.iteri
    (fun i (b : Ir.block) -> Alcotest.(check int) "bid is index" i b.bid)
    f.blocks;
  let pps = List.rev (Ir.fold_insts (fun acc i -> i.Ir.ipp :: acc) [] f) in
  Alcotest.(check bool) "one instruction per statement at least" true
    (List.length pps >= n);
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "pps increase in block order" true (increasing pps)

(* lifted literals go to the lowering file's overlay, never into the
   signature table the files share *)
let test_lifting_leaves_shared_sigs () =
  let prog =
    Minigo.Typecheck.check_program
      (Minigo.Parser.parse_program ~name:"two"
         [
           "package p\nfunc a(c chan int) {\n\tgo func() {\n\t\tc <- 1\n\t}()\n}\n";
           "package p\nfunc b() int {\n\tf := func() int {\n\t\treturn 1\n\t}\n\treturn f()\n}\n";
         ])
  in
  let sigs = Goir.Lower.build_sigs prog in
  let before = Goir.Lower.sig_funcs sigs in
  let lowered = List.map (Goir.Lower.lower_file sigs) prog in
  Alcotest.(check (list string)) "shared table unchanged" before
    (Goir.Lower.sig_funcs sigs);
  Alcotest.(check (list string)) "declared functions only" [ "a"; "b" ] before;
  let names =
    List.concat_map
      (fun lf -> List.map fst (Goir.Lower.file_funcs lf))
      lowered
  in
  Alcotest.(check (list string)) "literals lifted" [ "a"; "a$fn1"; "b"; "b$fn1" ]
    names;
  (* the literal's signature is still found, in the overlay *)
  let b = List.assoc "b" (Goir.Lower.file_funcs (List.nth lowered 1)) in
  Alcotest.(check bool) "literal typed as a function" true
    (Hashtbl.find b.Ir.var_types "f" = A.Tfunc ([], [ A.Tint ]))

(* a name declared in two files: the assembly keeps the later file's
   function, listed once in name order, whatever order [map] places the
   files in *)
let test_assemble_repeated_name () =
  let prog =
    Minigo.Typecheck.check_program
      (Minigo.Parser.parse_program ~name:"dup"
         [
           "package p\nfunc f() {\n\tprintln(1)\n}\n";
           "package p\nfunc g() {\n\tprintln(2)\n}\nfunc f() {\n\tprintln(3)\n}\n";
         ])
  in
  let sigs = Goir.Lower.build_sigs prog in
  let files = List.map (Goir.Lower.lower_file sigs) prog in
  let backwards f l = List.rev (List.map f (List.rev l)) in
  let ir = Goir.Lower.assemble ~map:backwards prog files in
  Alcotest.(check (list string)) "each name once, sorted" [ "f"; "g" ]
    (List.map (fun (f : Ir.func) -> f.name) (Ir.funcs_list ir));
  Alcotest.(check string) "later declaration wins" "dup/file1.go"
    (func ir "f").floc.file;
  Alcotest.(check bool) "order shares the table's functions" true
    (List.for_all (fun (f : Ir.func) -> func ir f.name == f) (Ir.funcs_list ir))

let tests =
  [
    Alcotest.test_case "block ids contiguous" `Quick test_block_ids_contiguous;
    Alcotest.test_case "sync ops lowered" `Quick test_sync_ops_lowered;
    Alcotest.test_case "goroutine lifted with captures" `Quick test_goroutine_lifted;
    Alcotest.test_case "nested lifting" `Quick test_nested_lift;
    Alcotest.test_case "defer at every return" `Quick test_defer_materialised_at_returns;
    Alcotest.test_case "Fatal runs defers then exits" `Quick test_fatal_terminates_after_defers;
    Alcotest.test_case "select terminator" `Quick test_select_terminator;
    Alcotest.test_case "mutex declaration allocates" `Quick test_mutex_decl_is_creation_site;
    Alcotest.test_case "ctx.Done is $done load" `Quick test_ctx_done_is_field_load;
    Alcotest.test_case "cancel closes $done" `Quick test_cancel_is_close;
    Alcotest.test_case "alpha renaming" `Quick test_alpha_renaming;
    Alcotest.test_case "unique program points" `Quick test_pps_unique;
    Alcotest.test_case "5,000-statement function" `Quick
      test_straight_line_function;
    Alcotest.test_case "lifting leaves shared signatures" `Quick
      test_lifting_leaves_shared_sigs;
    Alcotest.test_case "assembly keeps a repeated name's last file" `Quick
      test_assemble_repeated_name;
  ]
