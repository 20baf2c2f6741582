module A = Minigo.Ast

(* AST patching utilities shared by the GFix strategies, plus the diff
   metric used by the paper's readability evaluation (changed lines of
   source code, §5.3). *)

(* ------------------------------------------------------------- diff *)

(* Longest-common-subsequence line diff; returns (added, removed).
   The common prefix and suffix are stripped before the quadratic LCS;
   stripping them never changes the LCS.  That is also why GFix can diff
   only the function it rewrote: the rest of the program prints
   identically before and after, so it would be a common prefix and
   suffix, and the whole-program count is the same. *)
let line_diff (before : string) (after : string) : int * int =
  let a = Array.of_list (String.split_on_char '\n' before) in
  let b = Array.of_list (String.split_on_char '\n' after) in
  let n = Array.length a and m = Array.length b in
  let pre = ref 0 in
  while !pre < n && !pre < m && String.equal a.(!pre) b.(!pre) do
    incr pre
  done;
  let suf = ref 0 in
  while
    !suf < n - !pre
    && !suf < m - !pre
    && String.equal a.(n - 1 - !suf) b.(m - 1 - !suf)
  do
    incr suf
  done;
  let n' = n - !pre - !suf and m' = m - !pre - !suf in
  let lcs = Array.make_matrix (n' + 1) (m' + 1) 0 in
  for i = n' - 1 downto 0 do
    for j = m' - 1 downto 0 do
      lcs.(i).(j) <-
        (if String.equal a.(!pre + i) b.(!pre + j) then 1 + lcs.(i + 1).(j + 1)
         else max lcs.(i + 1).(j) lcs.(i).(j + 1))
    done
  done;
  let common = lcs.(0).(0) in
  (m' - common, n' - common)

(* The paper counts added + removed (a replaced line counts once on each
   side of a unified diff; the paper's Figure 1 patch counts as one
   changed line, which is one removed + one added => we report
   max(added, removed) + |added - removed| ... simplest faithful metric:
   a replacement is 1 changed line, so changed = max(added, removed). *)
let changed_lines before after =
  let added, removed = line_diff before after in
  max added removed

(* ------------------------------------------------- program rewriting *)

(* Same source line (expression locs differ from their statement's loc by
   column only). *)
let same_line (a : Minigo.Loc.t) (b : Minigo.Loc.t) =
  String.equal (Minigo.Loc.file a) (Minigo.Loc.file b)
  && Minigo.Loc.line a = Minigo.Loc.line b

(* Find the function whose body contains a statement at [loc]'s line. *)
let func_containing (prog : A.program) (loc : Minigo.Loc.t) : A.func_decl option =
  List.find_opt
    (fun (fd : A.func_decl) ->
      A.fold_stmts (fun acc s -> acc || same_line s.A.sloc loc) false fd.body)
    (A.funcs_of_program prog)

(* Structural map over statements of a block (deep). *)
let rec map_block (f : A.stmt -> A.stmt list) (b : A.block) : A.block =
  List.concat_map
    (fun s ->
      List.map (map_nested f) (f s))
    b

and map_nested f (s : A.stmt) : A.stmt =
  let desc =
    match s.A.s with
    | A.If (c, b1, b2) -> A.If (c, map_block f b1, Option.map (map_block f) b2)
    | A.For (k, b) -> A.For (k, map_block f b)
    | A.BlockStmt b -> A.BlockStmt (map_block f b)
    | A.GoFuncLit (ps, b, args) -> A.GoFuncLit (ps, map_block f b, args)
    | A.Select (cases, dflt) ->
        A.Select
          ( List.map
              (function
                | A.CaseRecv (x, ok, ch, b) -> A.CaseRecv (x, ok, ch, map_block f b)
                | A.CaseSend (ch, v, b) -> A.CaseSend (ch, v, map_block f b))
              cases,
            Option.map (map_block f) dflt )
    | A.DeferStmt (A.DeferFuncLit b) -> A.DeferStmt (A.DeferFuncLit (map_block f b))
    | d -> d
  in
  { s with s = desc }

(* A patched program and the one declaration the patch rewrote. *)
type rewrite = A.program * A.func_decl

(* Rewrite the statements of declaration [fd], matched physically: a
   name declared in two files rewrites only this declaration, and every
   other file and declaration is shared with [prog]. *)
let rewrite_func (prog : A.program) (fd : A.func_decl)
    (f : A.stmt -> A.stmt list) : rewrite =
  let fd' = { fd with body = map_block f fd.body } in
  let is_fd = function A.Dfunc d -> d == fd | A.Dstruct _ -> false in
  let swap d = if is_fd d then A.Dfunc fd' else d in
  ( List.map
      (fun (file : A.file) ->
        if List.exists is_fd file.decls then
          { file with decls = List.map swap file.decls }
        else file)
      prog,
    fd' )

(* ----------------------------------------------------- AST queries *)

(* Does an expression mention identifier [x]? *)
let rec expr_uses (x : string) (e : A.expr) : bool =
  match e.A.e with
  | A.Ident y -> String.equal x y
  | A.Int _ | A.Bool _ | A.Str _ | A.Nil -> false
  | A.Binop (_, a, b) -> expr_uses x a || expr_uses x b
  | A.Unop (_, a) | A.Recv a | A.Len a | A.Field (a, _) -> expr_uses x a
  | A.Call c -> call_uses x c
  | A.MakeChan (_, cap) -> ( match cap with Some c -> expr_uses x c | None -> false)
  | A.StructLit (_, fs) -> List.exists (fun (_, v) -> expr_uses x v) fs
  | A.FuncLit (ps, _, b) ->
      (not (List.exists (fun (p : A.param) -> p.pname = x) ps)) && block_uses x b

and call_uses x (c : A.call) =
  (match c.A.callee with
  | A.Fname f -> String.equal f x
  | A.Fmethod (e, _) | A.Fexpr e -> expr_uses x e)
  || List.exists (expr_uses x) c.args

and block_uses x (b : A.block) =
  A.fold_stmts
    (fun acc s ->
      acc
      ||
      match s.A.s with
      | A.Decl (_, _, Some e) | A.Define (_, e) | A.Panic e | A.ExprStmt e ->
          expr_uses x e
      | A.Assign (lv, e) -> (
          expr_uses x e
          || match lv with A.Lid y -> y = x | A.Lfield (b, _) -> expr_uses x b)
      | A.Send (ch, v) -> expr_uses x ch || expr_uses x v
      | A.CloseStmt ch -> expr_uses x ch
      | A.Go c -> call_uses x c
      | A.GoFuncLit (_, _, args) -> List.exists (expr_uses x) args
      | A.If (c, _, _) -> expr_uses x c
      | A.For (k, _) -> (
          match k with
          | A.ForCond e | A.ForRangeInt (_, e) | A.ForRangeChan (_, e) ->
              expr_uses x e
          | A.ForEver | A.ForClassic _ -> false)
      | A.Select (cases, _) ->
          List.exists
            (function
              | A.CaseRecv (_, _, ch, _) -> expr_uses x ch
              | A.CaseSend (ch, v, _) -> expr_uses x ch || expr_uses x v)
            cases
      | A.Return es -> List.exists (expr_uses x) es
      | A.DeferStmt d -> (
          match d with
          | A.DeferCall c -> call_uses x c
          | A.DeferSend (ch, v) -> expr_uses x ch || expr_uses x v
          | A.DeferClose ch -> expr_uses x ch
          | A.DeferFuncLit _ -> false)
      | _ -> false)
    false b

(* Channel operations on variable [c] inside a block, shallow-classified. *)
type chan_op_ast =
  | Csend of A.stmt          (* the statement performing c <- v *)
  | Crecv of A.stmt
  | Cclose of A.stmt
  | Cselect_arm of A.stmt

let ops_on_chan (c : string) (b : A.block) : chan_op_ast list =
  let is_c (e : A.expr) = match e.A.e with A.Ident x -> x = c | _ -> false in
  A.fold_stmts
    (fun acc s ->
      match s.A.s with
      | A.Send (ch, _) when is_c ch -> Csend s :: acc
      | A.CloseStmt ch when is_c ch -> Cclose s :: acc
      | A.ExprStmt { e = A.Recv ch; _ } when is_c ch -> Crecv s :: acc
      | A.Define (_, { e = A.Recv ch; _ }) when is_c ch -> Crecv s :: acc
      | A.Assign (_, { e = A.Recv ch; _ }) when is_c ch -> Crecv s :: acc
      | A.For (A.ForRangeChan (_, ch), _) when is_c ch -> Crecv s :: acc
      | A.Select (cases, _)
        when List.exists
               (function
                 | A.CaseRecv (_, _, ch, _) -> is_c ch
                 | A.CaseSend (ch, _, _) -> is_c ch)
               cases ->
          Cselect_arm s :: acc
      | A.DeferStmt (A.DeferSend (ch, _)) when is_c ch -> Csend s :: acc
      | A.DeferStmt (A.DeferClose ch) when is_c ch -> Cclose s :: acc
      | _ -> acc)
    [] b
  |> List.rev

(* Is statement [s] (by location) inside a loop body within block [b]? *)
let rec in_loop_in_block (loc : Minigo.Loc.t) (b : A.block) ~(inside : bool) : bool =
  List.exists (in_loop_stmt loc ~inside) b

and in_loop_stmt loc ~inside (s : A.stmt) : bool =
  if Minigo.Loc.equal s.A.sloc loc then inside
  else
    match s.A.s with
    | A.For (_, b) -> in_loop_in_block loc b ~inside:true
    | A.If (_, b1, b2) ->
        in_loop_in_block loc b1 ~inside
        || (match b2 with Some b -> in_loop_in_block loc b ~inside | None -> false)
    | A.BlockStmt b | A.GoFuncLit (_, b, _) -> in_loop_in_block loc b ~inside
    | A.Select (cases, dflt) ->
        List.exists
          (function
            | A.CaseRecv (_, _, _, b) | A.CaseSend (_, _, b) ->
                in_loop_in_block loc b ~inside)
          cases
        || (match dflt with Some b -> in_loop_in_block loc b ~inside | None -> false)
    | _ -> false

(* Statements lexically after the one at [loc] in the same block level
   (used for the side-effect-after-o2 check). *)
let stmts_after (loc : Minigo.Loc.t) (b : A.block) : A.stmt list option =
  let rec scan = function
    | [] -> None
    | s :: rest ->
        if Minigo.Loc.equal s.A.sloc loc then Some rest
        else
          let nested =
            match s.A.s with
            | A.If (_, b1, b2) -> (
                match scan b1 with
                | Some r -> Some (r @ rest)
                | None -> (
                    match b2 with
                    | Some b -> (
                        match scan b with Some r -> Some (r @ rest) | None -> None)
                    | None -> None))
            | A.For (_, body) | A.BlockStmt body -> (
                match scan body with Some r -> Some (r @ rest) | None -> None)
            | _ -> None
          in
          (match nested with Some _ as r -> r | None -> scan rest)
  in
  scan b

(* A statement is "pure exit" when it is a bare return (no expressions
   with effects) — the only thing allowed after o2 for Strategy-I/II. *)
let is_pure_exit (s : A.stmt) =
  match s.A.s with
  | A.Return es ->
      List.for_all
        (fun (e : A.expr) ->
          match e.A.e with
          | A.Int _ | A.Bool _ | A.Str _ | A.Nil | A.Ident _ -> true
          | _ -> false)
        es
  | _ -> false
