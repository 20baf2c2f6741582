(* Recursive-descent parser for MiniGo.

   The grammar follows Go closely for the subset we support.  Statement
   separators are semicolons (inserted by the lexer following Go's rule).
   The concurrency constructs — go, chan, select, defer, close — are parsed
   into dedicated AST forms so later phases never have to pattern-match on
   function names to find them. *)

exception Parse_error of string * Loc.t

(* Parser state: where tokens come from, the current token and the one
   after it.  On the analysis path the tokens come from a lexer scanning
   the source; [parse_tokens] walks a list lexed earlier instead.
   [pull] is the one place that tells the two apart.  A token's position
   stays two ints until the parser asks for its location ([peek_loc]),
   so only tokens that start a node or an error get a [Loc.t].  Past the
   end of either source (the lexer answers line 0 once its [EOF] is
   taken, or the list is empty) the parser sees [EOF] at [Loc.none]. *)
type source =
  | Scan of Lexer.state
  | Toks of { mutable rest : Lexer.token_info list }

type state = {
  file : string;
  src : source;
  mutable tok : Token.t;
  mutable line : int;
  mutable col : int;
  mutable tok2 : Token.t;
  mutable line2 : int;
  mutable col2 : int;
}

(* The next token from the source, into [tok2], [line2] and [col2]. *)
let pull st =
  match st.src with
  | Scan lx ->
      st.tok2 <- Lexer.next lx;
      st.line2 <- Lexer.line lx;
      st.col2 <- Lexer.col lx
  | Toks r -> (
      match r.rest with
      | ti :: rest ->
          r.rest <- rest;
          st.tok2 <- ti.tok;
          st.line2 <- ti.loc.line;
          st.col2 <- ti.loc.col
      | [] ->
          st.tok2 <- EOF;
          st.line2 <- 0;
          st.col2 <- 0)

let advance st =
  st.tok <- st.tok2;
  st.line <- st.line2;
  st.col <- st.col2;
  pull st

let start ~file src =
  let st =
    { file; src; tok = EOF; line = 0; col = 0; tok2 = EOF; line2 = 0; col2 = 0 }
  in
  pull st;
  advance st;
  st

let peek st = st.tok
let peek2 st = st.tok2

let peek_loc st =
  if st.line = 0 then Loc.none
  else Loc.make ~file:st.file ~line:st.line ~col:st.col

let error st msg = raise (Parse_error (msg, peek_loc st))

let expect st tok =
  if Token.equal (peek st) tok then advance st
  else
    error st
      (Printf.sprintf "expected '%s' but found '%s'" (Token.to_string tok)
         (Token.to_string (peek st)))

let expect_ident st =
  match peek st with
  | IDENT s ->
      advance st;
      s
  | t -> error st (Printf.sprintf "expected identifier, found '%s'" (Token.to_string t))

let skip_semis st =
  while Token.equal (peek st) Token.SEMI do
    advance st
  done

(* ---------------------------------------------------------------- types *)

let rec parse_type st : Ast.typ =
  match peek st with
  | KW_chan ->
      advance st;
      Tchan (parse_type st)
  | KW_func ->
      advance st;
      expect st LPAREN;
      let args = parse_type_list st in
      expect st RPAREN;
      let rets = parse_result_types st in
      Tfunc (args, rets)
  | STAR ->
      (* pointer types degrade to their base type in MiniGo *)
      advance st;
      parse_type st
  | IDENT "int" -> advance st; Tint
  | IDENT "bool" -> advance st; Tbool
  | IDENT "string" -> advance st; Tstring
  | IDENT "error" -> advance st; Terror
  | IDENT "sync" when Token.equal (peek2 st) DOT -> (
      advance st;
      advance st;
      match expect_ident st with
      | "Mutex" -> Tmutex
      | "WaitGroup" -> Twaitgroup
      | "Cond" -> Tcond
      | other -> error st ("unknown sync type sync." ^ other))
  | IDENT "testing" when Token.equal (peek2 st) DOT ->
      advance st;
      advance st;
      let _ = expect_ident st in
      Ttesting
  | IDENT "context" when Token.equal (peek2 st) DOT ->
      advance st;
      advance st;
      let _ = expect_ident st in
      Tcontext
  | IDENT name ->
      advance st;
      Tstruct name
  | KW_struct ->
      (* anonymous struct types appear only in declarations, name them *)
      error st "anonymous struct types are not supported; declare a named type"
  | t -> error st (Printf.sprintf "expected a type, found '%s'" (Token.to_string t))

and parse_type_list st =
  if Token.equal (peek st) RPAREN then []
  else
    let rec go acc =
      let t = parse_type st in
      if Token.equal (peek st) COMMA then (advance st; go (t :: acc))
      else List.rev (t :: acc)
    in
    go []

and parse_result_types st : Ast.typ list =
  match peek st with
  | LPAREN ->
      advance st;
      let ts = parse_type_list st in
      expect st RPAREN;
      ts
  | LBRACE | SEMI | EOF -> []
  | _ -> [ parse_type st ]

(* ------------------------------------------------------------- exprs *)

let binop_of_token : Token.t -> Ast.binop option = function
  | PLUS -> Some Add
  | MINUS -> Some Sub
  | STAR -> Some Mul
  | SLASH -> Some Div
  | PERCENT -> Some Mod
  | EQ -> Some Eq
  | NEQ -> Some Neq
  | LT -> Some Lt
  | LE -> Some Le
  | GT -> Some Gt
  | GE -> Some Ge
  | AND -> Some And
  | OR -> Some Or
  | _ -> None

let precedence : Ast.binop -> int = function
  | Or -> 1
  | And -> 2
  | Eq | Neq | Lt | Le | Gt | Ge -> 3
  | Add | Sub -> 4
  | Mul | Div | Mod -> 5

let rec parse_expr st : Ast.expr = parse_binary st 0

and parse_binary st min_prec =
  let lhs = parse_unary st in
  let rec loop lhs =
    match binop_of_token (peek st) with
    | Some op when precedence op >= min_prec ->
        let loc = peek_loc st in
        advance st;
        let rhs = parse_binary st (precedence op + 1) in
        loop (Ast.mk_expr ~loc (Binop (op, lhs, rhs)))
    | _ -> lhs
  in
  loop lhs

and parse_unary st =
  let loc = peek_loc st in
  match peek st with
  | NOT ->
      advance st;
      Ast.mk_expr ~loc (Unop (Not, parse_unary st))
  | MINUS ->
      advance st;
      Ast.mk_expr ~loc (Unop (Neg, parse_unary st))
  | ARROW ->
      advance st;
      Ast.mk_expr ~loc (Recv (parse_unary st))
  | AMP ->
      (* address-of degrades to the operand *)
      advance st;
      parse_unary st
  | _ -> parse_postfix st

and parse_postfix st =
  let base = parse_primary st in
  let rec loop e =
    match peek st with
    | DOT -> (
        advance st;
        let name = expect_ident st in
        match peek st with
        | LPAREN ->
            let loc = peek_loc st in
            advance st;
            let args = parse_args st in
            expect st RPAREN;
            loop (Ast.mk_expr ~loc (Call { callee = Fmethod (e, name); args }))
        | _ -> loop (Ast.mk_expr ~loc:e.eloc (Field (e, name))))
    | LPAREN -> (
        let loc = peek_loc st in
        advance st;
        let args = parse_args st in
        expect st RPAREN;
        match e.e with
        | Ident f -> loop (Ast.mk_expr ~loc (Call { callee = Fname f; args }))
        | _ -> loop (Ast.mk_expr ~loc (Call { callee = Fexpr e; args })))
    | LBRACE when is_struct_lit_candidate e ->
        (* `Name{f: v, ...}` — only when primary is a bare identifier whose
           name starts uppercase (Go convention for exported struct types),
           to avoid swallowing `if x { ... }` blocks. *)
        let name = (match e.e with Ident n -> n | _ -> assert false) in
        advance st;
        let fields = parse_struct_fields st in
        expect st RBRACE;
        loop (Ast.mk_expr ~loc:e.eloc (StructLit (name, fields)))
    | _ -> e
  in
  loop base

and is_struct_lit_candidate (e : Ast.expr) =
  match e.e with
  | Ident n -> String.length n > 0 && n.[0] >= 'A' && n.[0] <= 'Z'
  | _ -> false

and parse_struct_fields st =
  skip_semis st;
  if Token.equal (peek st) RBRACE then []
  else
    let rec go acc =
      let name = expect_ident st in
      expect st COLON;
      let v = parse_expr st in
      let acc = (name, v) :: acc in
      skip_semis st;
      if Token.equal (peek st) COMMA then begin
        advance st;
        skip_semis st;
        if Token.equal (peek st) RBRACE then List.rev acc else go acc
      end
      else List.rev acc
    in
    go []

and parse_args st =
  if Token.equal (peek st) RPAREN then []
  else
    let rec go acc =
      let e = parse_expr st in
      if Token.equal (peek st) COMMA then (advance st; go (e :: acc))
      else List.rev (e :: acc)
    in
    go []

and parse_primary st =
  let loc = peek_loc st in
  match peek st with
  | INT n -> advance st; Ast.mk_expr ~loc (Int n)
  | STRING s -> advance st; Ast.mk_expr ~loc (Str s)
  | KW_true -> advance st; Ast.mk_expr ~loc (Bool true)
  | KW_false -> advance st; Ast.mk_expr ~loc (Bool false)
  | KW_nil -> advance st; Ast.mk_expr ~loc Nil
  | KW_len ->
      advance st;
      expect st LPAREN;
      let e = parse_expr st in
      expect st RPAREN;
      Ast.mk_expr ~loc (Len e)
  | KW_make ->
      advance st;
      expect st LPAREN;
      expect st KW_chan;
      let t = parse_type st in
      let cap =
        if Token.equal (peek st) COMMA then begin
          advance st;
          Some (parse_expr st)
        end
        else None
      in
      expect st RPAREN;
      Ast.mk_expr ~loc (MakeChan (t, cap))
  | KW_func ->
      advance st;
      expect st LPAREN;
      let params = parse_params st in
      expect st RPAREN;
      let rets = parse_result_types st in
      expect st LBRACE;
      let body = parse_block_body st in
      Ast.mk_expr ~loc (FuncLit (params, rets, body))
  | IDENT name -> advance st; Ast.mk_expr ~loc (Ident name)
  | LPAREN ->
      advance st;
      let e = parse_expr st in
      expect st RPAREN;
      e
  | t -> error st (Printf.sprintf "expected expression, found '%s'" (Token.to_string t))

and parse_params st : Ast.param list =
  if Token.equal (peek st) RPAREN then []
  else
    let rec go acc =
      let name = expect_ident st in
      let t = parse_type st in
      let acc = { Ast.pname = name; ptyp = t } :: acc in
      if Token.equal (peek st) COMMA then (advance st; go acc) else List.rev acc
    in
    go []

(* ------------------------------------------------------------ stmts *)

and parse_block_body st : Ast.block =
  (* assumes LBRACE already consumed; consumes RBRACE *)
  let rec go acc =
    skip_semis st;
    match peek st with
    | RBRACE ->
        advance st;
        List.rev acc
    | EOF -> error st "unexpected end of file inside block"
    | _ ->
        let s = parse_stmt st in
        go (s :: acc)
  in
  go []

and parse_block st : Ast.block =
  expect st LBRACE;
  parse_block_body st

and parse_stmt st : Ast.stmt =
  let loc = peek_loc st in
  match peek st with
  | KW_var ->
      advance st;
      let name = expect_ident st in
      let t, init =
        if Token.equal (peek st) ASSIGN then begin
          advance st;
          (None, Some (parse_expr st))
        end
        else
          let t = parse_type st in
          if Token.equal (peek st) ASSIGN then begin
            advance st;
            (Some t, Some (parse_expr st))
          end
          else (Some t, None)
      in
      Ast.mk_stmt ~loc (Decl (name, t, init))
  | KW_go -> (
      advance st;
      match peek st with
      | KW_func ->
          advance st;
          expect st LPAREN;
          let params = parse_params st in
          expect st RPAREN;
          let _rets = parse_result_types st in
          expect st LBRACE;
          let body = parse_block_body st in
          expect st LPAREN;
          let args = parse_args st in
          expect st RPAREN;
          Ast.mk_stmt ~loc (GoFuncLit (params, body, args))
      | _ -> (
          let e = parse_expr st in
          match e.e with
          | Call c -> Ast.mk_stmt ~loc (Go c)
          | _ -> error st "go statement requires a function call"))
  | KW_defer -> (
      advance st;
      match peek st with
      | KW_func ->
          advance st;
          expect st LPAREN;
          expect st RPAREN;
          expect st LBRACE;
          let body = parse_block_body st in
          expect st LPAREN;
          expect st RPAREN;
          Ast.mk_stmt ~loc (DeferStmt (DeferFuncLit body))
      | KW_close ->
          advance st;
          expect st LPAREN;
          let ch = parse_expr st in
          expect st RPAREN;
          Ast.mk_stmt ~loc (DeferStmt (DeferClose ch))
      | _ -> (
          let e = parse_expr st in
          match (e.e, peek st) with
          | _, ARROW ->
              advance st;
              let v = parse_expr st in
              Ast.mk_stmt ~loc (DeferStmt (DeferSend (e, v)))
          | Call c, _ -> Ast.mk_stmt ~loc (DeferStmt (DeferCall c))
          | _ -> error st "defer requires a call, send, or close"))
  | KW_close ->
      advance st;
      expect st LPAREN;
      let ch = parse_expr st in
      expect st RPAREN;
      Ast.mk_stmt ~loc (CloseStmt ch)
  | KW_if -> parse_if st
  | KW_for -> parse_for st
  | KW_select -> parse_select st
  | KW_return ->
      advance st;
      let es =
        match peek st with
        | SEMI | RBRACE | EOF -> []
        | _ ->
            let rec go acc =
              let e = parse_expr st in
              if Token.equal (peek st) COMMA then (advance st; go (e :: acc))
              else List.rev (e :: acc)
            in
            go []
      in
      Ast.mk_stmt ~loc (Return es)
  | KW_break -> advance st; Ast.mk_stmt ~loc Break
  | KW_continue -> advance st; Ast.mk_stmt ~loc Continue
  | KW_panic ->
      advance st;
      expect st LPAREN;
      let e = parse_expr st in
      expect st RPAREN;
      Ast.mk_stmt ~loc (Panic e)
  | LBRACE ->
      advance st;
      let b = parse_block_body st in
      Ast.mk_stmt ~loc (BlockStmt b)
  | _ -> parse_simple_stmt st

(* Simple statements: define, assign, send, inc/dec, expression. *)
and parse_simple_stmt st : Ast.stmt =
  let loc = peek_loc st in
  let e = parse_expr st in
  match peek st with
  | DEFINE -> (
      advance st;
      let names = idents_of_expr_list st [ e ] in
      let rhs = parse_expr st in
      Ast.mk_stmt ~loc (Define (names, rhs)))
  | COMMA -> (
      (* multi-assign / multi-define: x, y := e  or  x, ok := <-ch *)
      advance st;
      let e2 = parse_expr st in
      match peek st with
      | DEFINE ->
          advance st;
          let names = idents_of_expr_list st [ e; e2 ] in
          let rhs = parse_expr st in
          Ast.mk_stmt ~loc (Define (names, rhs))
      | t ->
          error st
            (Printf.sprintf "expected ':=' after expression list, found '%s'"
               (Token.to_string t)))
  | ASSIGN ->
      advance st;
      let rhs = parse_expr st in
      Ast.mk_stmt ~loc (Assign (lvalue_of_expr st e, rhs))
  | ARROW ->
      advance st;
      let v = parse_expr st in
      Ast.mk_stmt ~loc (Send (e, v))
  | PLUSPLUS ->
      advance st;
      Ast.mk_stmt ~loc (IncDec (lvalue_of_expr st e, true))
  | MINUSMINUS ->
      advance st;
      Ast.mk_stmt ~loc (IncDec (lvalue_of_expr st e, false))
  | _ -> Ast.mk_stmt ~loc (ExprStmt e)

and idents_of_expr_list st es =
  List.map
    (fun (e : Ast.expr) ->
      match e.e with
      | Ident n -> n
      | _ -> error st "left side of ':=' must be identifiers")
    es

and lvalue_of_expr st (e : Ast.expr) : Ast.lvalue =
  match e.e with
  | Ident n -> Lid n
  | Field (b, f) -> Lfield (b, f)
  | _ -> error st "invalid assignment target"

and parse_if st : Ast.stmt =
  let loc = peek_loc st in
  expect st KW_if;
  let cond = parse_expr st in
  let then_b = parse_block st in
  let else_b =
    if Token.equal (peek st) KW_else then begin
      advance st;
      match peek st with
      | KW_if -> Some [ parse_if st ]
      | _ -> Some (parse_block st)
    end
    else None
  in
  Ast.mk_stmt ~loc (If (cond, then_b, else_b))

and parse_for st : Ast.stmt =
  let loc = peek_loc st in
  expect st KW_for;
  match peek st with
  | LBRACE ->
      let body = parse_block st in
      Ast.mk_stmt ~loc (For (ForEver, body))
  | KW_range ->
      (* for range ch {} — drain loop without binding *)
      advance st;
      let e = parse_expr st in
      let body = parse_block st in
      Ast.mk_stmt ~loc (For (ForRangeChan (None, e), body))
  | IDENT name
    when Token.equal (peek2 st) DEFINE ->
      (* could be: for i := 0; i < n; i++ {}   or   for v := range e {} *)
      advance st;
      advance st;
      if Token.equal (peek st) KW_range then begin
        advance st;
        let e = parse_expr st in
        let body = parse_block st in
        let kind =
          (* range over an int expression iterates [0, n); range over a
             channel drains it.  Disambiguated during type checking; the
             parser records the shape via a marker resolved there.  We use
             ForRangeInt and let the type checker rewrite when the operand
             is a channel. *)
          Ast.ForRangeInt (name, e)
        in
        Ast.mk_stmt ~loc (For (kind, body))
      end
      else begin
        let rhs = parse_expr st in
        let init = Ast.mk_stmt ~loc (Define ([ name ], rhs)) in
        expect st SEMI;
        let cond = parse_expr st in
        expect st SEMI;
        let post = parse_simple_stmt st in
        let body = parse_block st in
        Ast.mk_stmt ~loc (For (ForClassic (Some init, Some cond, Some post), body))
      end
  | _ ->
      let cond = parse_expr st in
      let body = parse_block st in
      Ast.mk_stmt ~loc (For (ForCond cond, body))

and parse_select st : Ast.stmt =
  let loc = peek_loc st in
  expect st KW_select;
  expect st LBRACE;
  let cases = ref [] in
  let dflt = ref None in
  let rec go () =
    skip_semis st;
    match peek st with
    | RBRACE -> advance st
    | KW_default ->
        advance st;
        expect st COLON;
        let body = parse_case_body st in
        dflt := Some body;
        go ()
    | KW_case ->
        advance st;
        let case = parse_select_case st in
        cases := case :: !cases;
        go ()
    | t ->
        error st
          (Printf.sprintf "expected 'case', 'default' or '}', found '%s'"
             (Token.to_string t))
  in
  go ();
  Ast.mk_stmt ~loc (Select (List.rev !cases, !dflt))

and parse_select_case st : Ast.select_case =
  (* case x := <-ch:   case x, ok := <-ch:   case <-ch:   case ch <- v: *)
  match peek st with
  | ARROW ->
      advance st;
      let ch = parse_unary st in
      expect st COLON;
      let body = parse_case_body st in
      CaseRecv (None, false, ch, body)
  | IDENT name when Token.equal (peek2 st) DEFINE ->
      advance st;
      advance st;
      expect st ARROW;
      let ch = parse_unary st in
      expect st COLON;
      let body = parse_case_body st in
      CaseRecv (Some name, false, ch, body)
  | IDENT name when Token.equal (peek2 st) COMMA ->
      advance st;
      advance st;
      let ok = expect_ident st in
      ignore ok;
      expect st DEFINE;
      expect st ARROW;
      let ch = parse_unary st in
      expect st COLON;
      let body = parse_case_body st in
      CaseRecv (Some name, true, ch, body)
  | _ ->
      let ch = parse_expr st in
      expect st ARROW;
      let v = parse_expr st in
      expect st COLON;
      let body = parse_case_body st in
      CaseSend (ch, v, body)

and parse_case_body st : Ast.block =
  let rec go acc =
    skip_semis st;
    match peek st with
    | KW_case | KW_default | RBRACE -> List.rev acc
    | EOF -> error st "unexpected end of file in select"
    | _ ->
        let s = parse_stmt st in
        go (s :: acc)
  in
  go []

(* ------------------------------------------------------- declarations *)

let parse_func_decl st : Ast.func_decl =
  let loc = peek_loc st in
  expect st KW_func;
  let name = expect_ident st in
  expect st LPAREN;
  let params = parse_params st in
  expect st RPAREN;
  let results = parse_result_types st in
  let body = parse_block st in
  { fname = name; params; results; body; floc = loc }

let parse_struct_decl st : Ast.struct_decl =
  let loc = peek_loc st in
  expect st KW_type;
  let name = expect_ident st in
  expect st KW_struct;
  expect st LBRACE;
  let rec fields acc =
    skip_semis st;
    match peek st with
    | RBRACE ->
        advance st;
        List.rev acc
    | _ ->
        let fname = expect_ident st in
        let t = parse_type st in
        fields ((fname, t) :: acc)
  in
  let fs = fields [] in
  { struct_name = name; fields = fs; struct_loc = loc }

let parse st : Ast.file =
  let file = st.file in
  skip_semis st;
  let package =
    if Token.equal (peek st) KW_package then begin
      advance st;
      let name = expect_ident st in
      skip_semis st;
      name
    end
    else "main"
  in
  (* skip imports: import "x" or import ( "x" "y" ) *)
  let rec skip_imports () =
    if Token.equal (peek st) KW_import then begin
      advance st;
      (match peek st with
      | LPAREN ->
          advance st;
          let rec go () =
            skip_semis st;
            match peek st with
            | RPAREN -> advance st
            | STRING _ -> advance st; go ()
            | _ -> error st "malformed import block"
          in
          go ()
      | STRING _ -> advance st
      | _ -> error st "malformed import");
      skip_semis st;
      skip_imports ()
    end
  in
  skip_imports ();
  let rec decls acc =
    skip_semis st;
    match peek st with
    | EOF -> List.rev acc
    | KW_func -> decls (Ast.Dfunc (parse_func_decl st) :: acc)
    | KW_type -> decls (Ast.Dstruct (parse_struct_decl st) :: acc)
    | t ->
        error st
          (Printf.sprintf "expected top-level declaration, found '%s'"
             (Token.to_string t))
  in
  { package; decls = decls []; source_name = file }

let parse_tokens ~file toks = parse (start ~file (Toks { rest = toks }))

(* Tokens stream from the lexer into the parser.  Lexing the whole file
   first would report a lex error anywhere in it rather than a parse
   error before it, so on a parse error the rest of the file is lexed
   for its errors before the parse error is re-raised. *)
let parse_file ~file src : Ast.file =
  let lx = Lexer.create ~file src in
  try parse (start ~file (Scan lx))
  with Parse_error _ as e ->
    Lexer.drain lx;
    raise e

let parse_program ~name sources : Ast.program =
  List.mapi
    (fun i src ->
      let file = Printf.sprintf "%s/file%d.go" name i in
      parse_file ~file src)
    sources

(* Parse a single source string as a one-file program. *)
let parse_string ?(file = "input.go") src : Ast.program = [ parse_file ~file src ]
