(* Hand-written lexer for MiniGo.

   Implements Go's automatic semicolon insertion rule: a semicolon is
   inserted at the end of a line when the last token of the line can end a
   statement (identifier, literal, ')', '}', ']', '++', '--', and the
   keywords break/continue/return/true/false/nil). *)

exception Lex_error of string * Loc.t

type token_info = { tok : Token.t; loc : Loc.t }

type state = {
  src : string;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* offset of beginning of current line *)
  mutable last_significant : Token.t option;
      (* last token emitted on this line, for semicolon insertion *)
}

let make ~file src =
  { src; file; pos = 0; line = 1; bol = 0; last_significant = None }

let cur_loc st = Loc.make ~file:st.file ~line:st.line ~col:(st.pos - st.bol + 1)

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st = st.pos <- st.pos + 1

let newline st =
  st.line <- st.line + 1;
  st.bol <- st.pos

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_digit c || is_alpha c

(* Does [tok] allow a statement to end before a newline? *)
let ends_statement : Token.t -> bool = function
  | INT _ | STRING _ | IDENT _ -> true
  | RPAREN | RBRACE | RBRACKET | PLUSPLUS | MINUSMINUS -> true
  | KW_break | KW_continue | KW_return | KW_true | KW_false | KW_nil -> true
  | _ -> false

let read_ident st =
  let start = st.pos in
  let rec go () =
    match peek st with
    | Some c when is_alnum c ->
        advance st;
        go ()
    | _ -> ()
  in
  go ();
  String.sub st.src start (st.pos - start)

let read_int st =
  let start = st.pos in
  let rec go () =
    match peek st with
    | Some c when is_digit c ->
        advance st;
        go ()
    | _ -> ()
  in
  go ();
  match int_of_string_opt (String.sub st.src start (st.pos - start)) with
  | Some n -> n
  | None ->
      (* digits never span a newline: the literal starts on this line *)
      raise
        (Lex_error
           ( "integer literal out of range",
             Loc.make ~file:st.file ~line:st.line ~col:(start - st.bol + 1) ))

let read_string st =
  let loc = cur_loc st in
  advance st (* opening quote *);
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> raise (Lex_error ("unterminated string literal", loc))
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some 'n' -> advance st; Buffer.add_char buf '\n'; go ()
        | Some 't' -> advance st; Buffer.add_char buf '\t'; go ()
        | Some '\\' -> advance st; Buffer.add_char buf '\\'; go ()
        | Some '"' -> advance st; Buffer.add_char buf '"'; go ()
        | Some c -> advance st; Buffer.add_char buf c; go ()
        | None -> raise (Lex_error ("unterminated escape", loc)))
    | Some '\n' -> raise (Lex_error ("newline in string literal", loc))
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let rec skip_line_comment st =
  match peek st with
  | Some '\n' | None -> ()
  | Some _ ->
      advance st;
      skip_line_comment st

let skip_block_comment st =
  let loc = cur_loc st in
  advance st;
  advance st;
  let rec go () =
    match (peek st, peek2 st) with
    | Some '*', Some '/' ->
        advance st;
        advance st
    | Some '\n', _ ->
        advance st;
        newline st;
        go ()
    | Some _, _ ->
        advance st;
        go ()
    | None, _ -> raise (Lex_error ("unterminated block comment", loc))
  in
  go ()

(* Returns the next token, handling semicolon insertion. *)
let rec next st : token_info =
  match peek st with
  | None ->
      (* insert a final semicolon if needed so "f()" at EOF parses *)
      let loc = cur_loc st in
      (match st.last_significant with
      | Some t when ends_statement t ->
          st.last_significant <- None;
          { tok = SEMI; loc }
      | _ -> { tok = EOF; loc })
  | Some ' ' | Some '\t' | Some '\r' ->
      advance st;
      next st
  | Some '\n' ->
      let loc = cur_loc st in
      advance st;
      newline st;
      (match st.last_significant with
      | Some t when ends_statement t ->
          st.last_significant <- None;
          { tok = SEMI; loc }
      | _ ->
          st.last_significant <- None;
          next st)
  | Some '/' when peek2 st = Some '/' ->
      skip_line_comment st;
      next st
  | Some '/' when peek2 st = Some '*' ->
      skip_block_comment st;
      next st
  | Some c ->
      let loc = cur_loc st in
      let emit tok =
        st.last_significant <- Some tok;
        { tok; loc }
      in
      if is_digit c then emit (INT (read_int st))
      else if is_alpha c then
        let id = read_ident st in
        match Token.keyword_of_string id with
        | Some kw -> emit kw
        | None -> emit (IDENT id)
      else if c = '"' then emit (STRING (read_string st))
      else begin
        advance st;
        let two expect tok_two tok_one =
          if peek st = Some expect then (advance st; emit tok_two)
          else emit tok_one
        in
        match c with
        | '(' -> emit LPAREN
        | ')' -> emit RPAREN
        | '{' -> emit LBRACE
        | '}' -> emit RBRACE
        | '[' -> emit LBRACKET
        | ']' -> emit RBRACKET
        | ',' -> emit COMMA
        | ';' -> emit SEMI
        | '.' -> emit DOT
        | ':' -> two '=' DEFINE COLON
        | '=' -> two '=' EQ ASSIGN
        | '+' -> two '+' PLUSPLUS PLUS
        | '-' -> two '-' MINUSMINUS MINUS
        | '*' -> emit STAR
        | '/' -> emit SLASH
        | '%' -> emit PERCENT
        | '!' -> two '=' NEQ NOT
        | '<' -> (
            match peek st with
            | Some '-' -> advance st; emit ARROW
            | Some '=' -> advance st; emit LE
            | _ -> emit LT)
        | '>' -> two '=' GE GT
        | '&' -> two '&' AND AMP
        | '|' ->
            if peek st = Some '|' then (advance st; emit OR)
            else raise (Lex_error ("unexpected '|'", loc))
        | c ->
            raise (Lex_error (Printf.sprintf "unexpected character %C" c, loc))
      end

(* Tokenize the whole input. *)
let tokenize ~file src =
  let st = make ~file src in
  let rec go acc =
    let ti = next st in
    match ti.tok with EOF -> List.rev (ti :: acc) | _ -> go (ti :: acc)
  in
  go []
