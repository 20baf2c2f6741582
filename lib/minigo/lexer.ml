(* Hand-written lexer for MiniGo.

   Implements Go's automatic semicolon insertion rule: a semicolon is
   inserted at the end of a line when the last token of the line can end a
   statement (identifier, literal, ')', '}', ']', '++', '--', and the
   keywords break/continue/return/true/false/nil).

   The scanner reads the source through [get], which returns '\000' past
   the end of the input, so no character is boxed; a '\000' inside the
   input is told apart by its position.  The parser pulls one token at a
   time with [next] and asks for a [Loc.t] only when it needs one: the
   current token's position stays two ints until then. *)

exception Lex_error of string * Loc.t

type token_info = { tok : Token.t; loc : Loc.t }

type state = {
  src : string;
  len : int;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* offset of beginning of current line *)
  mutable semi_ok : bool;
      (* the last token emitted on this line can end a statement *)
  mutable tok_line : int; (* position of the token [next] returned last; *)
  mutable tok_col : int; (* 0 once [EOF] has been returned *)
  mutable ended : bool; (* [EOF] has been returned *)
}

let create ~file src =
  {
    src;
    len = String.length src;
    file;
    pos = 0;
    line = 1;
    bol = 0;
    semi_ok = false;
    tok_line = 1;
    tok_col = 1;
    ended = false;
  }

let[@inline] get st i = if i < st.len then String.unsafe_get st.src i else '\000'
let[@inline] at_end st = st.pos >= st.len
let loc st = Loc.make ~file:st.file ~line:st.tok_line ~col:st.tok_col
let line st = st.tok_line
let col st = st.tok_col

let[@inline] newline st =
  st.line <- st.line + 1;
  st.bol <- st.pos

let[@inline] is_digit c = c >= '0' && c <= '9'

let[@inline] is_alpha c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let[@inline] is_alnum c = is_digit c || is_alpha c

(* Does [tok] allow a statement to end before a newline? *)
let ends_statement : Token.t -> bool = function
  | INT _ | STRING _ | IDENT _ -> true
  | RPAREN | RBRACE | RBRACKET | PLUSPLUS | MINUSMINUS -> true
  | KW_break | KW_continue | KW_return | KW_true | KW_false | KW_nil -> true
  | _ -> false

let read_ident st =
  let start = st.pos in
  while is_alnum (get st st.pos) do
    st.pos <- st.pos + 1
  done;
  String.sub st.src start (st.pos - start)

(* A decimal literal, accumulated in place; one that does not fit a
   native int is an error at the literal (digits never span a newline,
   so it starts on this line). *)
let read_int st =
  let start = st.pos in
  let n = ref 0 and overflow = ref false in
  while is_digit (get st st.pos) do
    let d = Char.code (String.unsafe_get st.src st.pos) - 48 in
    if !n > (max_int - d) / 10 then overflow := true else n := (!n * 10) + d;
    st.pos <- st.pos + 1
  done;
  if !overflow then
    raise
      (Lex_error
         ( "integer literal out of range",
           Loc.make ~file:st.file ~line:st.line ~col:(start - st.bol + 1) ));
  !n

let read_string st =
  st.pos <- st.pos + 1 (* opening quote *);
  let start = st.pos in
  (* a literal never spans a newline: the error is at its opening quote *)
  let fail msg =
    raise (Lex_error (msg, Loc.make ~file:st.file ~line:st.line ~col:(start - st.bol)))
  in
  let buf = Buffer.create 16 in
  let rec go () =
    match get st st.pos with
    | '"' -> st.pos <- st.pos + 1
    | '\\' ->
        st.pos <- st.pos + 1;
        if at_end st then fail "unterminated escape";
        let c = String.unsafe_get st.src st.pos in
        st.pos <- st.pos + 1;
        Buffer.add_char buf (match c with 'n' -> '\n' | 't' -> '\t' | c -> c);
        go ()
    | '\n' -> fail "newline in string literal"
    | '\000' when at_end st -> fail "unterminated string literal"
    | c ->
        st.pos <- st.pos + 1;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let skip_line_comment st =
  while get st st.pos <> '\n' && not (at_end st) do
    st.pos <- st.pos + 1
  done

let skip_block_comment st =
  let line = st.line and col = st.pos - st.bol + 1 in
  st.pos <- st.pos + 2;
  let rec go () =
    match get st st.pos with
    | '*' when get st (st.pos + 1) = '/' -> st.pos <- st.pos + 2
    | '\n' ->
        st.pos <- st.pos + 1;
        newline st;
        go ()
    | '\000' when at_end st ->
        raise
          (Lex_error
             ("unterminated block comment", Loc.make ~file:st.file ~line ~col))
    | _ ->
        st.pos <- st.pos + 1;
        go ()
  in
  go ()

let[@inline] mark st =
  st.tok_line <- st.line;
  st.tok_col <- st.pos - st.bol + 1

(* A two-character operator when [expect] follows, else the one-character
   one. *)
let[@inline] two st expect (tok_two : Token.t) (tok_one : Token.t) =
  if get st st.pos = expect then begin
    st.pos <- st.pos + 1;
    tok_two
  end
  else tok_one

(* Returns the next token, handling semicolon insertion; its position is
   [line st] and [col st] (or [loc st]). *)
let rec next st : Token.t =
  let c = get st st.pos in
  match c with
  | ' ' | '\t' | '\r' ->
      st.pos <- st.pos + 1;
      next st
  | '\n' ->
      mark st;
      st.pos <- st.pos + 1;
      newline st;
      if st.semi_ok then begin
        st.semi_ok <- false;
        SEMI
      end
      else next st
  | '\000' when at_end st ->
      (* insert a final semicolon if needed so "f()" at EOF parses *)
      if st.ended then begin
        st.tok_line <- 0;
        st.tok_col <- 0;
        EOF
      end
      else begin
        mark st;
        if st.semi_ok then begin
          st.semi_ok <- false;
          SEMI
        end
        else begin
          st.ended <- true;
          EOF
        end
      end
  | '/' when get st (st.pos + 1) = '/' ->
      skip_line_comment st;
      next st
  | '/' when get st (st.pos + 1) = '*' ->
      skip_block_comment st;
      next st
  | _ ->
      mark st;
      let tok : Token.t =
        if is_digit c then INT (read_int st)
        else if is_alpha c then
          let id = read_ident st in
          match Token.keyword_of_string id with Some kw -> kw | None -> IDENT id
        else if c = '"' then STRING (read_string st)
        else begin
          st.pos <- st.pos + 1;
          match c with
          | '(' -> LPAREN
          | ')' -> RPAREN
          | '{' -> LBRACE
          | '}' -> RBRACE
          | '[' -> LBRACKET
          | ']' -> RBRACKET
          | ',' -> COMMA
          | ';' -> SEMI
          | '.' -> DOT
          | ':' -> two st '=' DEFINE COLON
          | '=' -> two st '=' EQ ASSIGN
          | '+' -> two st '+' PLUSPLUS PLUS
          | '-' -> two st '-' MINUSMINUS MINUS
          | '*' -> STAR
          | '/' -> SLASH
          | '%' -> PERCENT
          | '!' -> two st '=' NEQ NOT
          | '<' -> (
              match get st st.pos with
              | '-' -> st.pos <- st.pos + 1; ARROW
              | '=' -> st.pos <- st.pos + 1; LE
              | _ -> LT)
          | '>' -> two st '=' GE GT
          | '&' -> two st '&' AND AMP
          | '|' ->
              if get st st.pos = '|' then begin
                st.pos <- st.pos + 1;
                OR
              end
              else raise (Lex_error ("unexpected '|'", loc st))
          | c -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, loc st))
        end
      in
      st.semi_ok <- ends_statement tok;
      tok

(* Lex the rest of the input, for the errors it raises: a lex error
   anywhere in a file takes precedence over a parse error before it. *)
let rec drain st = match next st with EOF -> () | _ -> drain st

(* Tokenize the whole input. *)
let tokenize ~file src =
  let st = create ~file src in
  let rec go acc =
    let tok = next st in
    let ti = { tok; loc = loc st } in
    match tok with EOF -> List.rev (ti :: acc) | _ -> go (ti :: acc)
  in
  go []
