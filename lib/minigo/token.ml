(* Lexical tokens of MiniGo. *)

type t =
  (* literals and identifiers *)
  | INT of int
  | STRING of string
  | IDENT of string
  (* keywords *)
  | KW_func
  | KW_go
  | KW_chan
  | KW_make
  | KW_select
  | KW_case
  | KW_default
  | KW_if
  | KW_else
  | KW_for
  | KW_return
  | KW_defer
  | KW_close
  | KW_var
  | KW_type
  | KW_struct
  | KW_package
  | KW_import
  | KW_true
  | KW_false
  | KW_nil
  | KW_range
  | KW_break
  | KW_continue
  | KW_panic
  | KW_len
  (* punctuation / operators *)
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | COMMA
  | SEMI
  | COLON
  | DOT
  | ARROW          (* <- *)
  | DEFINE         (* := *)
  | ASSIGN         (* = *)
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | EQ             (* == *)
  | NEQ            (* != *)
  | LT
  | LE
  | GT
  | GE
  | AND            (* && *)
  | OR             (* || *)
  | NOT            (* ! *)
  | AMP            (* & *)
  | PLUSPLUS       (* ++ *)
  | MINUSMINUS     (* -- *)
  | EOF

let keyword_of_string = function
  | "func" -> Some KW_func
  | "go" -> Some KW_go
  | "chan" -> Some KW_chan
  | "make" -> Some KW_make
  | "select" -> Some KW_select
  | "case" -> Some KW_case
  | "default" -> Some KW_default
  | "if" -> Some KW_if
  | "else" -> Some KW_else
  | "for" -> Some KW_for
  | "return" -> Some KW_return
  | "defer" -> Some KW_defer
  | "close" -> Some KW_close
  | "var" -> Some KW_var
  | "type" -> Some KW_type
  | "struct" -> Some KW_struct
  | "package" -> Some KW_package
  | "import" -> Some KW_import
  | "true" -> Some KW_true
  | "false" -> Some KW_false
  | "nil" -> Some KW_nil
  | "range" -> Some KW_range
  | "break" -> Some KW_break
  | "continue" -> Some KW_continue
  | "panic" -> Some KW_panic
  | "len" -> Some KW_len
  | _ -> None

let to_string = function
  | INT n -> string_of_int n
  | STRING s -> Printf.sprintf "%S" s
  | IDENT s -> s
  | KW_func -> "func"
  | KW_go -> "go"
  | KW_chan -> "chan"
  | KW_make -> "make"
  | KW_select -> "select"
  | KW_case -> "case"
  | KW_default -> "default"
  | KW_if -> "if"
  | KW_else -> "else"
  | KW_for -> "for"
  | KW_return -> "return"
  | KW_defer -> "defer"
  | KW_close -> "close"
  | KW_var -> "var"
  | KW_type -> "type"
  | KW_struct -> "struct"
  | KW_package -> "package"
  | KW_import -> "import"
  | KW_true -> "true"
  | KW_false -> "false"
  | KW_nil -> "nil"
  | KW_range -> "range"
  | KW_break -> "break"
  | KW_continue -> "continue"
  | KW_panic -> "panic"
  | KW_len -> "len"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | COMMA -> ","
  | SEMI -> ";"
  | COLON -> ":"
  | DOT -> "."
  | ARROW -> "<-"
  | DEFINE -> ":="
  | ASSIGN -> "="
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | PERCENT -> "%"
  | EQ -> "=="
  | NEQ -> "!="
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | AND -> "&&"
  | OR -> "||"
  | NOT -> "!"
  | AMP -> "&"
  | PLUSPLUS -> "++"
  | MINUSMINUS -> "--"
  | EOF -> "<eof>"

(* Constant tokens are immediates, so most comparisons end at [==]
   without calling the polymorphic equality. *)
let equal (a : t) (b : t) =
  a == b
  ||
  match (a, b) with
  | INT x, INT y -> x = y
  | STRING x, STRING y | IDENT x, IDENT y -> String.equal x y
  | _ -> false
