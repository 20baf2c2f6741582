(** Recursive-descent parser for MiniGo.

    The concurrency constructs — [go], [chan], [select], [defer],
    [close] — parse into dedicated AST forms so later phases never have
    to recognise them by function name. *)

exception Parse_error of string * Loc.t

val parse_file : file:string -> string -> Ast.file
(** Parse one source file, pulling tokens from the lexer as it goes (no
    token list is built).  A lex error anywhere in the file takes
    precedence over a parse error, as if the file had been lexed whole
    first.  @raise Lexer.Lex_error on malformed input.
    @raise Parse_error on syntax errors. *)

val parse_tokens : file:string -> Lexer.token_info list -> Ast.file
(** Parse an already-tokenized file with the same parser;
    [parse_tokens ~file (Lexer.tokenize ~file src)] is
    [parse_file ~file src].  Locations take their line and column from
    the list and name [file].  For measuring the lexer and the parser
    apart.  @raise Parse_error on syntax errors. *)

val parse_program : name:string -> string list -> Ast.program
(** Parse a multi-file program; files are named [<name>/file<i>.go]. *)

val parse_string : ?file:string -> string -> Ast.program
(** Parse a single source string as a one-file program. *)
