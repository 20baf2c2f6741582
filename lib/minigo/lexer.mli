(** Hand-written lexer for MiniGo, implementing Go's automatic semicolon
    insertion: a semicolon is inserted at a newline when the previous
    token can end a statement. *)

exception Lex_error of string * Loc.t

type token_info = { tok : Token.t; loc : Loc.t }

(** {1 Streaming} *)

type state
(** A scan in progress over one source string. *)

val create : file:string -> string -> state

val next : state -> Token.t
(** The next token.  After {!Token.EOF} every call returns [EOF] again,
    at line and column 0.  @raise Lex_error on malformed input. *)

val line : state -> int
(** Line of the token {!next} returned last (1-based; 0 past [EOF]). *)

val col : state -> int
(** Column of the token {!next} returned last (1-based; 0 past [EOF]). *)

val loc : state -> Loc.t
(** Location of the token {!next} returned last (as {!line}, {!col}). *)

val drain : state -> unit
(** Scan to the end of the input and drop the tokens: raises the first
    {!Lex_error} in the rest of the input, if any. *)

(** {1 Whole input} *)

val tokenize : file:string -> string -> token_info list
(** Tokenize a whole source string.  The result always ends with
    {!Token.EOF}.  @raise Lex_error on malformed input. *)
