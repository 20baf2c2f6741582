(** Pretty-printer rendering MiniGo ASTs back to gofmt-like source text.

    GFix patches by rewriting one function of the AST.  Patch readability
    (the paper's §5.3 metric) is the line diff of that function's
    {!func_str} before and after, so the output is stable: one statement
    per line, Go brace style.  [gfix] prints the patched program with
    {!program_str}. *)

val binop_str : Ast.binop -> string
val typ_str : Ast.typ -> string
val expr_str : Ast.expr -> string
val call_str : Ast.call -> string

val block_str : string -> Ast.block -> string
(** [block_str indent b] renders each statement on its own line,
    prefixed with [indent]. *)

val func_str : Ast.func_decl -> string
val struct_str : Ast.struct_decl -> string
val file_str : Ast.file -> string
val program_str : Ast.program -> string
