(** Lowering: MiniGo AST → IR control-flow graphs.

    Performs alpha renaming, lambda lifting of goroutine and function
    literals (free variables become extra parameters), defer
    materialisation before every function exit (including panics and
    testing.Fatal, matching Go's run-defers-on-Goexit semantics that
    GFix Strategy-II relies on), and structured-control lowering. *)

exception Lower_error of string * Minigo.Loc.t

val lower_program : Minigo.Ast.program -> Ir.program
(** Equivalent to lowering every file with {!lower_file} and
    assembling the results in file order. *)

(** {1 Per-file compilation}

    Each file lowers independently — in parallel, or from a per-file
    cache — with program points local to the file.  {!assemble} rebases
    every file's points by the sum of the preceding files' counts, so
    the final numbering depends only on the file contents and their
    order, never on the schedule or on which files were cached. *)

type sigs
(** Whole-program declaration signatures: the only cross-file input a
    file's lowering reads.  Shared read-only by concurrent lowerings. *)

val build_sigs : Minigo.Ast.program -> sigs

val sig_funcs : sigs -> string list
(** The functions the table holds signatures for, sorted by name.
    Lowering never adds to it: a file's lifted literals are kept in the
    file's own overlay. *)

val sigs_of_signatures : Minigo.Typecheck.sig_item list -> sigs
(** Build the table from per-file signature items;
    [sigs_of_signatures (List.concat_map Minigo.Typecheck.file_signatures p)]
    is [build_sigs p] (typechecking never rewrites signatures). *)

type lowered_file
(** One file's functions (including its lifted literals) with
    file-local program points. *)

val lower_file : sigs -> Minigo.Ast.file -> lowered_file
(** @raise Lower_error on unloverable constructs in this file. *)

val file_funcs : lowered_file -> (string * Ir.func) list
(** The file's lowered functions (including lifted literals), in
    lowering order, with file-local program points. *)

val file_pp_count : lowered_file -> int
(** Program points the file consumed; {!assemble} rebases the next
    file by the running sum of these. *)

type placement
(** One file's functions rebased to their place in the program. *)

val assemble :
  ?prev:Ir.program * lowered_file list ->
  ?placed:int ref ->
  ?map:
    ((lowered_file * int -> placement) ->
    (lowered_file * int) list ->
    placement list) ->
  Minigo.Ast.program ->
  lowered_file list ->
  Ir.program
(** Rebase and merge per-file results, in file order, into one
    program, and sort its functions by name once ({!Ir.funcs_list}).
    Rebasing deep-copies blocks, so a cached [lowered_file] may appear
    at different offsets in different programs.

    [prev = (p, old)], where [p] is the assembly of [old], lets an edit
    reuse an earlier program: each file that is physically [old]'s file
    at the same position and pp offset keeps [p]'s functions, shared
    rather than copied, and [p]'s name order is re-mapped rather than
    re-sorted.  This applies when [p]'s function names are unique and
    every other file defines the same names as the file it replaces;
    otherwise every file is placed as without [prev].  Either way the
    result equals a fresh [assemble] of the same files.  The program
    shares blocks with [p], so nothing may write to a block once it is
    assembled.

    [placed] is incremented by the number of files whose functions
    were rebased into the program rather than taken from [p].

    [map] (default [List.map]) places the files when every file is
    placed, one (file, offset) pair per call; the results are used in
    list order, so a parallel map gives the same program. *)
