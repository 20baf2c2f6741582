(** GFix (paper §4): automated patching of BMOC bugs detected by GCatch.

    The dispatcher classifies each input bug and attempts the strategies
    in order of patch simplicity: Strategy-I (increase the channel buffer
    from zero to one), Strategy-II (defer the missed unblocking
    operation), Strategy-III (add a stop channel the child selects on).

    The problem scope matches the paper's (§4.1): two goroutines, one
    local channel, and the blocked goroutine must be a child created by
    the other so its behaviour is statically visible. *)

type strategy = S1_increase_buffer | S2_defer_op | S3_add_stop

val strategy_str : strategy -> string

type fix = {
  strategy : strategy;
  patched : Minigo.Ast.program;   (** the rewritten program *)
  changed_lines : int;
      (** the paper's readability metric: the line diff of the one
          function the strategy rewrote, equal to the whole program's *)
  description : string;
}

type outcome = Fixed of fix | Not_fixed of string  (** rejection reason *)

val dispatch : Minigo.Ast.program -> Report.bmoc_bug -> outcome
(** Attempt to fix one bug, trying Strategy-I, then II, then III. *)

val fix_all :
  Minigo.Ast.program ->
  Report.bmoc_bug list ->
  (Report.bmoc_bug * outcome) list
(** Fix every fixable bug; mutex-involved bugs are skipped, like the
    paper's GFix, whose scope is channel-only bugs. *)

val fix_to_fixpoint :
  Minigo.Ast.program ->
  (Report.bmoc_bug * outcome) list ->
  Minigo.Ast.program
(** Apply the first fix of a {!fix_all} round, re-detect and re-fix the
    patched program, and repeat until no detected bug is fixable, so
    every fixable bug in the program is patched.  The rounds are
    bounded by the number of bugs the first round was given. *)
