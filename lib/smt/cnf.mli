(** Tseitin gates and guarded sequential-counter cardinalities, emitted
    as clauses into one flat, reusable literal buffer.

    {!Expr.lit_of} translates formula trees through these gates; the
    BMOC encoder calls them directly.  A gate takes its operands from
    the top of the operand stack — [from] is the stack height before
    they were pushed — pops them, and returns its own literal.  Gate
    variables are provisional (numbered from a large base) until the
    owner numbers them for real in {!iter_clauses}, so atoms may be
    allocated while a problem is being emitted and still precede every
    gate variable. *)

type t

val create : unit -> t

val clear : t -> unit
(** Drop every buffered clause, operand and gate variable. *)

val fresh : t -> int
(** A new provisional variable, as its positive literal. *)

val push : t -> int -> unit
(** Push an operand literal. *)

val sp : t -> int
(** The operand stack height. *)

(** {2 Gates} *)

val true_ : t -> int
(** A variable with a unit clause: the constant true.  Each call
    allocates a new one. *)

val false_ : t -> int
val and_ : t -> int -> int
val or_ : t -> int -> int
val iff : t -> int -> int -> int

val at_most : t -> int -> int -> int
(** [at_most t k from]: a literal [v] with [v -> (sum <= k)] over the
    operands (positive polarity only). *)

val at_least : t -> int -> int -> int
val exactly : t -> int -> int -> int

(** {2 Assertions} *)

val empty : t -> unit
(** The empty clause (with the guard alone, when there is one). *)

val assert_lit : t -> int -> unit
val assert_or : t -> int -> unit
(** The disjunction of the operands, as one clause. *)

val assert_at_most : t -> int -> int -> unit
(** [assert_at_most t k from]: sum of the operands <= k, unreified. *)

val assert_at_least : t -> int -> int -> unit
val assert_exactly : t -> int -> int -> unit

(** {2 Hand-over} *)

val set_guard : t -> int -> unit
(** The literal put first in every clause from now on; negative for
    none. *)

val n_fresh : t -> int
(** Provisional variables handed out since the last {!clear}. *)

val prov_var : int
(** The first provisional variable: provisional variable [i] is
    [prov_var + i]. *)

val iter_clauses : t -> first_var:int -> (int array -> int -> int -> unit) -> unit
(** Number the provisional variables from [first_var] (in allocation
    order), then call [f lits off len] on each clause in emission order;
    [lits] is the buffer itself, valid during the call only. *)
