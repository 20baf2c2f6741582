(** A CDCL SAT solver: two-watched-literal propagation, first-UIP clause
    learning, non-chronological backjumping, VSIDS-style activities,
    assumption literals, learnt-clause DB reduction and Luby restarts.
    Supports incremental clause addition between [solve] calls, which the
    DPLL(T) driver uses for theory-conflict (blocking) clauses.

    Literal encoding: variable [v] (1-based) has positive literal [2*v]
    and negative literal [2*v+1]. *)

type t

type result = Sat | Unsat

val create : unit -> t

val reset : t -> unit
(** Empty the instance in place: afterwards it behaves exactly as
    [create ()] would, but keeps its storage. *)

val new_var : t -> int
(** Allocate a fresh variable; returns its 1-based index. *)

val lit_of_var : int -> bool -> int
(** [lit_of_var v sign] is the literal for [v], positive when [sign]. *)

val var_of_lit : int -> int
val is_pos : int -> bool
val neg : int -> int

val add_clause : t -> int list -> bool
(** Add a clause of literals; returns [false] if the formula became
    trivially unsatisfiable.  May be called between [solve] calls. *)

val add_clause_sub : t -> int array -> int -> int -> bool
(** [add_clause_sub t a off len] is [add_clause] on the literals
    [a.(off) .. a.(off + len - 1)]; [a] is not retained. *)

exception Timeout
(** Raised by {!solve} when [should_stop] returns [true]. *)

val solve :
  ?should_stop:(unit -> bool) ->
  ?assumptions:int list ->
  ?decision_vars:int array ->
  t ->
  result
(** [should_stop] is polled every 256 conflicts; raising {!Timeout}
    from [solve] leaves the solver unusable for further queries.

    [assumptions] are literals decided (in order) before any free
    branching.  An [Unsat] answer under assumptions does not poison the
    instance: dropping or changing the assumptions allows further
    queries on the same clause database.

    [decision_vars], when given, restricts free branching to that set of
    variables (ties in activity go to the earliest in the array); the
    caller asserts that the clause database is effectively satisfied
    once those variables (plus propagation) are assigned — used by
    incremental sessions where clauses of inactive (unassumed) groups
    are satisfied by their selector polarity. *)

val simplify : t -> unit
(** Backtrack to level 0, propagate top-level facts, and permanently
    delete clauses already satisfied at level 0 (e.g. the clause group
    of a retired selector). *)

val model_value : t -> int -> bool
(** Value of a variable in the last satisfying assignment. *)

val stats : t -> int * int * int
(** (conflicts, decisions, propagations). *)

val stats_ext : t -> int * int * int
(** (learnt clauses created, restarts performed, learnt-DB reductions). *)

val n_vars : t -> int
(** Variables allocated so far (the highest 1-based index). *)

val n_clauses : t -> int
val n_learnts : t -> int

val clause_stream : t -> int * int
(** The clauses handed to {!add_clause} and {!add_clause_sub} so far:
    their number, and a digest of their literals in order (each clause
    as given, before simplification), for checking that two encoders
    emit the same instance. *)
