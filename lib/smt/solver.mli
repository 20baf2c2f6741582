(** DPLL(T): the CDCL SAT core combined with difference logic — the
    reproduction's stand-in for the subset of Z3 the paper uses.

    The loop is offline-lazy: SAT produces a complete boolean assignment;
    asserted difference atoms are checked by Bellman-Ford; a negative
    cycle becomes a blocking clause; repeat.  Sound and complete for the
    QF_IDL + pseudo-boolean fragment GCatch generates.

    One instance can be reused incrementally across many related queries
    (the BMOC per-channel solver session): formulas asserted under a
    {!guard} are active only while that guard is assumed in {!solve},
    and {!retire_guard} permanently deactivates a group.  Atoms, theory
    lemmas, learnt clauses, and branching activity persist across
    queries. *)

type t

type ovar
(** An integer order variable (the paper's O variables). *)

type model = {
  order_of : ovar -> int;     (** order value in the witness schedule *)
  bool_of : Expr.t -> bool;
      (** value of a boolean atom from {!new_bool} (P variables) *)
}

type result = Sat_model of model | Unsat

val create : unit -> t

val new_order_var : t -> ovar
val new_bool : t -> Expr.t
(** A fresh boolean atom.  Variables carry no names: each call allocates
    a new one, so a caller that needs the same boolean again keeps the
    atom (or memoises it under its own key). *)

val le_c : t -> ovar -> ovar -> int -> Expr.t
(** [le_c t x y c] is the atom [x - y <= c]. *)

val lt : t -> ovar -> ovar -> Expr.t
val le : t -> ovar -> ovar -> Expr.t
val eq : t -> ovar -> ovar -> Expr.t

type guard
(** A selector literal guarding a group of formulas.  Every clause the
    group produces is weakened by the selector's negation, so the group
    constrains a query only when its guard is passed in [solve
    ~assumptions].  Guards that are no longer assumed should be retired
    promptly: an unretired, unassumed guard leaves its atoms in scope for
    the theory check. *)

val new_guard : t -> guard

val add : ?guard:guard -> t -> Expr.t -> unit
(** Assert a formula (deferred until [solve]).  With [?guard] the
    formula is active only while the guard is assumed. *)

val retire_guard : t -> guard -> unit
(** Permanently deactivate a guard's formulas (level-0 negated-selector
    fact).  Idempotent.  Follow with {!simplify} to reclaim the group's
    clauses. *)

val simplify : t -> unit
(** Drop clauses satisfied at level 0 — i.e. the clauses of retired
    groups — from the solver's databases. *)

exception Timeout
(** Raised by {!solve} when [should_stop] returns [true] (polled once
    per DPLL(T) iteration and every 256 SAT conflicts, see {!Sat.solve}). *)

val solve :
  ?should_stop:(unit -> bool) ->
  ?assumptions:guard list ->
  t ->
  result
(** Solve under the given active guards.  [Unsat] under assumptions does
    not poison the instance: later calls with different assumptions see
    the same shared state (atoms, lemmas, learnt clauses). *)

val theory_conflicts : t -> int
val sat_stats : t -> int * int * int
(** (conflicts, decisions, propagations) accumulated over the session. *)

val sat_ext_stats : t -> int * int * int
(** (learnt clauses created, Luby restarts, learnt-DB reductions)
    accumulated over the session. *)
