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

val reset : t -> unit
(** Empty the solver in place: afterwards it behaves exactly as a fresh
    [create] would (no atoms, variables, clauses or statistics), but
    keeps its storage. *)

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

(** {2 Direct encoding}

    A caller that knows its formulas' shapes can skip {!Expr}: it
    interns atoms by id, emits each formula's clauses through {!cnf}'s
    gates (literals of atoms through {!occ}), closes each formula with
    {!end_formula}, and lets {!solve} hand the batch to the SAT core —
    the same instance, variable numbers and branching order that adding
    the equivalent formulas with {!add} gives. *)

val diff_atom : t -> ovar -> ovar -> int -> int
(** [diff_atom t x y c] is the id of the atom [x - y <= c] ([le_c]'s
    atom). *)

val bool_atom : t -> int
(** A fresh boolean atom's id ([new_bool]'s atom). *)

val begin_problem : t -> guard -> unit
(** Open a batch of formulas weakened by the guard's selector.  {!solve}
    commits it; {!retire_guard} on the guard drops it uncommitted. *)

val cnf : t -> Cnf.t
(** The open batch's clause buffer. *)

val occ : t -> int -> int
(** An occurrence of an atom in the current formula: its positive SAT
    literal. *)

val end_formula : t -> unit
(** Close the current formula of the open batch. *)

val instance : t -> int * int * int
(** The SAT instance so far: (variables, clauses added, digest of the
    clauses in order), see {!Sat.clause_stream}. *)

val theory_conflicts : t -> int
val sat_stats : t -> int * int * int
(** (conflicts, decisions, propagations) accumulated over the session. *)

val sat_ext_stats : t -> int * int * int
(** (learnt clauses created, Luby restarts, learnt-DB reductions)
    accumulated over the session. *)
