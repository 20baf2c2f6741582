(** Boolean formulas over named atoms, Tseitin CNF conversion, and
    guarded sequential-counter cardinality encodings.

    GCatch's constraint generator builds ΦR ∧ ΦB as a {!t} whose atoms
    are either pure booleans (the paper's P match variables) or
    difference-logic atoms over order variables; {!Solver} maps atoms to
    SAT variables and dispatches difference atoms to the theory.

    Cardinalities ([AtMost]/[AtLeast]/[Exactly]) are reified for
    *positive* polarity only; negative occurrences are rewritten into
    their exact integer complements (¬(≤k) ≡ ≥k+1) by {!nnf_not} before
    encoding, so arbitrary formulas remain sound. *)

type t =
  | True
  | False
  | Atom of int
  | Not of t
  | And of t list
  | Or of t list
  | Implies of t * t
  | Iff of t * t
  | AtMost of int * t list   (** at most k of the formulas are true *)
  | AtLeast of int * t list
  | Exactly of int * t list

val atom : int -> t
val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t
val not_ : t -> t
val implies : t -> t -> t
val iff : t -> t -> t
val conj : t list -> t
val disj : t list -> t
val exactly_one : t list -> t

val to_string : t -> string

val nnf_not : t -> t
(** Push a negation one level in, turning negated cardinalities into
    their exact complements. *)

val lit_of : Cnf.t -> (int -> int) -> t -> int
(** [lit_of c atom f] Tseitin-translates [f] through [c]'s gates, with
    [atom] mapping atom ids to positive SAT literals, and returns the
    formula's defining literal. *)

val assert_formula : Cnf.t -> (int -> int) -> t -> unit
(** Assert a formula as a top-level fact (flattening conjunctions and
    emitting cardinalities unguarded). *)
