(* Boolean formula AST over named atoms, plus Tseitin CNF conversion and a
   sequential-counter cardinality encoder.

   The GCatch constraint generator builds ΦR ∧ ΦB as a [t] over two atom
   kinds — pure booleans (the paper's P match variables, CLOSED variables)
   and difference-logic atoms over order variables (the paper's O
   variables).  [Solver] maps atoms to SAT variables and dispatches
   difference atoms to the theory. *)

type t =
  | True
  | False
  | Atom of int          (* positive occurrence of atom id *)
  | Not of t
  | And of t list
  | Or of t list
  | Implies of t * t
  | Iff of t * t
  | AtMost of int * t list   (* at most k of the formulas are true *)
  | AtLeast of int * t list
  | Exactly of int * t list

let atom i = Atom i
let ( &&& ) a b = And [ a; b ]
let ( ||| ) a b = Or [ a; b ]
let not_ a = Not a
let implies a b = Implies (a, b)
let iff a b = Iff (a, b)
let conj xs = And xs
let disj xs = Or xs
let exactly_one xs = Exactly (1, xs)

let rec to_string = function
  | True -> "true"
  | False -> "false"
  | Atom i -> Printf.sprintf "a%d" i
  | Not f -> "!(" ^ to_string f ^ ")"
  | And fs -> "(" ^ String.concat " & " (List.map to_string fs) ^ ")"
  | Or fs -> "(" ^ String.concat " | " (List.map to_string fs) ^ ")"
  | Implies (a, b) -> "(" ^ to_string a ^ " => " ^ to_string b ^ ")"
  | Iff (a, b) -> "(" ^ to_string a ^ " <=> " ^ to_string b ^ ")"
  | AtMost (k, fs) ->
      Printf.sprintf "atmost(%d; %s)" k (String.concat ", " (List.map to_string fs))
  | AtLeast (k, fs) ->
      Printf.sprintf "atleast(%d; %s)" k (String.concat ", " (List.map to_string fs))
  | Exactly (k, fs) ->
      Printf.sprintf "exactly(%d; %s)" k (String.concat ", " (List.map to_string fs))

(* ------------------------------------------------------------- CNF *)

(* Push negation through the formula so that cardinalities only ever
   occur positively (their complements are exact over integers). *)
let rec nnf_not (f : t) : t =
  match f with
  | True -> False
  | False -> True
  | Atom _ -> Not f
  | Not g -> g
  | And fs -> Or (List.map nnf_not fs)
  | Or fs -> And (List.map nnf_not fs)
  | Implies (a, b) -> And [ a; nnf_not b ]
  | Iff (a, b) -> Iff (a, nnf_not b)
  | AtMost (k, fs) -> AtLeast (k + 1, fs)
  | AtLeast (k, fs) -> AtMost (k - 1, fs)
  | Exactly (k, fs) -> Or [ AtMost (k - 1, fs); AtLeast (k + 1, fs) ]

(* Tseitin transformation through the gates of {!Cnf}: [atom] maps an
   atom id to its positive SAT literal.  Returns the literal
   representing the whole formula; children are translated left to
   right, before their parent's gate variable is allocated. *)
let rec lit_of c atom (f : t) : int =
  match f with
  | True -> Cnf.true_ c
  | False -> Cnf.false_ c
  | Atom i -> atom i
  | Not (Atom i) -> Sat.neg (atom i)
  | Not g -> lit_of c atom (nnf_not g)
  | And fs -> Cnf.and_ c (operands c atom fs)
  | Or fs -> Cnf.or_ c (operands c atom fs)
  | Implies (a, b) -> lit_of c atom (Or [ Not a; b ])
  | Iff (a, b) ->
      let la = lit_of c atom a in
      let lb = lit_of c atom b in
      Cnf.iff c la lb
  | AtMost (k, fs) -> Cnf.at_most c k (operands c atom fs)
  | AtLeast (k, fs) -> Cnf.at_least c k (operands c atom fs)
  | Exactly (k, fs) -> Cnf.exactly c k (operands c atom fs)

(* Push the literals of [fs] as operands; returns where they start. *)
and operands c atom fs =
  let from = Cnf.sp c in
  List.iter (fun f -> Cnf.push c (lit_of c atom f)) fs;
  from

(* Assert [f] as a top-level fact. *)
let assert_formula c atom (f : t) =
  (* flatten top-level conjunctions to keep the CNF small *)
  let rec go f =
    match f with
    | True -> ()
    | And fs -> List.iter go fs
    | False -> Cnf.empty c
    | Or fs when List.for_all (function Atom _ | Not (Atom _) -> true | _ -> false) fs ->
        Cnf.assert_or c (operands c atom fs)
    | AtMost (k, fs) -> Cnf.assert_at_most c k (operands c atom fs)
    | AtLeast (k, fs) -> Cnf.assert_at_least c k (operands c atom fs)
    | Exactly (k, fs) -> Cnf.assert_exactly c k (operands c atom fs)
    | other -> Cnf.assert_lit c (lit_of c atom other)
  in
  go f
