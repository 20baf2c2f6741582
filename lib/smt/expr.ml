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

(* Tseitin transformation.  [fresh ()] allocates a new SAT variable;
   [lit_of_atom] maps an atom id to a SAT literal; [emit] receives each
   clause of SAT literals (see {!Sat} for the encoding) the moment it is
   produced.  Returns the literal representing the whole formula. *)

type cnf_ctx = {
  fresh : unit -> int; (* fresh SAT variable *)
  lit_of_atom : int -> int; (* positive literal for an atom *)
  emit : int list -> unit; (* consume one clause *)
}

let emit ctx c = ctx.emit c

let lit_true ctx =
  (* a dedicated always-true variable *)
  let v = ctx.fresh () in
  let l = Sat.lit_of_var v true in
  emit ctx [ l ];
  l

(* Sequential-counter encoding of  guard -> (sum(xs) <= k)  (Sinz 2005,
   with every clause weakened by the guard).  The guard mechanism reifies
   cardinalities for *positive* polarity, which is all the constraint
   generator needs: negated cardinalities are rewritten into their exact
   complements before reaching here (¬(≤k) ≡ ≥k+1). *)
let encode_at_most_g ctx ~(guard : int option) k (xs : int list) =
  let weaken c = match guard with Some g -> Sat.neg g :: c | None -> c in
  let emit ctx c = emit ctx (weaken c) in
  let n = List.length xs in
  if k >= n then ()
  else if k < 0 then emit ctx [] (* sum <= -1 is unsatisfiable *)
  else if k = 0 then List.iter (fun x -> emit ctx [ Sat.neg x ]) xs
  else begin
    let xs = Array.of_list xs in
    (* s.(i).(j): among x_0..x_i at least (j+1) are true; dims n x k *)
    let s =
      Array.init n (fun _ -> Array.init k (fun _ -> Sat.lit_of_var (ctx.fresh ()) true))
    in
    (* x_0 -> s_{0,0} *)
    emit ctx [ Sat.neg xs.(0); s.(0).(0) ];
    for i = 1 to n - 1 do
      emit ctx [ Sat.neg xs.(i); s.(i).(0) ];
      emit ctx [ Sat.neg s.(i - 1).(0); s.(i).(0) ];
      for j = 1 to k - 1 do
        emit ctx [ Sat.neg xs.(i); Sat.neg s.(i - 1).(j - 1); s.(i).(j) ];
        emit ctx [ Sat.neg s.(i - 1).(j); s.(i).(j) ]
      done;
      (* overflow: x_i and already k true among x_0..x_{i-1} -> conflict *)
      emit ctx [ Sat.neg xs.(i); Sat.neg s.(i - 1).(k - 1) ]
    done
  end

let encode_at_least_g ctx ~guard k xs =
  (* at least k of xs  <=>  at most (n-k) of (not xs) *)
  let n = List.length xs in
  if k <= 0 then ()
  else if k > n then
    emit ctx (match guard with Some g -> [ Sat.neg g ] | None -> [])
  else encode_at_most_g ctx ~guard (n - k) (List.map Sat.neg xs)

let encode_at_most ctx k xs = encode_at_most_g ctx ~guard:None k xs
let encode_at_least ctx k xs = encode_at_least_g ctx ~guard:None k xs

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

(* Translate a formula to a defining literal. *)
let rec lit_of ctx (f : t) : int =
  match f with
  | True -> lit_true ctx
  | False -> Sat.neg (lit_true ctx)
  | Atom i -> ctx.lit_of_atom i
  | Not (Atom i) -> Sat.neg (ctx.lit_of_atom i)
  | Not g -> lit_of ctx (nnf_not g)
  | And fs ->
      let ls = List.map (lit_of ctx) fs in
      let v = Sat.lit_of_var (ctx.fresh ()) true in
      (* v -> each l;  all l -> v *)
      List.iter (fun l -> emit ctx [ Sat.neg v; l ]) ls;
      emit ctx (v :: List.map Sat.neg ls);
      v
  | Or fs ->
      let ls = List.map (lit_of ctx) fs in
      let v = Sat.lit_of_var (ctx.fresh ()) true in
      emit ctx (Sat.neg v :: ls);
      List.iter (fun l -> emit ctx [ v; Sat.neg l ]) ls;
      v
  | Implies (a, b) -> lit_of ctx (Or [ Not a; b ])
  | Iff (a, b) ->
      let la = lit_of ctx a in
      let lb = lit_of ctx b in
      let v = Sat.lit_of_var (ctx.fresh ()) true in
      emit ctx [ Sat.neg v; Sat.neg la; lb ];
      emit ctx [ Sat.neg v; la; Sat.neg lb ];
      emit ctx [ v; la; lb ];
      emit ctx [ v; Sat.neg la; Sat.neg lb ];
      v
  | AtMost (k, fs) ->
      (* reified for positive polarity: v -> (sum <= k) *)
      let ls = List.map (lit_of ctx) fs in
      let v = Sat.lit_of_var (ctx.fresh ()) true in
      encode_at_most_g ctx ~guard:(Some v) k ls;
      v
  | AtLeast (k, fs) ->
      let ls = List.map (lit_of ctx) fs in
      let v = Sat.lit_of_var (ctx.fresh ()) true in
      encode_at_least_g ctx ~guard:(Some v) k ls;
      v
  | Exactly (k, fs) ->
      let ls = List.map (lit_of ctx) fs in
      let v = Sat.lit_of_var (ctx.fresh ()) true in
      encode_at_most_g ctx ~guard:(Some v) k ls;
      encode_at_least_g ctx ~guard:(Some v) k ls;
      v

(* Assert [f] as a top-level fact. *)
let assert_formula ctx (f : t) =
  (* flatten top-level conjunctions to keep the CNF small *)
  let rec go f =
    match f with
    | True -> ()
    | And fs -> List.iter go fs
    | False -> emit ctx []
    | Or fs when List.for_all (function Atom _ | Not (Atom _) -> true | _ -> false) fs ->
        emit ctx
          (List.map
             (function
               | Atom i -> ctx.lit_of_atom i
               | Not (Atom i) -> Sat.neg (ctx.lit_of_atom i)
               | _ -> assert false)
             fs)
    | AtMost (k, fs) -> encode_at_most ctx k (List.map (lit_of ctx) fs)
    | AtLeast (k, fs) -> encode_at_least ctx k (List.map (lit_of ctx) fs)
    | Exactly (k, fs) ->
        let ls = List.map (lit_of ctx) fs in
        encode_at_most ctx k ls;
        encode_at_least ctx k ls
    | other -> emit ctx [ lit_of ctx other ]
  in
  go f
