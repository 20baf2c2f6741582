(* SMT solver tests: the CDCL core, difference logic, cardinalities, and
   DPLL(T) integration — including randomized cross-checks against brute
   force, since the whole BMOC detector rests on this solver. *)

module S = Gosmt.Solver
module E = Gosmt.Expr
module Sat = Gosmt.Sat
module D = Gosmt.Diff_logic

let is_sat = function S.Sat_model _ -> true | S.Unsat -> false

let check_sat name expected build =
  let t = S.create () in
  build t;
  Alcotest.(check bool) name expected (is_sat (S.solve t))

(* ---- pure SAT ---- *)

let test_sat_trivial () =
  check_sat "single positive" true (fun t -> S.add t (S.new_bool t))

let test_sat_contradiction () =
  check_sat "a and not a" false (fun t ->
      let a = S.new_bool t in
      S.add t a;
      S.add t (E.not_ a))

let test_sat_implication_chain () =
  let t = S.create () in
  let a = S.new_bool t and b = S.new_bool t and c = S.new_bool t in
  S.add t (E.implies a b);
  S.add t (E.implies b c);
  S.add t a;
  (match S.solve t with
  | S.Sat_model m ->
      Alcotest.(check bool) "c forced" true (m.bool_of c);
      Alcotest.(check bool) "b forced" true (m.bool_of b)
  | S.Unsat -> Alcotest.fail "should be sat")

let test_sat_iff () =
  check_sat "iff conflict" false (fun t ->
      let a = S.new_bool t and b = S.new_bool t in
      S.add t (E.iff a b);
      S.add t a;
      S.add t (E.not_ b))

let test_sat_pigeonhole () =
  (* 3 pigeons, 2 holes: classic small unsat *)
  let t = S.create () in
  let ps = Array.init 3 (fun _ -> Array.init 2 (fun _ -> S.new_bool t)) in
  let v i j = ps.(i - 1).(j - 1) in
  for i = 1 to 3 do
    S.add t (E.disj [ v i 1; v i 2 ])
  done;
  for j = 1 to 2 do
    S.add t (E.AtMost (1, [ v 1 j; v 2 j; v 3 j ]))
  done;
  Alcotest.(check bool) "pigeonhole unsat" false (is_sat (S.solve t))

(* ---- difference logic ---- *)

let test_dl_chain_model () =
  let t = S.create () in
  let vs = List.init 6 (fun _ -> S.new_order_var t) in
  let rec chain = function
    | a :: (b :: _ as rest) ->
        S.add t (S.lt t a b);
        chain rest
    | _ -> ()
  in
  chain vs;
  match S.solve t with
  | S.Sat_model m ->
      let vals = List.map m.order_of vs in
      Alcotest.(check bool) "strictly increasing" true
        (List.for_all2 (fun a b -> a < b) (List.filteri (fun i _ -> i < 5) vals)
           (List.tl vals))
  | S.Unsat -> Alcotest.fail "chain should be sat"

let test_dl_cycle () =
  check_sat "3-cycle" false (fun t ->
      let x = S.new_order_var t
      and y = S.new_order_var t
      and z = S.new_order_var t in
      S.add t (S.lt t x y);
      S.add t (S.lt t y z);
      S.add t (S.lt t z x))

let test_dl_eq_vs_lt () =
  check_sat "eq and lt conflict" false (fun t ->
      let x = S.new_order_var t and y = S.new_order_var t in
      S.add t (S.eq t x y);
      S.add t (S.lt t x y))

let test_dl_negated_atom () =
  (* not (x < y) must imply y <= x *)
  let t = S.create () in
  let x = S.new_order_var t and y = S.new_order_var t in
  S.add t (E.not_ (S.lt t x y));
  (match S.solve t with
  | S.Sat_model m ->
      Alcotest.(check bool) "y <= x" true (m.order_of y <= m.order_of x)
  | S.Unsat -> Alcotest.fail "should be sat")

let test_dl_guarded () =
  (* p -> x<y, q -> y<x, p|q sat; p&q unsat *)
  let t = S.create () in
  let x = S.new_order_var t and y = S.new_order_var t in
  let p = S.new_bool t and q = S.new_bool t in
  S.add t (E.implies p (S.lt t x y));
  S.add t (E.implies q (S.lt t y x));
  S.add t (E.disj [ p; q ]);
  Alcotest.(check bool) "disjunction sat" true (is_sat (S.solve t));
  let t2 = S.create () in
  let x = S.new_order_var t2 and y = S.new_order_var t2 in
  let p = S.new_bool t2 and q = S.new_bool t2 in
  S.add t2 (E.implies p (S.lt t2 x y));
  S.add t2 (E.implies q (S.lt t2 y x));
  S.add t2 p;
  S.add t2 q;
  Alcotest.(check bool) "conjunction unsat" false (is_sat (S.solve t2))

(* ---- incremental sessions: guards and assumptions ---- *)

let test_assumption_groups_independent () =
  (* two contradictory guarded groups in one instance: each is sat on its
     own, both together unsat, and an unsat query must not poison the
     shared state for later queries *)
  let t = S.create () in
  let x = S.new_order_var t and y = S.new_order_var t in
  let g1 = S.new_guard t and g2 = S.new_guard t in
  S.add ~guard:g1 t (S.lt t x y);
  S.add ~guard:g2 t (S.lt t y x);
  Alcotest.(check bool) "no assumptions sat" true (is_sat (S.solve t));
  (match S.solve ~assumptions:[ g1 ] t with
  | S.Sat_model m ->
      Alcotest.(check bool) "g1 orders x<y" true (m.order_of x < m.order_of y)
  | S.Unsat -> Alcotest.fail "g1 alone should be sat");
  (match S.solve ~assumptions:[ g2 ] t with
  | S.Sat_model m ->
      Alcotest.(check bool) "g2 orders y<x" true (m.order_of y < m.order_of x)
  | S.Unsat -> Alcotest.fail "g2 alone should be sat");
  Alcotest.(check bool) "g1+g2 unsat" false
    (is_sat (S.solve ~assumptions:[ g1; g2 ] t));
  (* the Unsat above was under assumptions only: g1 must still be sat *)
  Alcotest.(check bool) "g1 sat after unsat query" true
    (is_sat (S.solve ~assumptions:[ g1 ] t))

let test_retire_guard () =
  let t = S.create () in
  let a = S.new_bool t in
  let g = S.new_guard t in
  S.add ~guard:g t (E.not_ a);
  S.add t a;
  Alcotest.(check bool) "contradiction under g" false
    (is_sat (S.solve ~assumptions:[ g ] t));
  S.retire_guard t g;
  S.simplify t;
  Alcotest.(check bool) "sat once g is retired" true (is_sat (S.solve t));
  (* retirement is permanent: assuming a retired guard is plain unsat *)
  Alcotest.(check bool) "retired guard cannot be assumed" false
    (is_sat (S.solve ~assumptions:[ g ] t));
  (* ... and still does not poison unassumed queries *)
  Alcotest.(check bool) "still sat without assumptions" true
    (is_sat (S.solve t))

let test_session_reuse_many_queries () =
  (* the BMOC usage pattern: one instance, many groups, each queried and
     retired in turn; every verdict must match a fresh-solver run *)
  let t = S.create () in
  let x = S.new_order_var t and y = S.new_order_var t in
  S.add t (S.lt t x y);
  for i = 0 to 19 do
    let g = S.new_guard t in
    (* even groups agree with the permanent x<y, odd ones contradict it *)
    S.add ~guard:g t (if i mod 2 = 0 then S.lt t x y else S.lt t y x);
    Alcotest.(check bool)
      (Printf.sprintf "group %d verdict" i)
      (i mod 2 = 0)
      (is_sat (S.solve ~assumptions:[ g ] t));
    S.retire_guard t g;
    if i mod 8 = 7 then S.simplify t
  done;
  Alcotest.(check bool) "session still usable" true (is_sat (S.solve t))

let test_sat_ext_stats () =
  (* a pigeonhole burn must surface in the extended counters that feed
     the sat.learnt_clauses / sat.restarts / sat.db_reductions metrics *)
  let t = S.create () in
  let ps = Array.init 6 (fun _ -> Array.init 5 (fun _ -> S.new_bool t)) in
  let v i j = ps.(i - 1).(j - 1) in
  for i = 1 to 6 do
    S.add t (E.disj (List.init 5 (fun j -> v i (j + 1))))
  done;
  for j = 1 to 5 do
    S.add t (E.AtMost (1, List.init 6 (fun i -> v (i + 1) j)))
  done;
  Alcotest.(check bool) "pigeonhole 6/5 unsat" false (is_sat (S.solve t));
  let conflicts, decisions, _ = S.sat_stats t in
  let learnt, restarts, reductions = S.sat_ext_stats t in
  Alcotest.(check bool) "conflicts counted" true (conflicts > 0);
  Alcotest.(check bool) "decisions counted" true (decisions > 0);
  Alcotest.(check bool) "learnt clauses counted" true (learnt > 0);
  Alcotest.(check bool) "restart/reduction counters sane" true
    (restarts >= 0 && reductions >= 0)

(* ---- cardinality ---- *)

let test_card_atmost_inside_or () =
  (* the regression that broke double-recv detection: a cardinality under
     a disjunction must NOT leak as a global constraint *)
  let t = S.create () in
  let x = S.new_order_var t and y = S.new_order_var t in
  let a = S.new_bool t in
  (* either y < x (via cardinality: at most 0 of [not (y<x)]) or a *)
  S.add t (E.disj [ E.AtMost (0, [ E.not_ (S.lt t y x) ]); a ]);
  (* force x < y so the cardinality branch is false *)
  S.add t (S.lt t x y);
  (match S.solve t with
  | S.Sat_model m -> Alcotest.(check bool) "a chosen" true (m.bool_of a)
  | S.Unsat -> Alcotest.fail "disjunction should rescue satisfiability")

let test_card_exactly () =
  let t = S.create () in
  let vs = List.init 5 (fun _ -> S.new_bool t) in
  S.add t (E.Exactly (2, vs));
  (match S.solve t with
  | S.Sat_model m ->
      let n =
        List.length
          (List.filter m.bool_of vs)
      in
      Alcotest.(check int) "exactly two true" 2 n
  | S.Unsat -> Alcotest.fail "should be sat")

let test_card_bounds () =
  check_sat "atleast too many" false (fun t ->
      let vs = List.init 3 (fun _ -> S.new_bool t) in
      S.add t (E.AtLeast (4, vs)));
  check_sat "atmost negative" false (fun t ->
      let a = S.new_bool t in
      S.add t (E.AtMost (-1, [ a ])))

(* ---- clause simplification in the SAT core ---- *)

(* A core with [n] fresh variables; [pos v] / [ng v] are v's literals. *)
let sat_with n =
  let s = Sat.create () in
  for _ = 1 to n do
    ignore (Sat.new_var s)
  done;
  s

let pos v = Sat.lit_of_var v true
let ng v = Sat.lit_of_var v false

let test_add_clause_duplicate () =
  (* a duplicated literal is dropped: [a; a] is the unit [a], which is
     propagated at level 0 instead of being stored *)
  let s = sat_with 2 in
  Alcotest.(check bool) "added" true (Sat.add_clause s [ pos 1; pos 1 ]);
  Alcotest.(check int) "unit not stored" 0 (Sat.n_clauses s);
  Alcotest.(check bool) "a forced" false (Sat.add_clause s [ ng 1 ]);
  (* with a second literal the clause is stored once, as a binary *)
  let s = sat_with 2 in
  ignore (Sat.add_clause s [ pos 1; pos 2; pos 1 ]);
  Alcotest.(check int) "stored" 1 (Sat.n_clauses s);
  ignore (Sat.add_clause s [ ng 1 ]);
  Alcotest.(check bool) "b forced once a is false" false
    (Sat.add_clause s [ ng 2 ])

let test_add_clause_tautology () =
  let s = sat_with 2 in
  Alcotest.(check bool) "satisfied" true
    (Sat.add_clause s [ pos 1; pos 2; ng 1 ]);
  Alcotest.(check int) "not stored" 0 (Sat.n_clauses s);
  ignore (Sat.add_clause s [ ng 2 ]);
  Alcotest.(check bool) "a still free" true (Sat.add_clause s [ ng 1 ]);
  Alcotest.(check bool) "sat" true (Sat.solve s = Sat.Sat)

let test_add_clause_false_literal () =
  (* a literal false at level 0 is dropped, leaving the unit [b] *)
  let s = sat_with 2 in
  ignore (Sat.add_clause s [ ng 1 ]);
  Alcotest.(check bool) "added" true (Sat.add_clause s [ pos 1; pos 2 ]);
  Alcotest.(check int) "became a unit" 0 (Sat.n_clauses s);
  Alcotest.(check bool) "b forced" false (Sat.add_clause s [ ng 2 ])

let test_add_clause_all_false () =
  let s = sat_with 2 in
  ignore (Sat.add_clause s [ ng 1 ]);
  ignore (Sat.add_clause s [ ng 2 ]);
  Alcotest.(check bool) "empty after simplification" false
    (Sat.add_clause s [ pos 1; pos 2; pos 1 ]);
  Alcotest.(check bool) "unsat" true (Sat.solve s = Sat.Unsat);
  Alcotest.(check bool) "stays unsat" false (Sat.add_clause s [ pos 2 ])

let test_add_clause_unit_propagates () =
  (* a unit propagates through the stored clauses at once *)
  let s = sat_with 3 in
  ignore (Sat.add_clause s [ ng 1; pos 2 ]);
  ignore (Sat.add_clause s [ ng 2; pos 3 ]);
  Alcotest.(check bool) "unit added" true (Sat.add_clause s [ pos 1 ]);
  Alcotest.(check bool) "c forced through b" false (Sat.add_clause s [ ng 3 ])

let test_add_clause_after_growth () =
  (* the literal stamps grow with the variables: simplification of
     high-numbered literals, past the initial capacity, still works *)
  let s = sat_with 100 in
  Alcotest.(check bool) "tautology" true
    (Sat.add_clause s [ pos 97; ng 99; pos 99 ]);
  Alcotest.(check int) "tautology not stored" 0 (Sat.n_clauses s);
  ignore (Sat.add_clause s [ pos 100; pos 98; pos 100; pos 98 ]);
  Alcotest.(check int) "stored once" 1 (Sat.n_clauses s);
  for _ = 1 to 200 do
    ignore (Sat.new_var s)
  done;
  ignore (Sat.add_clause s [ pos 300; pos 300 ]);
  Alcotest.(check int) "duplicate unit not stored" 1 (Sat.n_clauses s);
  ignore (Sat.add_clause s [ ng 100 ]);
  Alcotest.(check bool) "sat" true (Sat.solve s = Sat.Sat);
  Alcotest.(check bool) "300 forced" true (Sat.model_value s 300);
  Alcotest.(check bool) "98 forced" true (Sat.model_value s 98)

let test_repeated_assumption_solves () =
  (* decision levels are rebuilt from scratch on every solve: the same
     assumptions twice in a row cost the same decisions and
     propagations, both when the assumptions hold (b is already implied
     by a, so its level is empty) and when they contradict *)
  let s = sat_with 5 in
  ignore (Sat.add_clause s [ ng 1; pos 2 ]);
  ignore (Sat.add_clause s [ pos 3; pos 4 ]);
  ignore (Sat.add_clause s [ ng 3; pos 5 ]);
  let delta assumptions =
    let c0, d0, p0 = Sat.stats s in
    let r = Sat.solve ~assumptions s in
    let c1, d1, p1 = Sat.stats s in
    (r = Sat.Sat, c1 - c0, d1 - d0, p1 - p0)
  in
  let show (r, c, d, p) = Printf.sprintf "sat=%b c=%d d=%d p=%d" r c d p in
  let first = delta [ pos 1; pos 2 ] in
  Alcotest.(check string) "same deltas" (show first)
    (show (delta [ pos 1; pos 2 ]));
  let _, _, decisions, _ = first in
  Alcotest.(check bool) "assumption and free decisions" true (decisions >= 2);
  let refuted = delta [ pos 1; ng 2 ] in
  Alcotest.(check bool) "contradicting assumptions unsat" false
    (let r, _, _, _ = refuted in r);
  Alcotest.(check string) "same deltas when unsat" (show refuted)
    (show (delta [ pos 1; ng 2 ]))

(* ---- randomized cross-checks ---- *)

(* Brute-force satisfiability of difference constraints.  Solutions are
   shift-invariant, so pinning variable 0 at 0 and ranging the others over
   [0, sum |c|] is complete. *)
let brute_force_dl nvars (atoms : (int * int * int) list) =
  let dom = 1 + List.fold_left (fun acc (_, _, c) -> acc + abs c + 1) 0 atoms in
  let rec go assignment i =
    if i = nvars then
      List.for_all (fun (x, y, c) -> assignment.(x) - assignment.(y) <= c) atoms
    else
      let rec try_val v =
        v < dom
        && (assignment.(i) <- v;
            go assignment (i + 1) || try_val (v + 1))
      in
      try_val 0
  in
  go (Array.make nvars 0) 0

let prop_dl_vs_brute =
  QCheck.Test.make ~name:"diff logic agrees with brute force" ~count:120
    QCheck.(
      pair (int_range 2 4)
        (list_of_size Gen.(1 -- 6)
           (triple (int_range 0 3) (int_range 0 3) (int_range (-2) 2))))
    (fun (nvars, raw) ->
      let atoms =
        List.filter_map
          (fun (x, y, c) ->
            if x < nvars && y < nvars && x <> y then
              Some { D.ax = x; ay = y; ac = c }
            else None)
          raw
      in
      QCheck.assume (atoms <> []);
      let expected =
        brute_force_dl nvars (List.map (fun a -> (a.D.ax, a.D.ay, a.D.ac)) atoms)
      in
      let got = match D.check ~nvars atoms with D.Consistent _ -> true | _ -> false in
      expected = got)

let prop_dl_model_valid =
  QCheck.Test.make ~name:"diff logic models satisfy all atoms" ~count:120
    QCheck.(
      list_of_size Gen.(1 -- 8)
        (triple (int_range 0 4) (int_range 0 4) (int_range (-3) 3)))
    (fun raw ->
      let atoms =
        List.filter_map
          (fun (x, y, c) -> if x <> y then Some { D.ax = x; ay = y; ac = c } else None)
          raw
      in
      QCheck.assume (atoms <> []);
      match D.check ~nvars:5 atoms with
      | D.Consistent m ->
          List.for_all (fun a -> m.(a.D.ax) - m.(a.D.ay) <= a.D.ac) atoms
      | D.Inconsistent cycle ->
          (* the explanation must itself be a contradictory set *)
          cycle <> []
          && (match D.check ~nvars:5 cycle with
             | D.Inconsistent _ -> true
             | D.Consistent _ -> false))

(* brute force a CNF over n variables *)
let brute_force_cnf nvars clauses =
  let rec go assignment v =
    if v > nvars then
      List.for_all
        (List.exists (fun l ->
             let var = Sat.var_of_lit l in
             if Sat.is_pos l then assignment.(var) else not assignment.(var)))
        clauses
    else
      (assignment.(v) <- true;
       go assignment (v + 1))
      ||
      (assignment.(v) <- false;
       go assignment (v + 1))
  in
  go (Array.make (nvars + 1) false) 1

let prop_sat_vs_brute =
  QCheck.Test.make ~name:"CDCL agrees with brute force on random 3-CNF" ~count:150
    QCheck.(
      list_of_size Gen.(1 -- 18)
        (triple (int_range 1 5) (int_range 1 5) (int_range 1 5)))
    (fun raw ->
      let nvars = 5 in
      let clauses =
        List.mapi
          (fun i (a, b, c) ->
            (* derive signs deterministically from the clause index *)
            let lit v bit = Sat.lit_of_var v ((i lsr bit) land 1 = 0) in
            [ lit a 0; lit b 1; lit c 2 ])
          raw
      in
      QCheck.assume (clauses <> []);
      let s = Sat.create () in
      for _ = 1 to nvars do
        ignore (Sat.new_var s)
      done;
      List.iter (fun c -> ignore (Sat.add_clause s c)) clauses;
      let got = Sat.solve s = Sat.Sat in
      let expected = brute_force_cnf nvars clauses in
      got = expected)

let prop_card_counts =
  QCheck.Test.make ~name:"AtMost(k) models have <= k true" ~count:100
    QCheck.(pair (int_range 0 4) (int_range 1 6))
    (fun (k, n) ->
      let t = S.create () in
      let vs = List.init n (fun _ -> S.new_bool t) in
      S.add t (E.AtMost (k, vs));
      (* maximise: ask for at least min(k, n) too *)
      S.add t (E.AtLeast (min k n, vs));
      match S.solve t with
      | S.Sat_model m ->
          let cnt =
            List.length
              (List.filter m.bool_of vs)
          in
          cnt <= k && cnt >= min k n
      | S.Unsat -> false)

let tests =
  [
    Alcotest.test_case "trivial sat" `Quick test_sat_trivial;
    Alcotest.test_case "contradiction" `Quick test_sat_contradiction;
    Alcotest.test_case "implication chain" `Quick test_sat_implication_chain;
    Alcotest.test_case "iff" `Quick test_sat_iff;
    Alcotest.test_case "pigeonhole 3/2" `Quick test_sat_pigeonhole;
    Alcotest.test_case "order chain model" `Quick test_dl_chain_model;
    Alcotest.test_case "order cycle unsat" `Quick test_dl_cycle;
    Alcotest.test_case "eq vs lt" `Quick test_dl_eq_vs_lt;
    Alcotest.test_case "negated difference atom" `Quick test_dl_negated_atom;
    Alcotest.test_case "guarded difference atoms" `Quick test_dl_guarded;
    Alcotest.test_case "assumption groups independent" `Quick
      test_assumption_groups_independent;
    Alcotest.test_case "retire guard" `Quick test_retire_guard;
    Alcotest.test_case "session reuse across queries" `Quick
      test_session_reuse_many_queries;
    Alcotest.test_case "extended sat stats" `Quick test_sat_ext_stats;
    Alcotest.test_case "cardinality under disjunction" `Quick test_card_atmost_inside_or;
    Alcotest.test_case "exactly-k" `Quick test_card_exactly;
    Alcotest.test_case "cardinality bounds" `Quick test_card_bounds;
    Alcotest.test_case "add_clause drops duplicates" `Quick
      test_add_clause_duplicate;
    Alcotest.test_case "add_clause tautology" `Quick test_add_clause_tautology;
    Alcotest.test_case "add_clause false literal" `Quick
      test_add_clause_false_literal;
    Alcotest.test_case "add_clause all false" `Quick test_add_clause_all_false;
    Alcotest.test_case "add_clause unit propagates" `Quick
      test_add_clause_unit_propagates;
    Alcotest.test_case "add_clause after growth" `Quick
      test_add_clause_after_growth;
    Alcotest.test_case "repeated assumption solves" `Quick
      test_repeated_assumption_solves;
    QCheck_alcotest.to_alcotest prop_dl_vs_brute;
    QCheck_alcotest.to_alcotest prop_dl_model_valid;
    QCheck_alcotest.to_alcotest prop_sat_vs_brute;
    QCheck_alcotest.to_alcotest prop_card_counts;
  ]
