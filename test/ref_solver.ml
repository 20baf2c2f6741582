(* The reference solver front end: the DPLL(T) driver and the Tseitin
   and cardinality translation as they were before BMOC's encoder wrote
   clauses through [Gosmt.Cnf], kept verbatim apart from module paths.
   [Ref_encoder] adds its formulas here, so the clauses it hands the SAT
   core come from this copy of the translation, not from the one the
   encoder under test shares with [Gosmt.Solver]: a change to
   [Gosmt.Cnf]'s gates, cardinalities or variable order shows up as a
   different instance in [Suite_encoder].  Only the SAT core
   ([Gosmt.Sat]) and the difference-logic check are shared.  Not used
   outside the tests. *)

module Sat = Gosmt.Sat
module Diff_logic = Gosmt.Diff_logic

(* The formula type is [Gosmt.Expr.t]; the translation is the old one. *)
module Expr = struct
  type t = Gosmt.Expr.t =
    | True
    | False
    | Atom of int
    | Not of t
    | And of t list
    | Or of t list
    | Implies of t * t
    | Iff of t * t
    | AtMost of int * t list
    | AtLeast of int * t list
    | Exactly of int * t list

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
end

type ovar = int (* order variable index, dense from 0 *)

type atom_info =
  | Abool (* a fresh boolean: never shared *)
  | Adiff of Diff_logic.atom (* x - y <= c *)

type guard = {
  g_var : int; (* the selector's SAT variable *)
  mutable g_atoms : int list; (* flushed atom references to release *)
  mutable g_vars : int list;  (* decision variables of the group *)
  mutable g_retired : bool;
}

type t = {
  sat : Sat.t;
  mutable atoms : atom_info array; (* atom id -> info *)
  mutable natoms : int;
  mutable atom_sat_var : int array; (* atom id -> SAT var *)
  mutable atom_refs : int array; (* atom id -> active formula references *)
  atom_cache : (Diff_logic.atom, int) Hashtbl.t;
  mutable atom_stamp : int array; (* atom id -> last [solve] that took it *)
  mutable var_stamp : int array; (* SAT var -> last [solve] that took it *)
  mutable ovar_stamp : int array; (* order var -> last model that mapped it *)
  mutable ovar_dense : int array; (* order var -> its index in that model *)
  mutable stamp : int;
  mutable novars : int;
  mutable pending : (guard option * Expr.t) list;
  mutable perm_vars : int list; (* decision vars of unguarded formulas *)
  mutable perm_atoms : int list; (* atom ids of unguarded formulas *)
  mutable used_guards : bool;
  mutable theory_conflicts : int;
}

type model = {
  order_of : ovar -> int;
  bool_of : Expr.t -> bool;
}

type result = Sat_model of model | Unsat

let create () =
  {
    sat = Sat.create ();
    atoms = Array.make 16 Abool;
    natoms = 0;
    atom_sat_var = Array.make 16 0;
    atom_refs = Array.make 16 0;
    atom_cache = Hashtbl.create 64;
    atom_stamp = Array.make 16 0;
    var_stamp = Array.make 16 0;
    ovar_stamp = Array.make 16 0;
    ovar_dense = Array.make 16 0;
    stamp = 0;
    novars = 0;
    pending = [];
    perm_vars = [];
    perm_atoms = [];
    used_guards = false;
    theory_conflicts = 0;
  }

let new_order_var t : ovar =
  let v = t.novars in
  t.novars <- t.novars + 1;
  v

let new_atom t info : int =
  let id = t.natoms in
  t.natoms <- t.natoms + 1;
  if id >= Array.length t.atoms then begin
    let grow a d = Array.append a (Array.make (Array.length a) d) in
    t.atoms <- grow t.atoms Abool;
    t.atom_sat_var <- grow t.atom_sat_var 0;
    t.atom_refs <- grow t.atom_refs 0;
    t.atom_stamp <- grow t.atom_stamp 0
  end;
  t.atoms.(id) <- info;
  t.atom_sat_var.(id) <- Sat.new_var t.sat;
  t.atom_refs.(id) <- 0;
  id

(* Booleans carry no name: each call is a new atom, and a caller that
   needs the same boolean twice keeps the [Expr.t] it got. *)
let new_bool t : Expr.t = Expr.Atom (new_atom t Abool)

(* x - y <= c; difference atoms are interned *)
let le_c t x y c : Expr.t =
  let a = { Diff_logic.ax = x; ay = y; ac = c } in
  match Hashtbl.find_opt t.atom_cache a with
  | Some id -> Expr.Atom id
  | None ->
      let id = new_atom t (Adiff a) in
      Hashtbl.add t.atom_cache a id;
      Expr.Atom id

let lt t x y = le_c t x y (-1) (* x < y *)
let le t x y = le_c t x y 0
let eq t x y = Expr.And [ le t x y; le t y x ]

let new_guard t : guard =
  t.used_guards <- true;
  { g_var = Sat.new_var t.sat; g_atoms = []; g_vars = []; g_retired = false }

let add ?guard t (f : Expr.t) = t.pending <- (guard, f) :: t.pending

(* Reference every atom occurrence of a flushed formula from its group
   (or from the unguarded set) and cons the atoms' SAT variables onto
   [vars], in occurrence order (so the last occurrence ends up first). *)
let rec note_atoms t g vars (f : Expr.t) =
  match f with
  | Expr.True | Expr.False -> vars
  | Expr.Atom id ->
      t.atom_refs.(id) <- t.atom_refs.(id) + 1;
      (match g with
      | Some g -> g.g_atoms <- id :: g.g_atoms
      | None -> t.perm_atoms <- id :: t.perm_atoms);
      t.atom_sat_var.(id) :: vars
  | Expr.Not h -> note_atoms t g vars h
  | Expr.And fs | Expr.Or fs -> note_list t g vars fs
  | Expr.Implies (a, b) | Expr.Iff (a, b) ->
      note_atoms t g (note_atoms t g vars a) b
  | Expr.AtMost (_, fs) | Expr.AtLeast (_, fs) | Expr.Exactly (_, fs) ->
      note_list t g vars fs

and note_list t g vars = function
  | [] -> vars
  | f :: fs -> note_list t g (note_atoms t g vars f) fs

let flush_pending t =
  match t.pending with
  | [] -> ()
  | fs ->
      t.pending <- [];
      (* one CNF context for the whole flush: [vars] collects the current
         formula's variables and [guard_lit] is its guard's negated
         selector (-1 when unguarded), by which each clause is weakened
         on its way straight into the SAT core *)
      let vars = ref [] and guard_lit = ref (-1) in
      let ctx =
        {
          Expr.fresh =
            (fun () ->
              let v = Sat.new_var t.sat in
              vars := v :: !vars;
              v);
          lit_of_atom = (fun id -> Sat.lit_of_var t.atom_sat_var.(id) true);
          emit =
            (fun c ->
              let c = if !guard_lit < 0 then c else !guard_lit :: c in
              ignore (Sat.add_clause t.sat c));
        }
      in
      List.iter
        (fun (g, f) ->
          vars := note_atoms t g [] f;
          guard_lit :=
            (match g with
            | None -> -1
            | Some g -> Sat.neg (Sat.lit_of_var g.g_var true));
          Expr.assert_formula ctx f;
          match g with
          | None -> t.perm_vars <- List.rev_append !vars t.perm_vars
          | Some g -> g.g_vars <- List.rev_append !vars g.g_vars)
        (List.rev fs)

let retire_guard t g =
  if not g.g_retired then begin
    g.g_retired <- true;
    (* anything still pending under this guard would be satisfied by the
       unit below anyway; drop it before it is ever encoded *)
    t.pending <-
      List.filter
        (fun (g', _) -> match g' with Some g' -> g' != g | None -> true)
        t.pending;
    List.iter
      (fun id -> t.atom_refs.(id) <- t.atom_refs.(id) - 1)
      g.g_atoms;
    g.g_atoms <- [];
    g.g_vars <- [];
    ignore (Sat.add_clause t.sat [ Sat.neg (Sat.lit_of_var g.g_var true) ])
  end

let simplify t =
  flush_pending t;
  Sat.simplify t.sat

exception Timeout = Sat.Timeout

let next_stamp t =
  t.stamp <- t.stamp + 1;
  t.stamp

(* The distinct entries of [lists] that [keep] accepts, in order of first
   occurrence, deduplicated with the stamp array [seen] (indexed by
   entry): one pass counts them, a second fills the array. *)
let distinct t seen keep lists =
  let iter f =
    let stamp = next_stamp t in
    List.iter
      (List.iter (fun x ->
           if keep x && seen.(x) <> stamp then begin
             seen.(x) <- stamp;
             f x
           end))
      lists
  in
  let n = ref 0 in
  iter (fun _ -> incr n);
  let a = Array.make !n 0 and i = ref 0 in
  iter (fun x ->
      a.(!i) <- x;
      incr i);
  a

let solve ?(should_stop = fun () -> false) ?(assumptions = []) t :
    result =
  flush_pending t;
  let asm_lits =
    List.map (fun g -> Sat.lit_of_var g.g_var true) assumptions
  in
  (* Branching is restricted to the variables of the active problem; a
     session that never used guards keeps the original whole-instance
     behaviour. *)
  let decision_vars =
    if not t.used_guards then None
    else begin
      let nvars = Sat.n_vars t.sat in
      if nvars >= Array.length t.var_stamp then
        t.var_stamp <-
          Array.append t.var_stamp
            (Array.make (max (nvars + 1) (Array.length t.var_stamp)) 0);
      (* last occurrence first: the order VSIDS ties are broken in *)
      let vs =
        distinct t t.var_stamp
          (fun _ -> true)
          (t.perm_vars :: List.map (fun g -> g.g_vars) assumptions)
      in
      let n = Array.length vs in
      for i = 0 to (n / 2) - 1 do
        let v = vs.(i) in
        vs.(i) <- vs.(n - 1 - i);
        vs.(n - 1 - i) <- v
      done;
      Some vs
    end
  in
  (* Atoms the theory must check for this query: in a guarded session,
     the atoms of the assumed groups plus those of unguarded formulas —
     NOT everything ever interned.  The scan (and the Bellman-Ford graph
     below) must stay proportional to the live problem: a long session
     interns atoms and order variables for every problem it ever saw, and
     scanning them per query turns the whole session quadratic. *)
  let active_ids =
    if not t.used_guards then None
    else begin
      let ids =
        distinct t t.atom_stamp
          (fun id -> t.atom_refs.(id) > 0)
          (t.perm_atoms :: List.map (fun g -> g.g_atoms) assumptions)
      in
      Array.sort Int.compare ids;
      Some ids
    end
  in
  let rec loop budget =
    if budget = 0 then Unsat (* safety valve; never reached in practice *)
    else if should_stop () then raise Timeout
    else
      match
        Sat.solve ~should_stop ~assumptions:asm_lits
          ?decision_vars t.sat
      with
      | Sat.Unsat -> Unsat
      | Sat.Sat -> (
          (* collect asserted difference atoms (true => atom, false =>
             negation: ¬(x-y<=c) ≡ y-x <= -c-1).  Order variables are
             compressed to a dense range over just the variables the
             active atoms mention, so the Bellman-Ford pass is sized by
             the live problem, not by the session's lifetime total. *)
          let stamp = next_stamp t in
          if t.novars > Array.length t.ovar_stamp then begin
            let n = max t.novars (2 * Array.length t.ovar_stamp) in
            t.ovar_stamp <- Array.make n 0;
            t.ovar_dense <- Array.make n 0
          end;
          let nv = ref 0 in
          (* an order variable's dense index, allocated on first sight *)
          let mapv v =
            if t.ovar_stamp.(v) = stamp then t.ovar_dense.(v)
            else begin
              let i = !nv in
              incr nv;
              t.ovar_stamp.(v) <- stamp;
              t.ovar_dense.(v) <- i;
              i
            end
          in
          (* [f id a' truth] for each active difference atom [id], where
             [a'] is what the model asserts of it *)
          let iter_asserted f =
            let consider id =
              match t.atoms.(id) with
              | Adiff a ->
                  let v = t.atom_sat_var.(id) in
                  let truth = Sat.model_value t.sat v in
                  let a =
                    { Diff_logic.ax = mapv a.ax; ay = mapv a.ay; ac = a.ac }
                  in
                  let a' =
                    if truth then a
                    else { Diff_logic.ax = a.ay; ay = a.ax; ac = -a.ac - 1 }
                  in
                  f id a' truth
              | Abool -> ()
            in
            match active_ids with
            | None -> for id = 0 to t.natoms - 1 do consider id done
            | Some ids -> Array.iter consider ids
          in
          let asserted = ref [] in
          iter_asserted (fun _ a' _ -> asserted := a' :: !asserted);
          match Diff_logic.check ~nvars:(max 1 !nv) !asserted with
          | Diff_logic.Consistent vals ->
              (* a snapshot, so the model outlives the solver's tables *)
              let orders = Array.make t.novars 0 in
              for v = 0 to t.novars - 1 do
                if t.ovar_stamp.(v) = stamp then
                  orders.(v) <- vals.(t.ovar_dense.(v))
              done;
              let order_of v =
                if v >= 0 && v < Array.length orders then orders.(v) else 0
              in
              let bool_of = function
                | Expr.Atom id -> Sat.model_value t.sat t.atom_sat_var.(id)
                | _ -> invalid_arg "Solver.bool_of: not an atom"
              in
              Sat_model { order_of; bool_of }
          | Diff_logic.Inconsistent cycle ->
              t.theory_conflicts <- t.theory_conflicts + 1;
              (* block this combination of atom truth values; a negative
                 cycle is inconsistent regardless of guards, so the lemma
                 is added unguarded and stays valid for the session.  The
                 atom behind each cycle edge is looked up in a table built
                 here, on conflict only. *)
              let provenance = Hashtbl.create 16 in
              iter_asserted (fun id a' truth ->
                  Hashtbl.replace provenance a' (id, truth));
              let clause =
                List.filter_map
                  (fun a ->
                    match Hashtbl.find_opt provenance a with
                    | Some (id, truth) ->
                        let l = Sat.lit_of_var t.atom_sat_var.(id) true in
                        Some (if truth then Sat.neg l else l)
                    | None -> None)
                  cycle
              in
              if clause = [] then Unsat
              else if Sat.add_clause t.sat clause then loop (budget - 1)
              else Unsat)
  in
  loop 100_000

let theory_conflicts t = t.theory_conflicts
let sat_stats t = Sat.stats t.sat
let sat_ext_stats t = Sat.stats_ext t.sat

(* The SAT instance so far, as [Gosmt.Solver.instance] reports it. *)
let instance t =
  let n, digest = Sat.clause_stream t.sat in
  (Sat.n_vars t.sat, n, digest)
