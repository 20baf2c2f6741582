(* DPLL(T): the CDCL SAT core combined with the difference-logic theory.

   Usage mirrors a small subset of the Z3 API the paper relies on:
   - declare order variables ([new_order_var]) and booleans ([new_bool]);
   - build formulas with [lt]/[le]/[eq] atoms and {!Expr} connectives;
   - [add] asserts a formula; [solve] returns [Sat model] or [Unsat].

   The loop is offline-lazy: SAT finds a complete boolean assignment; the
   true (and negated-false) difference atoms are checked by Bellman-Ford;
   a negative cycle becomes a blocking clause; repeat.  This is sound and
   complete for the QF_IDL + pseudo-boolean fragment GCatch generates.

   Incremental use (the BMOC per-channel solver session):
   - [new_guard] allocates a selector; [add ~guard] asserts a formula
     weakened by the selector's negation, so the formula is active only
     while the selector is assumed true;
   - [solve ~assumptions] activates a set of guards for one query.
     Atoms, theory lemmas (blocking clauses), learnt clauses, and VSIDS
     activity are shared across queries.  Soundness: every clause of a
     guarded group carries the ¬selector literal, resolution can never
     eliminate it (selectors occur only negatively), so learnt clauses
     inherit the selectors of every group they depend on and are
     satisfied — hence inert — once those groups retire.  Theory lemmas
     are tautologies over their atoms and stay valid forever;
   - [retire_guard] asserts the selector's negation as a level-0 fact,
     permanently deactivating the group; [simplify] then reclaims its
     clauses.  The theory check and branching are scoped to the atoms and
     variables of the active groups (reference counts maintained at
     flush time), keeping each query proportional to the live problem
     rather than to everything ever asserted in the session. *)

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
