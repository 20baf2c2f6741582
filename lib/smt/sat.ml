(* A CDCL SAT solver.

   Standard architecture: two-watched-literal propagation, first-UIP
   conflict analysis with clause learning, non-chronological backjumping,
   and VSIDS-style variable activities.  The solver supports incremental
   clause addition between [solve] calls, which the DPLL(T) driver uses to
   add theory-conflict (blocking) clauses.

   Incremental extensions (MiniSat-style):
   - [solve ~assumptions] treats a list of literals as successive pseudo
     decisions occupying the first decision levels.  A conflict that
     forces the negation of an assumption returns [Unsat] *without*
     poisoning the solver ([ok] stays true), so the instance can be
     re-solved under different assumptions.  Learnt clauses are derived by
     resolution from the clause database only — never from the assumption
     decisions themselves — so they remain valid across solves.
   - [solve ~decision_vars] restricts branching to a caller-supplied
     variable set.  The DPLL(T) driver passes the variables of the
     currently active (selector-guarded) clause groups, which keeps each
     solve proportional to the active problem rather than to every
     variable ever allocated in the shared instance.
   - learnt clauses live in their own database with clause activities;
     [reduce_db] drops the cold half (sparing reasons and binary clauses)
     under a growing budget, and Luby-sequence restarts keep the retained
     VSIDS state from wedging the search.
   - clause deletion is lazy: a [deleted] clause is dropped from a watch
     list the next time propagation touches it, and [simplify] removes
     clauses already satisfied at level 0 (how retired selector groups
     are reclaimed).

   Literal encoding: variable [v] (1-based) has positive literal [2*v] and
   negative literal [2*v+1].  [neg l = l lxor 1]. *)

type lbool = LTrue | LFalse | LUndef

type clause = {
  lits : int array;
  mutable activity : float;
  learnt : bool;
  mutable deleted : bool;
}

type t = {
  mutable nvars : int;
  mutable clauses : clause list;       (* problem + theory-lemma clauses *)
  mutable learnts : clause list;       (* CDCL-learnt clauses *)
  mutable n_clauses : int;
  mutable n_learnts : int;
  mutable watches : clause list array; (* indexed by literal *)
  mutable lit_stamp : int array;       (* indexed by literal; see [add_clause] *)
  mutable stamp : int;
  mutable assign : lbool array;        (* indexed by var *)
  mutable level : int array;
  mutable reason : clause option array;
  mutable trail : int array;           (* literals, in assignment order *)
  mutable trail_size : int;
  mutable trail_lim : int array;       (* decision-level boundaries *)
  mutable n_levels : int;              (* depth of the [trail_lim] stack *)
  mutable qhead : int;
  mutable activity : float array;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable max_learnts : int;
  mutable ok : bool;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable learnt_total : int;          (* learnt clauses ever created *)
  mutable restarts : int;
  mutable db_reductions : int;
}

let lit_of_var v sign = (2 * v) + if sign then 0 else 1
let var_of_lit l = l / 2
let is_pos l = l land 1 = 0
let neg l = l lxor 1

let create () =
  {
    nvars = 0;
    clauses = [];
    learnts = [];
    n_clauses = 0;
    n_learnts = 0;
    watches = Array.make 16 [];
    lit_stamp = Array.make 16 0;
    stamp = 0;
    assign = Array.make 8 LUndef;
    level = Array.make 8 0;
    reason = Array.make 8 None;
    trail = Array.make 8 0;
    trail_size = 0;
    trail_lim = Array.make 8 0;
    n_levels = 0;
    qhead = 0;
    activity = Array.make 8 0.0;
    var_inc = 1.0;
    cla_inc = 1.0;
    max_learnts = 0;
    ok = true;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    learnt_total = 0;
    restarts = 0;
    db_reductions = 0;
  }

let ensure_capacity s n =
  let cap = Array.length s.assign in
  if n >= cap then begin
    let ncap = max (n + 1) (2 * cap) in
    let grow a d = Array.append a (Array.make (ncap - Array.length a) d) in
    s.assign <- grow s.assign LUndef;
    s.level <- grow s.level 0;
    s.reason <- grow s.reason None;
    s.activity <- grow s.activity 0.0;
    s.trail <- grow s.trail 0
  end;
  let wcap = Array.length s.watches in
  if (2 * n) + 1 >= wcap then begin
    let nwcap = max ((2 * n) + 2) (2 * wcap) in
    s.watches <- Array.append s.watches (Array.make (nwcap - wcap) []);
    s.lit_stamp <- Array.append s.lit_stamp (Array.make (nwcap - wcap) 0)
  end

let new_var s =
  s.nvars <- s.nvars + 1;
  ensure_capacity s s.nvars;
  s.nvars

let value_lit s l =
  match s.assign.(var_of_lit l) with
  | LUndef -> LUndef
  | LTrue -> if is_pos l then LTrue else LFalse
  | LFalse -> if is_pos l then LFalse else LTrue

let decision_level s = s.n_levels

(* Open a new decision level starting at the current end of the trail. *)
let new_level s =
  if s.n_levels = Array.length s.trail_lim then
    s.trail_lim <-
      Array.append s.trail_lim (Array.make (Array.length s.trail_lim) 0);
  s.trail_lim.(s.n_levels) <- s.trail_size;
  s.n_levels <- s.n_levels + 1

let enqueue s l reason =
  let v = var_of_lit l in
  s.assign.(v) <- (if is_pos l then LTrue else LFalse);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  s.trail.(s.trail_size) <- l;
  s.trail_size <- s.trail_size + 1

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 1 to s.nvars do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end

let bump_clause s (c : clause) =
  c.activity <- c.activity +. s.cla_inc;
  if c.activity > 1e20 then begin
    List.iter (fun (c : clause) -> c.activity <- c.activity *. 1e-20) s.learnts;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let decay_activities s =
  s.var_inc <- s.var_inc /. 0.95;
  s.cla_inc <- s.cla_inc /. 0.999

(* Attach a clause to the watch lists of its first two literals. *)
let watch_clause s c =
  if Array.length c.lits >= 2 then begin
    s.watches.(neg c.lits.(0)) <- c :: s.watches.(neg c.lits.(0));
    s.watches.(neg c.lits.(1)) <- c :: s.watches.(neg c.lits.(1))
  end

exception Conflict of clause

(* Boolean constraint propagation; raises [Conflict] on failure.  Deleted
   clauses are dropped from the watch list as they are encountered. *)
let propagate s =
  while s.qhead < s.trail_size do
    let l = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let watching = s.watches.(l) in
    s.watches.(l) <- [];
    let rec process = function
      | [] -> ()
      | c :: rest when c.deleted -> process rest
      | c :: rest -> (
          (* make sure the false literal is at position 1 *)
          if c.lits.(0) = neg l then begin
            c.lits.(0) <- c.lits.(1);
            c.lits.(1) <- neg l
          end;
          if value_lit s c.lits.(0) = LTrue then begin
            (* clause already satisfied; keep watching *)
            s.watches.(l) <- c :: s.watches.(l);
            process rest
          end
          else begin
            (* look for a new literal to watch *)
            let n = Array.length c.lits in
            let found = ref false in
            let k = ref 2 in
            while (not !found) && !k < n do
              if value_lit s c.lits.(!k) <> LFalse then begin
                let tmp = c.lits.(1) in
                c.lits.(1) <- c.lits.(!k);
                c.lits.(!k) <- tmp;
                s.watches.(neg c.lits.(1)) <- c :: s.watches.(neg c.lits.(1));
                found := true
              end;
              incr k
            done;
            if !found then process rest
            else begin
              (* unit or conflicting *)
              s.watches.(l) <- c :: s.watches.(l);
              match value_lit s c.lits.(0) with
              | LFalse ->
                  (* restore remaining watches before failing *)
                  List.iter (fun c' -> s.watches.(l) <- c' :: s.watches.(l)) rest;
                  raise (Conflict c)
              | LUndef ->
                  enqueue s c.lits.(0) (Some c);
                  process rest
              | LTrue -> process rest
            end
          end)
    in
    process watching
  done

(* First-UIP conflict analysis.  Returns (learnt clause lits, backjump
   level); learnt.(0) is the asserting literal.

   [p] is the trail literal currently being resolved on (true under the
   current assignment); its reason clause contains it positively and we
   skip it while expanding. *)
let analyze s (confl : clause) =
  let seen = Array.make (s.nvars + 1) false in
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref None in
  let confl = ref (Some confl) in
  let idx = ref (s.trail_size - 1) in
  let btlevel = ref 0 in
  let asserting = ref 0 in
  let continue_loop = ref true in
  while !continue_loop do
    (match !confl with
    | None -> ()
    | Some c ->
        if c.learnt then bump_clause s c;
        Array.iter
          (fun q ->
            let v = var_of_lit q in
            let skip = match !p with Some pl -> q = pl | None -> false in
            if (not skip) && (not seen.(v)) && s.level.(v) > 0 then begin
              seen.(v) <- true;
              bump_var s v;
              if s.level.(v) >= decision_level s then incr counter
              else begin
                learnt := q :: !learnt;
                if s.level.(v) > !btlevel then btlevel := s.level.(v)
              end
            end)
          c.lits);
    (* walk back to the most recently assigned marked literal *)
    while not seen.(var_of_lit s.trail.(!idx)) do
      decr idx
    done;
    let l = s.trail.(!idx) in
    decr idx;
    decr counter;
    seen.(var_of_lit l) <- false;
    p := Some l;
    if !counter <= 0 then begin
      asserting := neg l;
      continue_loop := false
    end
    else confl := s.reason.(var_of_lit l)
  done;
  (Array.of_list (!asserting :: !learnt), !btlevel)

(* Undo all assignments above decision level [lvl].  [trail_lim] is a
   stack whose top, [trail_lim.(n_levels - 1)], is the trail index where
   the most recent decision level begins. *)
let cancel_until s lvl =
  if s.n_levels > lvl then begin
    let b = s.trail_lim.(lvl) in
    for i = s.trail_size - 1 downto b do
      let v = var_of_lit s.trail.(i) in
      s.assign.(v) <- LUndef;
      s.reason.(v) <- None
    done;
    s.trail_size <- b;
    s.n_levels <- lvl
  end;
  if s.qhead > s.trail_size then s.qhead <- s.trail_size

(* Clause simplification for [add_clause]: drop false literals and
   duplicates, and detect a clause that is already satisfied or a
   tautology.  A literal kept by one call carries that call's stamp, so a
   second occurrence is a duplicate and a stamped complement makes the
   clause a tautology.  Returns the number of surviving literals, or -1
   for a satisfied clause. *)
let rec count_survivors s stamp kept = function
  | [] -> kept
  | l :: rest -> (
      match value_lit s l with
      | LTrue -> -1
      | LFalse -> count_survivors s stamp kept rest
      | LUndef ->
          if s.lit_stamp.(l) = stamp then count_survivors s stamp kept rest
          else if s.lit_stamp.(neg l) = stamp then -1
          else begin
            s.lit_stamp.(l) <- stamp;
            count_survivors s stamp (kept + 1) rest
          end)

(* Copy the survivors counted above into [a], in their original order:
   the first occurrence of each unassigned literal. *)
let rec fill_survivors s stamp a i = function
  | [] -> ()
  | l :: rest ->
      if value_lit s l = LUndef && s.lit_stamp.(l) <> stamp then begin
        s.lit_stamp.(l) <- stamp;
        a.(i) <- l;
        fill_survivors s stamp a (i + 1) rest
      end
      else fill_survivors s stamp a i rest

let next_stamp s =
  s.stamp <- s.stamp + 1;
  s.stamp

(* Add a clause; returns false if the solver becomes trivially unsat.
   May be called between solve invocations (at level 0). *)
let add_clause s (lits : int list) =
  if not s.ok then false
  else begin
    cancel_until s 0;
    let kept = count_survivors s (next_stamp s) 0 lits in
    if kept < 0 then true
    else if kept = 0 then begin
      s.ok <- false;
      false
    end
    else if kept = 1 then begin
      enqueue s (List.find (fun l -> value_lit s l = LUndef) lits) None;
      try
        propagate s;
        true
      with Conflict _ ->
        s.ok <- false;
        false
    end
    else begin
      let lits =
        if kept = List.length lits then Array.of_list lits
        else begin
          let a = Array.make kept 0 in
          fill_survivors s (next_stamp s) a 0 lits;
          a
        end
      in
      let c = { lits; activity = 0.0; learnt = false; deleted = false } in
      s.clauses <- c :: s.clauses;
      s.n_clauses <- s.n_clauses + 1;
      watch_clause s c;
      true
    end
  end

(* A clause is locked while it is the reason for its asserting literal's
   assignment; locked clauses must survive database reduction. *)
let locked s c =
  match s.reason.(var_of_lit c.lits.(0)) with
  | Some c' -> c' == c
  | None -> false

(* Drop the cold half of the learnt-clause database, sparing locked and
   binary clauses.  Deletion is lazy: watch lists shed deleted clauses as
   propagation touches them. *)
let reduce_db s =
  let arr = Array.of_list s.learnts in
  Array.sort (fun (a : clause) (b : clause) -> compare a.activity b.activity) arr;
  let target = Array.length arr / 2 in
  let dropped = ref 0 in
  Array.iteri
    (fun i c ->
      if
        i < target && (not (locked s c)) && Array.length c.lits > 2
        && not c.deleted
      then begin
        c.deleted <- true;
        incr dropped
      end)
    arr;
  if !dropped > 0 then begin
    s.learnts <- List.filter (fun c -> not c.deleted) s.learnts;
    s.n_learnts <- s.n_learnts - !dropped
  end;
  s.db_reductions <- s.db_reductions + 1

(* Remove clauses satisfied at level 0 from both databases.  Called by
   the DPLL(T) driver after retiring a selector guard: the guard's unit
   negation satisfies every clause of the retired group (including its
   learnt descendants, which carry the selector literal), so the whole
   group is reclaimed here. *)
let simplify s =
  if s.ok then begin
    cancel_until s 0;
    s.qhead <- 0;
    (try propagate s
     with Conflict _ -> s.ok <- false);
    if s.ok then begin
      let satisfied c =
        Array.exists (fun l -> value_lit s l = LTrue) c.lits
      in
      let sweep learnt cs =
        let kept = ref [] and n = ref 0 in
        List.iter
          (fun c ->
            if c.deleted then ()
            else if satisfied c && not (locked s c) then c.deleted <- true
            else begin
              kept := c :: !kept;
              incr n
            end)
          cs;
        ignore learnt;
        (List.rev !kept, !n)
      in
      let cs, nc = sweep false s.clauses in
      s.clauses <- cs;
      s.n_clauses <- nc;
      let ls, nl = sweep true s.learnts in
      s.learnts <- ls;
      s.n_learnts <- nl
    end
  end

let pick_branch_var s =
  let best = ref 0 in
  let best_act = ref neg_infinity in
  for v = 1 to s.nvars do
    if s.assign.(v) = LUndef && s.activity.(v) > !best_act then begin
      best := v;
      best_act := s.activity.(v)
    end
  done;
  !best

(* Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, ... *)
let luby x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  1 lsl !seq

type result = Sat | Unsat

exception Timeout

let default_should_stop () = false

let restart_first = 100

(* conflicts between [should_stop] polls *)
let poll_every = 256

let solve ?(should_stop = default_should_stop) ?(assumptions = [])
    ?decision_vars s : result =
  (* countdown rather than [conflicts mod poll_every]: one decrement and
     compare per conflict, no division in the hottest loop *)
  let until_poll = ref poll_every in
  if not s.ok then Unsat
  else begin
    cancel_until s 0;
    s.qhead <- 0;
    let assumptions = Array.of_list assumptions in
    let n_assumps = Array.length assumptions in
    let pick () =
      match decision_vars with
      | None -> pick_branch_var s
      | Some vs ->
          let best = ref 0 in
          let best_act = ref neg_infinity in
          Array.iter
            (fun v ->
              if s.assign.(v) = LUndef && s.activity.(v) > !best_act then begin
                best := v;
                best_act := s.activity.(v)
              end)
            vs;
          !best
    in
    if s.max_learnts = 0 then s.max_learnts <- max 256 (s.n_clauses / 3);
    let conflicts_since_restart = ref 0 in
    let restart_k = ref 0 in
    let restart_budget = ref (restart_first * luby !restart_k) in
    (* re-propagate the level-0 trail *)
    let rec loop () =
      match
        try
          propagate s;
          None
        with Conflict c -> Some c
      with
      | Some confl ->
          s.conflicts <- s.conflicts + 1;
          incr conflicts_since_restart;
          (* poll the caller's deadline on conflicts only: conflicts are
             where runaway instances spend their time, and checking every
             [poll_every]-th keeps the cost invisible on
             easy instances while bounding how long a deadline
             goes unchecked *)
          decr until_poll;
          if !until_poll <= 0 then begin
            until_poll := poll_every;
            if should_stop () then raise Timeout
          end;
          if decision_level s = 0 then begin
            s.ok <- false;
            Unsat
          end
          else begin
            let learnt, btlevel = analyze s confl in
            cancel_until s btlevel;
            (match Array.length learnt with
            | 1 -> enqueue s learnt.(0) None
            | _ ->
                let c =
                  { lits = learnt; activity = 0.0; learnt = true;
                    deleted = false }
                in
                s.learnts <- c :: s.learnts;
                s.n_learnts <- s.n_learnts + 1;
                s.learnt_total <- s.learnt_total + 1;
                bump_clause s c;
                watch_clause s c;
                enqueue s learnt.(0) (Some c));
            decay_activities s;
            if s.n_learnts > s.max_learnts then begin
              reduce_db s;
              s.max_learnts <- s.max_learnts * 11 / 10
            end;
            if !conflicts_since_restart >= !restart_budget then begin
              (* Luby restart: back to level 0; the assumption prefix is
                 re-decided by the pick loop below *)
              s.restarts <- s.restarts + 1;
              incr restart_k;
              conflicts_since_restart := 0;
              restart_budget := restart_first * luby !restart_k;
              cancel_until s 0
            end;
            loop ()
          end
      | None ->
          let dl = decision_level s in
          if dl < n_assumps then begin
            (* install the next assumption as a pseudo decision *)
            let p = assumptions.(dl) in
            match value_lit s p with
            | LTrue ->
                (* already implied: open an empty level so assumption
                   indices keep matching decision levels *)
                new_level s;
                loop ()
            | LFalse ->
                (* the instance forces the negation of an assumption:
                   unsat *under these assumptions* only — the solver
                   stays usable ([ok] untouched) *)
                Unsat
            | LUndef ->
                s.decisions <- s.decisions + 1;
                new_level s;
                enqueue s p None;
                loop ()
          end
          else begin
            let v = pick () in
            if v = 0 then Sat
            else begin
              s.decisions <- s.decisions + 1;
              new_level s;
              (* phase saving would go here; default to false first *)
              enqueue s (lit_of_var v false) None;
              loop ()
            end
          end
    in
    loop ()
  end

let model_value s v =
  match s.assign.(v) with LTrue -> true | LFalse -> false | LUndef -> false

let stats s = (s.conflicts, s.decisions, s.propagations)

(* Incremental-machinery statistics: learnt clauses ever created, Luby
   restarts performed, and learnt-database reductions. *)
let stats_ext s = (s.learnt_total, s.restarts, s.db_reductions)

let n_vars s = s.nvars
let n_clauses s = s.n_clauses
let n_learnts s = s.n_learnts
