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

   Storage: clauses live back to back in one int array (the arena) and
   are named by their offset in it; each literal's watch list is a
   singly linked list of nodes in two more int arrays, with a free list
   for the nodes of dropped clauses.  Adding a clause allocates nothing
   the garbage collector has to trace or copy.  A deleted clause's arena
   space is not reused: an instance lives as long as the problems it
   holds (BMOC empties its solver with [reset] per path combination).

   Literal encoding: variable [v] (1-based) has positive literal [2*v] and
   negative literal [2*v+1].  [neg l = l lxor 1]. *)

type lbool = LTrue | LFalse | LUndef

(* Clause [c] in the arena: [ar.(c)] is its length, [ar.(c+1)] its flags
   (and, for a learnt clause, its activity slot above them), and its
   literals follow. *)
let f_learnt = 1
let f_deleted = 2

type t = {
  mutable nvars : int;
  mutable ar : int array; (* the clause arena *)
  mutable ar_len : int;
  mutable acts : float array; (* learnt clause activities, by slot *)
  mutable nacts : int;
  mutable clauses : int array; (* problem + theory-lemma clauses *)
  mutable nclause_slots : int;
  mutable learnts : int list;          (* CDCL-learnt clauses *)
  mutable n_clauses : int;
  mutable n_learnts : int;
  mutable watches : int array;         (* literal -> first watch node, -1 *)
  mutable w_clause : int array;        (* watch node -> clause *)
  mutable w_next : int array;          (* watch node -> next node, -1 *)
  mutable w_free : int;                (* free node list, -1 *)
  mutable w_len : int;                 (* nodes ever allocated *)
  mutable lit_stamp : int array;       (* indexed by literal; see [add_clause] *)
  mutable stamp : int;
  mutable assign : lbool array;        (* indexed by var *)
  mutable level : int array;
  mutable reason : int array;          (* var -> its reason clause, -1 *)
  mutable seen : bool array;           (* [analyze]'s marks, all false between calls *)
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
  mutable added : int;                 (* clauses handed to [add_clause_sub] *)
  mutable added_hash : int;            (* their running digest *)
}

let lit_of_var v sign = (2 * v) + if sign then 0 else 1
let var_of_lit l = l / 2
let is_pos l = l land 1 = 0
let neg l = l lxor 1

let create () =
  {
    nvars = 0;
    ar = Array.make 64 0;
    ar_len = 0;
    acts = Array.make 8 0.0;
    nacts = 0;
    clauses = Array.make 16 0;
    nclause_slots = 0;
    learnts = [];
    n_clauses = 0;
    n_learnts = 0;
    watches = Array.make 16 (-1);
    w_clause = Array.make 32 0;
    w_next = Array.make 32 0;
    w_free = -1;
    w_len = 0;
    lit_stamp = Array.make 16 0;
    stamp = 0;
    assign = Array.make 8 LUndef;
    level = Array.make 8 0;
    reason = Array.make 8 (-1);
    seen = Array.make 8 false;
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
    added = 0;
    added_hash = 0;
  }

(* Empty [s] in place, as [create ()] would leave it, keeping its
   storage (the stamp counter runs on, so old stamps never match). *)
let reset s =
  Array.fill s.watches 0 (min (Array.length s.watches) ((2 * s.nvars) + 2)) (-1);
  Array.fill s.assign 0 (s.nvars + 1) LUndef;
  Array.fill s.reason 0 (s.nvars + 1) (-1);
  Array.fill s.activity 0 (s.nvars + 1) 0.0;
  s.nvars <- 0;
  s.ar_len <- 0;
  s.nacts <- 0;
  s.nclause_slots <- 0;
  s.learnts <- [];
  s.n_clauses <- 0;
  s.n_learnts <- 0;
  s.w_free <- -1;
  s.w_len <- 0;
  s.trail_size <- 0;
  s.n_levels <- 0;
  s.qhead <- 0;
  s.var_inc <- 1.0;
  s.cla_inc <- 1.0;
  s.max_learnts <- 0;
  s.ok <- true;
  s.conflicts <- 0;
  s.decisions <- 0;
  s.propagations <- 0;
  s.learnt_total <- 0;
  s.restarts <- 0;
  s.db_reductions <- 0;
  s.added <- 0;
  s.added_hash <- 0

(* [a] grown to hold at least [n] entries, new ones [d] *)
let grown a n d =
  let cap = Array.length a in
  if n <= cap then a else Array.append a (Array.make (max n (2 * cap) - cap) d)

let ensure_capacity s n =
  let cap = Array.length s.assign in
  if n >= cap then begin
    let ncap = max (n + 1) (2 * cap) in
    s.assign <- grown s.assign ncap LUndef;
    s.level <- grown s.level ncap 0;
    s.reason <- grown s.reason ncap (-1);
    s.seen <- grown s.seen ncap false;
    s.activity <- grown s.activity ncap 0.0;
    s.trail <- grown s.trail ncap 0
  end;
  let wcap = Array.length s.watches in
  if (2 * n) + 1 >= wcap then begin
    let nwcap = max ((2 * n) + 2) (2 * wcap) in
    s.watches <- grown s.watches nwcap (-1);
    s.lit_stamp <- grown s.lit_stamp nwcap 0
  end

let new_var s =
  s.nvars <- s.nvars + 1;
  ensure_capacity s s.nvars;
  s.nvars

(* ---- the clause arena ---- *)

let size s c = s.ar.(c)
let lit s c i = s.ar.(c + 2 + i)
let is_learnt s c = s.ar.(c + 1) land f_learnt <> 0
let is_deleted s c = s.ar.(c + 1) land f_deleted <> 0
let delete s c = s.ar.(c + 1) <- s.ar.(c + 1) lor f_deleted
let act_slot s c = s.ar.(c + 1) lsr 2

(* Reserve a clause of [n] literals; the caller writes them. *)
let alloc_clause s n ~learnt =
  let c = s.ar_len in
  if c + 2 + n > Array.length s.ar then s.ar <- grown s.ar (c + 2 + n) 0;
  s.ar.(c) <- n;
  s.ar.(c + 1) <-
    (if learnt then begin
       if s.nacts = Array.length s.acts then s.acts <- grown s.acts (s.nacts + 1) 0.0;
       s.acts.(s.nacts) <- 0.0;
       s.nacts <- s.nacts + 1;
       f_learnt lor ((s.nacts - 1) lsl 2)
     end
     else 0);
  s.ar_len <- c + 2 + n;
  c

(* ---- watch lists ---- *)

let new_node s =
  if s.w_free >= 0 then begin
    let i = s.w_free in
    s.w_free <- s.w_next.(i);
    i
  end
  else begin
    let i = s.w_len in
    s.w_len <- i + 1;
    if i = Array.length s.w_clause then begin
      s.w_clause <- grown s.w_clause (i + 1) 0;
      s.w_next <- grown s.w_next (i + 1) 0
    end;
    i
  end

(* Put node [i] at the front of literal [l]'s watch list. *)
let link s l i =
  s.w_next.(i) <- s.watches.(l);
  s.watches.(l) <- i

let free_node s i =
  s.w_next.(i) <- s.w_free;
  s.w_free <- i

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

let bump_clause s c =
  let a = act_slot s c in
  s.acts.(a) <- s.acts.(a) +. s.cla_inc;
  if s.acts.(a) > 1e20 then begin
    List.iter
      (fun c ->
        let a = act_slot s c in
        s.acts.(a) <- s.acts.(a) *. 1e-20)
      s.learnts;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let decay_activities s =
  s.var_inc <- s.var_inc /. 0.95;
  s.cla_inc <- s.cla_inc /. 0.999

(* Attach a clause to the watch lists of its first two literals. *)
let watch_clause s c =
  if size s c >= 2 then begin
    let i = new_node s in
    s.w_clause.(i) <- c;
    link s (neg (lit s c 0)) i;
    let j = new_node s in
    s.w_clause.(j) <- c;
    link s (neg (lit s c 1)) j
  end

exception Conflict of int

(* Boolean constraint propagation; raises [Conflict] on failure.  Deleted
   clauses are dropped from the watch list as they are encountered. *)
let propagate s =
  while s.qhead < s.trail_size do
    let l = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let node = ref s.watches.(l) in
    s.watches.(l) <- -1;
    while !node >= 0 do
      let i = !node in
      node := s.w_next.(i);
      let c = s.w_clause.(i) in
      if is_deleted s c then free_node s i
      else begin
        let ar = s.ar and b = c + 2 in
        (* make sure the false literal is at position 1 *)
        if ar.(b) = neg l then begin
          ar.(b) <- ar.(b + 1);
          ar.(b + 1) <- neg l
        end;
        if value_lit s ar.(b) = LTrue then
          (* clause already satisfied; keep watching *)
          link s l i
        else begin
          (* look for a new literal to watch *)
          let n = ar.(c) in
          let k = ref 2 in
          while !k < n && value_lit s ar.(b + !k) = LFalse do
            incr k
          done;
          if !k < n then begin
            let tmp = ar.(b + 1) in
            ar.(b + 1) <- ar.(b + !k);
            ar.(b + !k) <- tmp;
            link s (neg ar.(b + 1)) i
          end
          else begin
            (* unit or conflicting *)
            link s l i;
            match value_lit s ar.(b) with
            | LFalse ->
                (* restore the remaining watches before failing *)
                while !node >= 0 do
                  let j = !node in
                  node := s.w_next.(j);
                  link s l j
                done;
                raise (Conflict c)
            | LUndef -> enqueue s ar.(b) c
            | LTrue -> ()
          end
        end
      end
    done
  done

(* First-UIP conflict analysis.  Returns (learnt clause lits, backjump
   level); learnt.(0) is the asserting literal.

   [p] is the trail literal currently being resolved on (true under the
   current assignment); its reason clause contains it positively and we
   skip it while expanding. *)
let analyze s confl =
  let seen = s.seen in
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let idx = ref (s.trail_size - 1) in
  let btlevel = ref 0 in
  let asserting = ref 0 in
  let continue_loop = ref true in
  while !continue_loop do
    (if !confl >= 0 then begin
       let c = !confl in
       if is_learnt s c then bump_clause s c;
       for i = 0 to size s c - 1 do
         let q = lit s c i in
         let v = var_of_lit q in
         if q <> !p && (not seen.(v)) && s.level.(v) > 0 then begin
           seen.(v) <- true;
           bump_var s v;
           if s.level.(v) >= decision_level s then incr counter
           else begin
             learnt := q :: !learnt;
             if s.level.(v) > !btlevel then btlevel := s.level.(v)
           end
         end
       done
     end);
    (* walk back to the most recently assigned marked literal *)
    while not seen.(var_of_lit s.trail.(!idx)) do
      decr idx
    done;
    let l = s.trail.(!idx) in
    decr idx;
    decr counter;
    seen.(var_of_lit l) <- false;
    p := l;
    if !counter <= 0 then begin
      asserting := neg l;
      continue_loop := false
    end
    else confl := s.reason.(var_of_lit l)
  done;
  (* the marks left are the learnt literals' *)
  List.iter (fun q -> seen.(var_of_lit q) <- false) !learnt;
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
      s.reason.(v) <- -1
    done;
    s.trail_size <- b;
    s.n_levels <- lvl
  end;
  if s.qhead > s.trail_size then s.qhead <- s.trail_size

(* Clause simplification for [add_clause]: drop false literals and
   duplicates, and detect a clause that is already satisfied or a
   tautology.  A literal kept by the pass carries its stamp, so a second
   occurrence is a duplicate and a stamped complement makes the clause a
   tautology.  Returns the number of surviving literals, or -1 for a
   satisfied clause. *)
let count_survivors s stamp (a : int array) off len =
  let kept = ref 0 and i = ref off and stop = off + len in
  while !i < stop do
    let l = a.(!i) in
    incr i;
    match value_lit s l with
    | LTrue ->
        kept := -1;
        i := stop
    | LFalse -> ()
    | LUndef ->
        if s.lit_stamp.(l) = stamp then ()
        else if s.lit_stamp.(neg l) = stamp then begin
          kept := -1;
          i := stop
        end
        else begin
          s.lit_stamp.(l) <- stamp;
          incr kept
        end
  done;
  !kept

let next_stamp s =
  s.stamp <- s.stamp + 1;
  s.stamp

(* Fold one clause into the running digest of everything handed to
   [add_clause_sub]: a polynomial over its literals, closed by a
   separator, so literal order and clause boundaries both count. *)
let note_added s (a : int array) off len =
  let h = ref s.added_hash in
  for i = off to off + len - 1 do
    h := (!h * 1_000_003) + a.(i) + 1
  done;
  s.added_hash <- (!h * 1_000_003) - 1;
  s.added <- s.added + 1

(* Add the clause [a.(off) .. a.(off + len - 1)]; returns false if the
   solver becomes trivially unsat.  May be called between solve
   invocations (at level 0). *)
let add_clause_sub s (a : int array) off len =
  note_added s a off len;
  if not s.ok then false
  else begin
    cancel_until s 0;
    let kept = count_survivors s (next_stamp s) a off len in
    if kept < 0 then true
    else if kept = 0 then begin
      s.ok <- false;
      false
    end
    else if kept = 1 then begin
      let i = ref off in
      while value_lit s a.(!i) <> LUndef do incr i done;
      enqueue s a.(!i) (-1);
      try
        propagate s;
        true
      with Conflict _ ->
        s.ok <- false;
        false
    end
    else begin
      (* the survivors, in their original order: the first occurrence
         of each unassigned literal *)
      let c = alloc_clause s kept ~learnt:false in
      let ar = s.ar in
      if kept = len then
        for i = 0 to len - 1 do
          ar.(c + 2 + i) <- a.(off + i)
        done
      else begin
        let stamp = next_stamp s and j = ref (c + 2) in
        for i = off to off + len - 1 do
          let l = a.(i) in
          if value_lit s l = LUndef && s.lit_stamp.(l) <> stamp then begin
            s.lit_stamp.(l) <- stamp;
            ar.(!j) <- l;
            incr j
          end
        done
      end;
      if s.nclause_slots = Array.length s.clauses then
        s.clauses <- grown s.clauses (s.nclause_slots + 1) 0;
      s.clauses.(s.nclause_slots) <- c;
      s.nclause_slots <- s.nclause_slots + 1;
      s.n_clauses <- s.n_clauses + 1;
      watch_clause s c;
      true
    end
  end

let add_clause s (lits : int list) =
  let a = Array.of_list lits in
  add_clause_sub s a 0 (Array.length a)

(* A clause is locked while it is the reason for its asserting literal's
   assignment; locked clauses must survive database reduction. *)
let locked s c = s.reason.(var_of_lit (lit s c 0)) = c

(* Drop the cold half of the learnt-clause database, sparing locked and
   binary clauses.  Deletion is lazy: watch lists shed deleted clauses as
   propagation touches them. *)
let reduce_db s =
  let arr = Array.of_list s.learnts in
  Array.sort
    (fun a b -> Float.compare s.acts.(act_slot s a) s.acts.(act_slot s b))
    arr;
  let target = Array.length arr / 2 in
  let dropped = ref 0 in
  Array.iteri
    (fun i c ->
      if
        i < target && (not (locked s c)) && size s c > 2
        && not (is_deleted s c)
      then begin
        delete s c;
        incr dropped
      end)
    arr;
  if !dropped > 0 then begin
    s.learnts <- List.filter (fun c -> not (is_deleted s c)) s.learnts;
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
        let rec any i = i < size s c && (value_lit s (lit s c i) = LTrue || any (i + 1)) in
        any 0
      in
      (* false: the clause stays *)
      let drop c =
        if is_deleted s c then true
        else if satisfied c && not (locked s c) then begin
          delete s c;
          true
        end
        else false
      in
      let n = ref 0 in
      for i = 0 to s.nclause_slots - 1 do
        let c = s.clauses.(i) in
        if not (drop c) then begin
          s.clauses.(!n) <- c;
          incr n
        end
      done;
      s.nclause_slots <- !n;
      s.n_clauses <- !n;
      s.learnts <- List.filter (fun c -> not (drop c)) s.learnts;
      s.n_learnts <- List.length s.learnts
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
            | 1 -> enqueue s learnt.(0) (-1)
            | n ->
                let c = alloc_clause s n ~learnt:true in
                Array.blit learnt 0 s.ar (c + 2) n;
                s.learnts <- c :: s.learnts;
                s.n_learnts <- s.n_learnts + 1;
                s.learnt_total <- s.learnt_total + 1;
                bump_clause s c;
                watch_clause s c;
                enqueue s learnt.(0) c);
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
                enqueue s p (-1);
                loop ()
          end
          else begin
            let v = pick () in
            if v = 0 then Sat
            else begin
              s.decisions <- s.decisions + 1;
              new_level s;
              (* phase saving would go here; default to false first *)
              enqueue s (lit_of_var v false) (-1);
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
let clause_stream s = (s.added, s.added_hash)
