module Ir = Goir.Ir
module Alias = Goanalysis.Alias
module Solver = Gosmt.Solver
module Cnf = Gosmt.Cnf

(* The channel constraint system (paper §3.4).

   Given one path combination and one suspicious group of operations, we
   build ΦR ∧ ΦB and ask the solver for a witness schedule:

   - every event gets an order variable O (difference logic);
   - every cross-goroutine (send, recv) pair on the same channel gets a
     match variable P, with the global invariants  P(s,r) → O_s = O_r,
     at-most-one partner per send and per recv;
   - channel state (the paper's CB / CLOSED variables) is expressed with
     cardinality constraints over happens-before atoms: the number of
     sends minus receives executed before an operation;
   - mutexes are channels with buffer size one whose Lock is a send and
     Unlock a receive, and for which rendezvous matching is disabled.

   ΦR = Φorder ∧ Φspawn ∧ Φsync requires every goroutine to run up to
   (and excluding) its group operation with every earlier sync operation
   able to proceed; ΦB requires every group operation to block.

   The encoder writes each formula's clauses straight through the
   solver's gates ({!Gosmt.Cnf}) from a per-combination index, with no
   formula tree.  It emits exactly the instance that building each
   formula as an [Expr.t] and adding it with [Solver.add] gives: the
   same variables in the same order (every atom a problem interns comes
   before its gate variables, and atoms are interned in the order the
   formulas would have been built), and the same clauses, literal for
   literal, in the same sequence.  Where that order is not the obvious
   one — a count interns its receives before its sends, a pair its
   reverse ordering atom first — the code says so. *)

type group_member = { g_gid : int; g_uid : int }

type verdict =
  | Blocks of (Ir.pp * int) list (* witness schedule: pp -> order value *)
  | Cannot_block

(* Micro-operation kinds: a Lock is a send on the mutex's buffer-1
   channel, an Unlock a receive from it. *)
let k_send = 0
let k_recv = 1
let k_close = 2
let k_add = 3
let k_done = 4
let k_wait = 5
let k_other = 6

let kind_code : Report.op_kind -> int = function
  | Ksend | Klock -> k_send
  | Krecv | Kunlock -> k_recv
  | Kclose -> k_close
  | Kwg_add -> k_add
  | Kwg_done -> k_done
  | Kwg_wait -> k_wait
  | Kselect -> k_other

(* One combination, indexed once for all of its groups.

   Events are numbered densely, goroutine by goroutine.  A micro-op
   template is one concrete send/recv/close/lock/unlock/Add/Done/Wait
   an event may perform: a plain op has one, a select one per arm.
   Templates are numbered in micro-op order (goroutine, event, arm).
   An event *executes* at most one of them — a plain op its own, a
   select its chosen arm, none when it took its default — and a group
   event blocks on all of them.  A group only cuts goroutines short, so
   every per-group set below is an index set filtered by [live]. *)
type tmpl = {
  ev : int; (* its event *)
  g : int; (* the event's goroutine *)
  u : int; (* the event's uid within its goroutine's path *)
  kind : int;
  objs : int array;
  mutex : bool; (* on a mutex: no rendezvous *)
  primary : int; (* its first object in Pset, or -1 *)
  weight : int; (* an Add's static delta, -1 when not constant *)
}

type index = {
  combo : Pathenum.combination;
  gis : Pathenum.goroutine_instance array;
  g_off : int array; (* goroutine -> its first event *)
  g_len : int array;
  evs : Pathenum.event array;
  ov : Solver.ovar array; (* event -> its order variable *)
  ev_exec : int array; (* event -> the template it executes, or -1 *)
  ev_group : int array array; (* event -> the templates it blocks on *)
  tm : tmpl array;
  o_buf : int option array;
  o_ops : int array array array;
      (* object -> kind (send/recv/close/add/done) -> the executing
         templates on it, in template order *)
  t_pairs : int array array;
      (* executing send -> its rendezvous pairs, in receive order;
         executing receive -> its pairs, in send order *)
  p_send : int array;
  p_recv : int array;
  p_var : int array; (* the pair's match variable, once interned *)
  p_le_sr : int array; (* O_send - O_recv <= 0, once interned *)
  p_le_rs : int array; (* O_recv - O_send <= 0, once interned *)
  lim : int array;
      (* per goroutine, for the current group: its events below [lim]
         execute; the one at [lim], if any, is its group op *)
}

let build_index ~pset ~prims (s : Solver.t) (combo : Pathenum.combination) : index =
  let gis = Array.of_list combo in
  let ng = Array.length gis in
  let paths =
    Array.map (fun (gi : Pathenum.goroutine_instance) -> Array.of_list gi.gi_path.p_events) gis
  in
  let g_len = Array.map Array.length paths in
  let g_off = Array.make ng 0 in
  for g = 1 to ng - 1 do
    g_off.(g) <- g_off.(g - 1) + g_len.(g - 1)
  done;
  let evs = Array.concat (Array.to_list paths) in
  Array.iteri
    (fun g (gi : Pathenum.goroutine_instance) ->
      if gi.gi_id <> g then invalid_arg "Constraints: goroutine ids must be positions";
      Array.iteri
        (fun u (e : Pathenum.event) ->
          if e.e_uid <> u then invalid_arg "Constraints: event uids must be positions")
        paths.(g);
      match (gi.gi_parent, gi.gi_spawn_uid) with
      | Some p, Some u when p < 0 || p >= ng || u < 0 || u >= g_len.(p) ->
          invalid_arg "Constraints: spawn event outside the combination"
      | _ -> ())
    gis;
  (* objects, numbered in order of first mention, with their facts *)
  let obj_ids = Hashtbl.create 16 in
  let objs = ref [] in
  let obj o =
    match Hashtbl.find_opt obj_ids o with
    | Some i -> i
    | None ->
        let i = Hashtbl.length obj_ids in
        Hashtbl.add obj_ids o i;
        objs := o :: !objs;
        i
  in
  let tmpls = ref [] and nt = ref 0 in
  let add_tmpl e g u kind os weight =
    let objs = Array.of_list (List.map obj os) in
    tmpls := (e, g, u, kind_code kind, objs, weight) :: !tmpls;
    incr nt;
    !nt - 1
  in
  let ev_exec = Array.make (Array.length evs) (-1) in
  let ev_group = Array.make (Array.length evs) [||] in
  Array.iteri
    (fun g path ->
      Array.iteri
        (fun u (ev : Pathenum.event) ->
          let e = g_off.(g) + u in
          match ev.e_desc with
          | Sync (Sop (kind, os)) ->
              let t = add_tmpl e g u kind os 0 in
              ev_exec.(e) <- t;
              ev_group.(e) <- [| t |]
          | Sync (Swg_add (os, w)) ->
              let t = add_tmpl e g u Report.Kwg_add os (Option.value w ~default:(-1)) in
              ev_exec.(e) <- t;
              ev_group.(e) <- [| t |]
          | Sync (Sselect { arms; chosen; _ }) ->
              let ts = Array.of_list (List.map (fun (kind, os) -> add_tmpl e g u kind os 0) arms) in
              ev_group.(e) <- ts;
              ev_exec.(e) <- (match chosen with Some i -> ts.(i) | None -> -1)
          | Spawn _ | Branch _ -> ())
        path)
    paths;
  let objs = Array.of_list (List.rev !objs) in
  let in_pset = Array.map (fun o -> List.mem o pset) objs in
  let is_mutex = Array.map (fun o -> Primitives.kind_of prims o = Some Primitives.Pmutex) objs in
  let tm =
    Array.of_list
      (List.rev_map
         (fun (ev, g, u, kind, objs, weight) ->
           {
             ev;
             g;
             u;
             kind;
             objs;
             mutex = Array.exists (fun o -> is_mutex.(o)) objs;
             primary =
               (match Array.find_opt (fun o -> in_pset.(o)) objs with Some o -> o | None -> -1);
             weight;
           })
         !tmpls)
  in
  let nt = Array.length tm in
  let executing t = ev_exec.(tm.(t).ev) = t in
  (* per object and kind, the executing templates on it *)
  let o_ops = Array.map (fun _ -> Array.make 5 []) objs in
  for t = nt - 1 downto 0 do
    let x = tm.(t) in
    if executing t && x.kind < 5 then
      Array.iteri
        (fun i o ->
          (* an object listed twice counts once *)
          let rec listed_before j = j < i && (x.objs.(j) = o || listed_before (j + 1)) in
          if not (listed_before 0) then o_ops.(o).(x.kind) <- t :: o_ops.(o).(x.kind))
        x.objs
  done;
  let o_ops = Array.map (Array.map Array.of_list) o_ops in
  (* rendezvous pairs: an executing non-mutex send and an executing
     non-mutex receive of another goroutine sharing an object, numbered
     by send then receive *)
  let is k t = executing t && tm.(t).kind = k && not tm.(t).mutex in
  let shares a b = Array.exists (fun o -> Array.mem o tm.(b).objs) tm.(a).objs in
  let pairs = ref [] and np = ref 0 in
  let t_pairs = Array.make nt [||] in
  let by_recv = Array.make nt [] in
  for snd = 0 to nt - 1 do
    if is k_send snd then begin
      let mine = ref [] in
      for r = 0 to nt - 1 do
        if is k_recv r && tm.(r).g <> tm.(snd).g && shares snd r then begin
          pairs := (snd, r) :: !pairs;
          mine := !np :: !mine;
          by_recv.(r) <- !np :: by_recv.(r);
          incr np
        end
      done;
      t_pairs.(snd) <- Array.of_list (List.rev !mine)
    end
  done;
  Array.iteri (fun r qs -> if qs <> [] then t_pairs.(r) <- Array.of_list (List.rev qs)) by_recv;
  let pairs = Array.of_list (List.rev !pairs) in
  let np = Array.length pairs in
  {
    combo;
    gis;
    g_off;
    g_len;
    evs;
    ov = Array.map (fun _ -> Solver.new_order_var s) evs;
    ev_exec;
    ev_group;
    tm;
    o_buf = Array.map (Primitives.buffer_size prims) objs;
    o_ops;
    t_pairs;
    p_send = Array.map fst pairs;
    p_recv = Array.map snd pairs;
    p_var = Array.make np (-1);
    p_le_sr = Array.make np (-1);
    p_le_rs = Array.make np (-1);
    lim = Array.make ng 0;
  }

(* A count's atoms in the session's scratch array: [nups] counted up
   from slot [ups], [ndowns] counted down from slot [downs]. *)
type count = { ups : int; nups : int; downs : int; ndowns : int }

(* Does template [t] execute under the current group? *)
let live ix t =
  let x = ix.tm.(t) in
  x.u < ix.lim.(x.g)

(* An incremental solver session, one per channel: every (combination,
   group) problem of the channel goes through it, over the channel's
   Pset and primitive map.  One [Solver] instance is shared by the
   groups of a *combination*: each problem's constraints are asserted
   under a fresh selector guard, solved with that guard assumed, and the
   guard retired immediately afterwards.  What persists across a
   combination's groups is the interned atom table, the theory lemmas
   (blocking clauses, which are tautologies over their atoms), the
   learnt clauses (self-guarding: they inherit the ¬selector literals of
   every group they were derived from), the VSIDS branching activity,
   and the combination's index with its match variables: the solver's
   booleans carry no names, so the index is what gives a (send, recv)
   pair the same atom in every group.

   The solver and the index are renewed at each combination boundary
   rather than kept for the whole channel: a combination's groups truly
   overlap (same paths, same events, same difference atoms), whereas
   across combinations the atoms are disjoint — carrying the instance
   over only accumulates retired groups' clauses in the shared watch
   lists and turns every later query into a scan of the channel's
   history (measured as a 4.5x slowdown on the ablated-scope bench
   before the renewal was introduced).  The cadence is a pure function
   of the problem stream, so it is deterministic.  Renewal empties the
   solver in place ([Solver.reset]) rather than creating one: a fresh
   solver per combination regrows every array on the major heap, and on
   the corpus benchmark that churn cost as much as the rest of the
   encoder's rewrite saved.

   Program-order chains are deliberately NOT shared across groups: each
   group truncates the paths at a different cutoff, and a chain through a
   post-cutoff spawn event could manufacture a spurious cycle for another
   group.  Everything a problem asserts lives and dies with its guard. *)
type session = {
  pset : Alias.obj list;
  prims : Primitives.t;
  s : Solver.t; (* emptied at each combination boundary *)
  mutable ix : index option;
  mutable ids : int array; (* scratch: the atoms a count interned *)
  mutable s_problems : int;
  mutable s_last_sat : int * int * int;
  mutable s_last_ext : int * int * int;
  mutable s_last_theory : int;
}

let create_session ~pset ~prims =
  {
    pset;
    prims;
    s = Solver.create ();
    ix = None;
    ids = Array.make 64 0;
    s_problems = 0;
    s_last_sat = (0, 0, 0);
    s_last_ext = (0, 0, 0);
    s_last_theory = 0;
  }

(* The index of [combo], renewing the solver when the combination
   changes (tracked by physical equality). *)
let index_of session combo =
  match session.ix with
  | Some ix when ix.combo == combo -> ix
  | _ ->
      (match session.ix with None -> () | Some _ -> Solver.reset session.s);
      let ix = build_index ~pset:session.pset ~prims:session.prims session.s combo in
      session.ix <- Some ix;
      session.s_last_sat <- (0, 0, 0);
      session.s_last_ext <- (0, 0, 0);
      session.s_last_theory <- 0;
      ix

(* [on_stats] reports the solver work attributable to this problem (the
   delta of the session counters: SAT conflicts / decisions /
   propagations, theory conflicts, learnt clauses, restarts, learnt-DB
   reductions) exactly once per call, on every exit path including
   [Solver.Timeout] — observability callers fold it into per-channel
   metrics. *)
let solve_incr (session : session) ?should_stop ?on_stats
    (combo : Pathenum.combination) (group : group_member list) : verdict =
  let ix = index_of session combo in
  let s = session.s in
  let c = Solver.cnf s in
  let ng = Array.length ix.gis in
  (* the cutoffs: a goroutine runs up to its (first) group op *)
  Array.blit ix.g_len 0 ix.lim 0 ng;
  List.iter
    (fun gm ->
      if gm.g_gid < 0 || gm.g_gid >= ng || gm.g_uid < 0 || gm.g_uid >= ix.g_len.(gm.g_gid)
      then invalid_arg "Constraints.solve_incr: group op outside the combination";
      let g = gm.g_gid in
      if ix.lim.(g) = ix.g_len.(g) then ix.lim.(g) <- gm.g_uid)
    group;
  (* the events a goroutine runs: up to and including its group op *)
  let last g = if ix.lim.(g) < ix.g_len.(g) then ix.lim.(g) else ix.g_len.(g) - 1 in
  session.s_problems <- session.s_problems + 1;
  let guard = Solver.new_guard s in
  let finish () =
    Solver.retire_guard s guard;
    (* periodically reclaim the clauses of retired groups *)
    if session.s_problems land 7 = 0 then Solver.simplify s;
    match on_stats with
    | None -> ()
    | Some f ->
        let (cf, d, pr) = Solver.sat_stats s in
        let (lc, ld, lp) = session.s_last_sat in
        let (le, re, rd) = Solver.sat_ext_stats s in
        let (lle, lre, lrd) = session.s_last_ext in
        let tc = Solver.theory_conflicts s in
        let ltc = session.s_last_theory in
        session.s_last_sat <- (cf, d, pr);
        session.s_last_ext <- (le, re, rd);
        session.s_last_theory <- tc;
        f ~conflicts:(cf - lc) ~decisions:(d - ld) ~propagations:(pr - lp)
          ~theory_conflicts:(tc - ltc) ~learnts:(le - lle)
          ~restarts:(re - lre) ~reductions:(rd - lrd)
  in
  Fun.protect ~finally:finish @@ fun () ->
  Solver.begin_problem s guard;
  (* the atom "event x before event y" *)
  let lt x y = Solver.diff_atom s ix.ov.(x) ix.ov.(y) (-1) in
  let occ = Solver.occ s in
  let push = Cnf.push c in
  (* one formula that is a single ordering atom *)
  let assert_before x y =
    Cnf.assert_lit c (occ (lt x y));
    Solver.end_formula s
  in
  (* ---- Φorder: program order within each goroutine ---- *)
  for g = 0 to ng - 1 do
    let off = ix.g_off.(g) in
    for u = 0 to last g - 1 do
      assert_before (off + u) (off + u + 1)
    done
  done;
  (* ---- Φspawn: a goroutine's first event follows its spawn event ---- *)
  Array.iteri
    (fun g (gi : Pathenum.goroutine_instance) ->
      match (gi.gi_parent, gi.gi_spawn_uid) with
      | Some p, Some u when last g >= 0 -> assert_before (ix.g_off.(p) + u) ix.g_off.(g)
      | _ -> ())
    ix.gis;
  (* ---- match variables: P(s,r) -> O_s = O_r for every live pair ---- *)
  let pair_live q = live ix ix.p_send.(q) && live ix ix.p_recv.(q) in
  for q = 0 to Array.length ix.p_send - 1 do
    if pair_live q then begin
      let os = ix.tm.(ix.p_send.(q)).ev and orc = ix.tm.(ix.p_recv.(q)).ev in
      (* as [Expr.implies p (Solver.eq s os orc)] builds them: the
         reverse ordering atom first, the match variable last *)
      if ix.p_le_rs.(q) < 0 then begin
        ix.p_le_rs.(q) <- Solver.diff_atom s ix.ov.(orc) ix.ov.(os) 0;
        ix.p_le_sr.(q) <- Solver.diff_atom s ix.ov.(os) ix.ov.(orc) 0
      end;
      if ix.p_var.(q) < 0 then ix.p_var.(q) <- Solver.bool_atom s;
      let p = occ ix.p_var.(q) in
      let from = Cnf.sp c in
      push (Gosmt.Sat.neg p);
      let eq = Cnf.sp c in
      push (occ ix.p_le_sr.(q));
      push (occ ix.p_le_rs.(q));
      push (Cnf.and_ c eq);
      Cnf.assert_lit c (Cnf.or_ c from);
      Solver.end_formula s
    end
  done;
  let nt = Array.length ix.tm in
  (* the live pairs of an executing template *)
  let n_live_pairs t =
    Array.fold_left (fun n q -> if pair_live q then n + 1 else n) 0 ix.t_pairs.(t)
  in
  let is_exec t = live ix t && ix.ev_exec.(ix.tm.(t).ev) = t in
  (* at most one partner per send, then per receive *)
  List.iter
    (fun kind ->
      for t = 0 to nt - 1 do
        if ix.tm.(t).kind = kind && is_exec t && n_live_pairs t >= 2 then begin
          let from = Cnf.sp c in
          Array.iter (fun q -> if pair_live q then push (occ ix.p_var.(q))) ix.t_pairs.(t);
          Cnf.assert_at_most c 1 from;
          Solver.end_formula s
        end
      done)
    [ k_send; k_recv ];
  (* ---- channel-state counts ---- *)
  (* Φsync only considers operations on primitives within Pset (§3.4):
     a template's primary object is its first one in Pset, and ops on
     out-of-scope primitives — the running example's ctx.Done() — are
     left unconstrained *)
  let note_id i id =
    if i >= Array.length session.ids then
      session.ids <- Array.append session.ids (Array.make (Array.length session.ids) 0);
    session.ids.(i) <- id
  in
  (* intern [x before m] for the live executing templates [x <> m] of
     [ops] into [ids] from slot [i] on, each [w x] times; returns the
     next free slot *)
  let intern_before ?(w = fun _ -> 1) ops m i =
    let om = ix.tm.(m).ev in
    Array.fold_left
      (fun i x ->
        if x = m || not (live ix x) then i
        else
          match w x with
          | 0 -> i
          | k ->
              let id = lt ix.tm.(x).ev om in
              for j = 0 to k - 1 do
                note_id (i + j) id
              done;
              i + k)
      i ops
  in
  (* A count against [bound]: "#sends before m - #recvs before m" for a
     channel, "Σ delta·[Add before m] - #[Done before m]" for a
     WaitGroup.  As a formula it is [AtMost (k, ups @ ¬downs)] (or
     [AtLeast]) with k = bound + #downs, folded to [False] or [True] when
     k is out of range; the atoms of [ups] and [downs] sit in [ids]. *)
  let classify ~at_most (ct : count) bound =
    let n = ct.nups + ct.ndowns and k = bound + ct.ndowns in
    if at_most then if k < 0 then `False else if k >= n then `True else `Count k
    else if k <= 0 then `True
    else if k > n then `False
    else `Count k
  in
  let push_counted (ct : count) =
    for i = ct.ups to ct.ups + ct.nups - 1 do
      push (occ session.ids.(i))
    done;
    for i = ct.downs to ct.downs + ct.ndowns - 1 do
      push (Gosmt.Sat.neg (occ session.ids.(i)))
    done
  in
  (* a channel's count at [m]: its receives are interned before its
     sends, as [List.map .. ss @ List.map .. rs] evaluates *)
  let chan_count m obj =
    let ops = ix.o_ops.(obj) in
    let nr = intern_before ops.(k_recv) m 0 in
    let n = intern_before ops.(k_send) m nr in
    { ups = nr; nups = n - nr; downs = 0; ndowns = nr }
  in
  (* a WaitGroup's count at [m]: each Add as many times as its delta,
     then the Dones *)
  let wg_count m obj =
    let ops = ix.o_ops.(obj) in
    let nup = intern_before ~w:(fun a -> max 0 ix.tm.(a).weight) ops.(k_add) m 0 in
    let n = intern_before ops.(k_done) m nup in
    { ups = 0; nups = nup; downs = nup; ndowns = n - nup }
  in
  let wg_unmodelable obj =
    Array.exists (fun a -> live ix a && ix.tm.(a).weight = -1) ix.o_ops.(obj).(k_add)
  in
  (* a count asserted as a top-level formula *)
  let count_top ~at_most ct bound =
    match classify ~at_most ct bound with
    | `False -> Cnf.empty c
    | `True -> ()
    | `Count k ->
        let from = Cnf.sp c in
        push_counted ct;
        if at_most then Cnf.assert_at_most c k from else Cnf.assert_at_least c k from
  in
  (* a count nested in a formula: its literal *)
  let count_lit ~at_most ct bound =
    match classify ~at_most ct bound with
    | `False -> Cnf.false_ c
    | `True -> Cnf.true_ c
    | `Count k ->
        let from = Cnf.sp c in
        push_counted ct;
        if at_most then Cnf.at_most c k from else Cnf.at_least c k from
  in
  (* the live closes of [obj], as [x before m] literals (negated when
     [neg]) pushed in order; returns where they start *)
  let push_closes ~neg m obj =
    let om = ix.tm.(m).ev in
    let from = Cnf.sp c in
    Array.iter
      (fun x ->
        if live ix x then
          let l = occ (lt ix.tm.(x).ev om) in
          push (if neg then Gosmt.Sat.neg l else l))
      ix.o_ops.(obj).(k_close);
    from
  in
  (* [Or] of the closes before [m], or [False] *)
  let closed_before m obj =
    let from = push_closes ~neg:false m obj in
    if Cnf.sp c = from then Cnf.false_ c else Cnf.or_ c from
  in
  (* [Not (closed_before m obj)] asserted: in negation normal form,
     [True] or an [And] of negated atoms *)
  let not_closed m obj =
    let from = push_closes ~neg:true m obj in
    Cnf.assert_lit c (if Cnf.sp c = from then Cnf.true_ c else Cnf.and_ c from)
  in
  (* exactly one match, expanded: Or over the partners r of
     And (P_r :: (O_m = O_r) :: [¬P_r' | r' ≠ r]) *)
  let matched_one m =
    let qs = ix.t_pairs.(m) in
    let sending = ix.tm.(m).kind = k_send in
    let from = Cnf.sp c in
    Array.iter
      (fun q ->
        if pair_live q then begin
          let conj = Cnf.sp c in
          push (occ ix.p_var.(q));
          let eq = Cnf.sp c in
          (* O_m - O_r <= 0, then O_r - O_m <= 0 *)
          let a, b = if sending then (ix.p_le_sr.(q), ix.p_le_rs.(q)) else (ix.p_le_rs.(q), ix.p_le_sr.(q)) in
          push (occ a);
          push (occ b);
          push (Cnf.and_ c eq);
          Array.iter
            (fun q' -> if q' <> q && pair_live q' then push (Gosmt.Sat.neg (occ ix.p_var.(q'))))
            qs;
          push (Cnf.and_ c conj)
        end)
      qs;
    if Cnf.sp c = from then Cnf.false_ c else Cnf.or_ c from
  in
  (* ---- Φsync: every executing micro-op can proceed ---- *)
  for m = 0 to nt - 1 do
    let obj = ix.tm.(m).primary in
    if obj >= 0 && is_exec m then begin
      let kind = ix.tm.(m).kind in
      if kind = k_send then begin
        if ix.tm.(m).mutex then
          (* lock: the buffer-1 channel must not be full *)
          count_top ~at_most:true (chan_count m obj) 0
        else begin
          let from = Cnf.sp c in
          (match ix.o_buf.(obj) with
          | Some b -> push (count_lit ~at_most:true (chan_count m obj) (b - 1))
          | None -> push (Cnf.true_ c) (* unknown capacity: non-blocking *));
          push (matched_one m);
          Cnf.assert_lit c (Cnf.or_ c from)
        end;
        Solver.end_formula s
      end
      else if kind = k_recv then begin
        if ix.tm.(m).mutex then
          (* unlock: the buffer-1 channel must contain the lock *)
          count_top ~at_most:false (chan_count m obj) 1
        else begin
          let from = Cnf.sp c in
          push (count_lit ~at_most:false (chan_count m obj) 1);
          push (closed_before m obj);
          push (matched_one m);
          Cnf.assert_lit c (Cnf.or_ c from)
        end;
        Solver.end_formula s
      end
      else if kind = k_wait && not (wg_unmodelable obj) then begin
        (* the counter is back to zero *)
        count_top ~at_most:true (wg_count m obj) 0;
        Solver.end_formula s
      end
    end
  done;
  (* ---- ΦB: every group micro-op blocks ---- *)
  let group_micros = ref 0 in
  for g = 0 to ng - 1 do
    if ix.lim.(g) < ix.g_len.(g) then
      Array.iter
        (fun m ->
          incr group_micros;
          let obj = ix.tm.(m).primary and kind = ix.tm.(m).kind in
          (if obj < 0 then Cnf.empty c (* cannot reason: un-blockable *)
           else if kind = k_send then begin
             if ix.tm.(m).mutex then
               (* lock held *)
               count_top ~at_most:false (chan_count m obj) 1
             else begin
               (* full, no partner (a group op has none), not closed *)
               (match ix.o_buf.(obj) with
               | Some b -> count_top ~at_most:false (chan_count m obj) b
               | None -> Cnf.empty c);
               not_closed m obj
             end
           end
           else if kind = k_recv then begin
             if ix.tm.(m).mutex then Cnf.empty c (* unlock never blocks *)
             else begin
               (* empty, not closed, no partner *)
               count_top ~at_most:true (chan_count m obj) 0;
               not_closed m obj
             end
           end
           else if kind = k_wait && not (wg_unmodelable obj) then
             (* some Add never matched *)
             count_top ~at_most:false (wg_count m obj) 1
           else Cnf.empty c);
          Solver.end_formula s)
        ix.ev_group.(ix.g_off.(g) + ix.lim.(g))
  done;
  if !group_micros = 0 then Cannot_block
  else begin
    (* ΦB's Φorder: every other event precedes every group op *)
    for g = 0 to ng - 1 do
      for u = 0 to last g do
        if not (List.exists (fun gm -> gm.g_gid = g && gm.g_uid = u) group) then
          List.iter
            (fun gm -> assert_before (ix.g_off.(g) + u) (ix.g_off.(gm.g_gid) + gm.g_uid))
            group
      done
    done;
    match Solver.solve ?should_stop ~assumptions:[ guard ] s with
    | Solver.Unsat -> Cannot_block
    | Solver.Sat_model model ->
        let witness = ref [] in
        for g = ng - 1 downto 0 do
          for u = last g downto 0 do
            let e = ix.g_off.(g) + u in
            witness := (ix.evs.(e).e_pp, model.Solver.order_of ix.ov.(e)) :: !witness
          done
        done;
        Blocks !witness
  end
