(* The reference encoder: the BMOC constraint encoder as it was before
   it wrote clauses directly, kept verbatim apart from module paths.  It
   builds each formula as an [Expr.t] and adds it to [Ref_solver], so
   the clauses reach the SAT core through the old Tseitin translation
   kept there.  [Suite_encoder] checks that [Gcatch.Constraints] emits
   the same instance, problem by problem.  Not used outside the
   tests. *)

module Ir = Goir.Ir
module Alias = Goanalysis.Alias
module E = Gosmt.Expr
module Solver = Ref_solver
module Report = Gcatch.Report
module Pathenum = Gcatch.Pathenum
module Primitives = Gcatch.Primitives

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
   able to proceed; ΦB requires every group operation to block. *)

(* A micro-operation: a concrete send/recv/close/lock/unlock occurrence.
   Plain ops yield one micro-op; a select taking arm k yields arm k; a
   *blocked* select yields one micro-op per arm. *)
type micro = {
  m_gid : int;
  m_uid : int;                (* event uid within its goroutine's path *)
  m_arm : int option;
  m_kind : Report.op_kind;
  m_objs : Alias.obj list;
  m_pp : Ir.pp;
  m_loc : Minigo.Loc.t;
  m_func : string;
  m_in_group : bool;
  m_is_mutex : bool;
  m_wg_weight : int option;   (* static delta of a WaitGroup Add *)
}

type group_member = { g_gid : int; g_uid : int }

(* One problem's non-group micro-ops on one object, by kind. *)
type obj_ops = {
  o_sends : micro list;
  o_recvs : micro list;
  o_closes : micro list;
  o_adds : micro list;
  o_dones : micro list;
}

type problem = {
  combo : Pathenum.combination;
  group : group_member list;
  pset : Alias.obj list;
  prims : Primitives.t;
}

type verdict =
  | Blocks of (Ir.pp * int) list (* witness schedule: pp -> order value *)
  | Cannot_block

let is_mutex_obj prims obj =
  match Primitives.kind_of prims obj with
  | Some Primitives.Pmutex -> true
  | _ -> false

let shares_obj a b = List.exists (fun o -> List.mem o b.m_objs) a.m_objs

(* Collect the truncated event lists (events after a goroutine's group op
   do not execute) and the micro-ops. *)
let prepare (p : problem) =
  let group_uid gid =
    List.find_map (fun g -> if g.g_gid = gid then Some g.g_uid else None) p.group
  in
  let truncated =
    List.map
      (fun (gi : Pathenum.goroutine_instance) ->
        let cutoff = group_uid gi.gi_id in
        let evs =
          match cutoff with
          | None -> gi.gi_path.p_events
          | Some cut ->
              List.filter (fun (e : Pathenum.event) -> e.e_uid <= cut)
                gi.gi_path.p_events
        in
        (gi, evs))
      p.combo
  in
  let micros = ref [] in
  List.iter
    (fun ((gi : Pathenum.goroutine_instance), evs) ->
      List.iter
        (fun (e : Pathenum.event) ->
          let in_group = group_uid gi.gi_id = Some e.e_uid in
          let mk ?arm ?wg_weight kind objs =
            (* the mutex-as-channel encoding (§3.4): Lock is a send on a
               buffer-1 channel, Unlock a receive from it *)
            let kind =
              match kind with
              | Report.Klock -> Report.Ksend
              | Report.Kunlock -> Report.Krecv
              | k -> k
            in
            micros :=
              {
                m_gid = gi.gi_id;
                m_uid = e.e_uid;
                m_arm = arm;
                m_kind = kind;
                m_objs = objs;
                m_pp = e.e_pp;
                m_loc = e.e_loc;
                m_func = e.e_func;
                m_in_group = in_group;
                m_is_mutex = List.exists (is_mutex_obj p.prims) objs;
                m_wg_weight = wg_weight;
              }
              :: !micros
          in
          match e.e_desc with
          | Sync (Sop (kind, objs)) -> mk kind objs
          | Sync (Swg_add (objs, w)) ->
              mk ~wg_weight:(Option.value w ~default:(-1)) Report.Kwg_add objs
          | Sync (Sselect { arms; chosen; _ }) -> (
              if in_group then
                (* blocked select: every arm is a blocked micro-op *)
                List.iteri (fun i (kind, objs) -> mk ~arm:i kind objs) arms
              else
                match chosen with
                | Some i ->
                    let kind, objs = List.nth arms i in
                    mk ~arm:i kind objs
                | None -> () (* default taken: no channel op executed *))
          | Spawn _ | Branch _ -> ())
        evs)
    truncated;
  (truncated, List.rev !micros)

(* An incremental solver session.  One [Smt.Solver]
   instance is shared by every group problem of a *combination*: each
   problem's constraints are asserted under a fresh selector guard,
   solved with that guard assumed, and the guard retired immediately
   afterwards.  What persists across a combination's groups — and is
   the point of the exercise — is the interned atom table, the theory
   lemmas (blocking clauses, which are tautologies over their atoms),
   the learnt clauses (self-guarding: they inherit the ¬selector
   literals of every group they were derived from), and the VSIDS
   branching activity.

   The solver is renewed at each combination boundary rather than kept
   for the whole channel: a combination's groups truly overlap (same
   paths, same events, same difference atoms), whereas across
   combinations the atoms are disjoint — carrying the instance over
   only accumulates retired groups' clauses in the shared watch lists
   and turns every later query into a scan of the channel's history
   (measured as a 4.5x slowdown on the ablated-scope bench before the
   renewal was introduced).

   Order variables are memoized per (gid, uid) while the combination is
   unchanged, so the many suspicious groups of one combination intern the
   same difference atoms and share each other's theory lemmas.  Match
   variables are memoized the same way, per (send, recv) pair of
   micro-ops keyed by their (gid, uid, arm) ints: the solver's booleans
   carry no names, so this table is what gives a pair the same atom in
   every group.  Both tables are reset when the combination changes
   because path uids are dense per-path and would otherwise alias
   distinct events.

   Program-order chains are deliberately NOT shared across groups: each
   group truncates the paths at a different cutoff, and a chain through a
   post-cutoff spawn event could manufacture a spurious cycle for another
   group.  Everything a problem asserts lives and dies with its guard. *)
type session = {
  mutable ss : Solver.t;
  mutable s_combo : Pathenum.combination option; (* phys-eq tracked *)
  s_ovar : (int * int, Solver.ovar) Hashtbl.t;
  s_pvar : (int * int * int * int * int * int, E.t) Hashtbl.t;
  mutable s_problems : int;
  mutable s_last_sat : int * int * int;
  mutable s_last_ext : int * int * int;
  mutable s_last_theory : int;
}

let create_session () =
  {
    ss = Solver.create ();
    s_combo = None;
    s_ovar = Hashtbl.create 64;
    s_pvar = Hashtbl.create 16;
    s_problems = 0;
    s_last_sat = (0, 0, 0);
    s_last_ext = (0, 0, 0);
    s_last_theory = 0;
  }

(* [on_stats] reports the solver work attributable to this problem (the
   delta of the session counters: SAT conflicts / decisions /
   propagations, theory conflicts, learnt clauses, restarts, learnt-DB
   reductions) exactly once per call, on every exit path including
   [Solver.Timeout] — observability callers fold it into per-channel
   metrics. *)
let solve_incr (session : session) ?should_stop ?on_stats (p : problem) :
    verdict =
  let truncated, micros = prepare p in
  (* Sharing is per combination: the groups of one combination intern the
     same order variables and difference atoms, so their theory lemmas
     and learnt clauses transfer.  When the combination changes the atom
     vocabulary changes wholesale (path uids are dense per-path and would
     alias), so nothing useful survives — and what *does* survive in the
     solver (retired groups' clauses in shared watch lists, the growing
     trail and variable arrays) only taxes every later query.  Renewing
     the solver at each combination boundary keeps the per-query cost
     proportional to the live problem.  The cadence is a pure function of
     the problem stream, so it is deterministic. *)
  (match session.s_combo with
  | Some c when c == p.combo -> ()
  | _ ->
      session.ss <- Solver.create ();
      session.s_combo <- Some p.combo;
      Hashtbl.reset session.s_ovar;
      Hashtbl.reset session.s_pvar;
      session.s_last_sat <- (0, 0, 0);
      session.s_last_ext <- (0, 0, 0);
      session.s_last_theory <- 0);
  let s = session.ss in
  session.s_problems <- session.s_problems + 1;
  let g = Solver.new_guard s in
  (* every formula of this problem lives and dies with [g] *)
  let add =
    let guard = Some g in
    fun f -> Solver.add ?guard s f
  in
  let finish () =
    Solver.retire_guard s g;
    (* periodically reclaim the clauses of retired groups *)
    if session.s_problems land 7 = 0 then Solver.simplify s;
    match on_stats with
    | None -> ()
    | Some f ->
        let (c, d, pr) = Solver.sat_stats s in
        let (lc, ld, lp) = session.s_last_sat in
        let (le, re, rd) = Solver.sat_ext_stats s in
        let (lle, lre, lrd) = session.s_last_ext in
        let tc = Solver.theory_conflicts s in
        let ltc = session.s_last_theory in
        session.s_last_sat <- (c, d, pr);
        session.s_last_ext <- (le, re, rd);
        session.s_last_theory <- tc;
        f ~conflicts:(c - lc) ~decisions:(d - ld) ~propagations:(pr - lp)
          ~theory_conflicts:(tc - ltc) ~learnts:(le - lle)
          ~restarts:(re - lre) ~reductions:(rd - lrd)
  in
  Fun.protect ~finally:finish @@ fun () ->
  (* ---- order variables, one per event ---- *)
  let ovar = session.s_ovar in
  let ovar_of gid uid =
    match Hashtbl.find_opt ovar (gid, uid) with
    | Some v -> v
    | None ->
        let v = Solver.new_order_var s in
        Hashtbl.replace ovar (gid, uid) v;
        v
  in
  (* Φorder: program order within each goroutine *)
  List.iter
    (fun ((gi : Pathenum.goroutine_instance), evs) ->
      let rec chain = function
        | (a : Pathenum.event) :: (b :: _ as rest) ->
            add (Solver.lt s (ovar_of gi.gi_id a.e_uid) (ovar_of gi.gi_id b.e_uid));
            chain rest
        | _ -> ()
      in
      chain evs)
    truncated;
  (* Φspawn: a goroutine's first event follows its spawn event *)
  List.iter
    (fun ((gi : Pathenum.goroutine_instance), evs) ->
      match (gi.gi_parent, gi.gi_spawn_uid, evs) with
      | Some parent, Some spawn_uid, first :: _ ->
          add
            (Solver.lt s (ovar_of parent spawn_uid) (ovar_of gi.gi_id first.Pathenum.e_uid))
      | _ -> ())
    truncated;
  (* ---- match variables ---- *)
  let non_group = List.filter (fun m -> not m.m_in_group) micros in
  let m_ovar m = ovar_of m.m_gid m.m_uid in
  let sends =
    List.filter (fun m -> m.m_kind = Report.Ksend && not m.m_is_mutex) micros
  in
  let recvs =
    List.filter (fun m -> m.m_kind = Report.Krecv && not m.m_is_mutex) micros
  in
  (* candidate pairs: cross-goroutine, same object, neither in the group *)
  let pairs =
    List.concat_map
      (fun snd_op ->
        List.filter_map
          (fun rcv ->
            if
              snd_op.m_gid <> rcv.m_gid
              && shares_obj snd_op rcv
              && (not snd_op.m_in_group)
              && not rcv.m_in_group
            then Some (snd_op, rcv)
            else None)
          recvs)
      sends
  in
  let pvar snd_op rcv =
    let arm m = Option.value m.m_arm ~default:(-1) in
    let k =
      (snd_op.m_gid, snd_op.m_uid, arm snd_op, rcv.m_gid, rcv.m_uid, arm rcv)
    in
    match Hashtbl.find_opt session.s_pvar k with
    | Some v -> v
    | None ->
        let v = Solver.new_bool s in
        Hashtbl.replace session.s_pvar k v;
        v
  in
  (* global invariants *)
  List.iter
    (fun (a, b) ->
      add (E.implies (pvar a b) (Solver.eq s (m_ovar a) (m_ovar b))))
    pairs;
  let partners_of_send m =
    List.filter_map (fun (a, b) -> if a == m then Some b else None) pairs
  in
  let partners_of_recv m =
    List.filter_map (fun (a, b) -> if b == m then Some a else None) pairs
  in
  List.iter
    (fun m ->
      match partners_of_send m with
      | [] | [ _ ] -> ()
      | ps -> add (E.AtMost (1, List.map (fun r -> pvar m r) ps)))
    sends;
  List.iter
    (fun m ->
      match partners_of_recv m with
      | [] | [ _ ] -> ()
      | ps -> add (E.AtMost (1, List.map (fun a -> pvar a m) ps)))
    recvs;
  (* ---- channel-state cardinalities ---- *)
  (* Φsync only considers operations on primitives within Pset (§3.4);
     ops on out-of-scope primitives — the running example's ctx.Done() —
     are left unconstrained *)
  let primary_obj m = List.find_opt (fun o -> List.mem o p.pset) m.m_objs in
  (* the non-group micro-ops on one object, by kind, in micro-op order;
     computed once per object for the whole problem *)
  let by_obj = ref [] in
  let ops_on obj =
    match List.assoc_opt obj !by_obj with
    | Some o -> o
    | None ->
        let on kind =
          List.filter (fun x -> x.m_kind = kind && List.mem obj x.m_objs) non_group
        in
        let o =
          {
            o_sends = on Report.Ksend;
            o_recvs = on Report.Krecv;
            o_closes = on Report.Kclose;
            o_adds = on Report.Kwg_add;
            o_dones = on Report.Kwg_done;
          }
        in
        by_obj := (obj, o) :: !by_obj;
        o
  in
  let counting_sends obj m = List.filter (fun x -> x != m) (ops_on obj).o_sends in
  let counting_recvs obj m = List.filter (fun x -> x != m) (ops_on obj).o_recvs in
  let closes obj = (ops_on obj).o_closes in
  let before x m = Solver.lt s (m_ovar x) (m_ovar m) in
  (* #sends_before(m) - #recvs_before(m) <= bound *)
  let cb_at_most m obj bound =
    let ss = counting_sends obj m in
    let rs = counting_recvs obj m in
    let lits = List.map (fun x -> before x m) ss @ List.map (fun x -> E.not_ (before x m)) rs in
    let k = bound + List.length rs in
    if k < 0 then E.False
    else if k >= List.length lits then E.True
    else E.AtMost (k, lits)
  in
  let cb_at_least m obj bound =
    let ss = counting_sends obj m in
    let rs = counting_recvs obj m in
    let lits = List.map (fun x -> before x m) ss @ List.map (fun x -> E.not_ (before x m)) rs in
    let k = bound + List.length rs in
    if k <= 0 then E.True
    else if k > List.length lits then E.False
    else E.AtLeast (k, lits)
  in
  let closed_before m obj =
    match closes obj with
    | [] -> E.False
    | cs -> E.disj (List.map (fun c -> before c m) cs)
  in
  (* WaitGroup counting (the §6 extension, enabled by the path config's
     [model_waitgroup]): an Add with static delta w contributes w copies
     of its happens-before atom; counter(wait) = Σ w·[add before] -
     #[done before].  A weight of Some (-1) marks a non-constant Add,
     which makes the whole WaitGroup unmodelable. *)
  let wg_adds obj = (ops_on obj).o_adds in
  let wg_dones obj = (ops_on obj).o_dones in
  let wg_unmodelable obj =
    List.exists (fun x -> x.m_wg_weight = Some (-1)) (wg_adds obj)
  in
  let wg_lits m obj =
    let adds = wg_adds obj and dones = wg_dones obj in
    let add_lits =
      List.concat_map
        (fun a ->
          let w = max 0 (Option.value a.m_wg_weight ~default:1) in
          List.init w (fun _ -> before a m))
        adds
    in
    (add_lits @ List.map (fun d -> E.not_ (before d m)) dones, List.length dones)
  in
  (* Σ w·[add before m] - #[done before m] <= bound *)
  let wg_counter_at_most m obj bound =
    let lits, ndones = wg_lits m obj in
    let k = bound + ndones in
    if k < 0 then E.False
    else if k >= List.length lits then E.True
    else E.AtMost (k, lits)
  in
  let wg_counter_at_least m obj bound =
    let lits, ndones = wg_lits m obj in
    let k = bound + ndones in
    if k <= 0 then E.True
    else if k > List.length lits then E.False
    else E.AtLeast (k, lits)
  in
  let buffer_size obj =
    match Primitives.buffer_size p.prims obj with
    | Some b -> Some b
    | None -> None
  in
  (* exactly-one match, expanded (small partner sets) *)
  let matched_one m partners mk_p =
    match partners with
    | [] -> E.False
    | _ ->
        E.disj
          (List.map
             (fun r ->
               E.conj
                 (mk_p r
                  :: Solver.eq s (m_ovar m) (m_ovar r)
                  :: List.filter_map
                       (fun r' -> if r' == r then None else Some (E.not_ (mk_p r')))
                       partners))
             partners)
  in
  (* proceed constraint for a non-group micro-op (the paper's Φsync) *)
  let proceed m : E.t =
    match (m.m_kind, primary_obj m) with
    | _, None -> E.True
    | Report.Ksend, Some obj ->
        if m.m_is_mutex then
          (* lock: the buffer-1 channel must not be full *)
          cb_at_most m obj 0
        else
          let buf_ok =
            match buffer_size obj with
            | Some b -> cb_at_most m obj (b - 1)
            | None -> E.True (* unknown capacity: assume non-blocking *)
          in
          let rendezvous =
            matched_one m (partners_of_send m) (fun r -> pvar m r)
          in
          E.(buf_ok ||| rendezvous)
    | Report.Krecv, Some obj ->
        if m.m_is_mutex then
          (* unlock: the buffer-1 channel must contain the lock *)
          cb_at_least m obj 1
        else
          let nonempty = cb_at_least m obj 1 in
          let closed = closed_before m obj in
          let rendezvous =
            matched_one m (partners_of_recv m) (fun a -> pvar a m)
          in
          E.disj [ nonempty; closed; rendezvous ]
    | Report.Kwg_wait, Some obj ->
        if wg_unmodelable obj then E.True
        else wg_counter_at_most m obj 0 (* counter back to zero *)
    | (Report.Kclose | Report.Kunlock | Report.Kwg_add | Report.Kwg_done), _ ->
        E.True
    | (Report.Kselect | Report.Klock), _ -> E.True
  in
  List.iter (fun m -> if not m.m_in_group then add (proceed m)) micros;
  (* ---- ΦB ---- *)
  let group_micros = List.filter (fun m -> m.m_in_group) micros in
  if group_micros = [] then Cannot_block
  else begin
    (* block constraint per group micro-op *)
    let blocks m : E.t =
      match (m.m_kind, primary_obj m) with
      | _, None -> E.False (* cannot reason: treat as un-blockable *)
      | Report.Ksend, Some obj ->
          if m.m_is_mutex then cb_at_least m obj 1 (* lock held *)
          else
            let full =
              match buffer_size obj with
              | Some b -> cb_at_least m obj b
              | None -> E.False
            in
            let no_partner =
              E.conj (List.map (fun r -> E.not_ (pvar m r)) (partners_of_send m))
            in
            let not_closed = E.not_ (closed_before m obj) in
            E.conj [ full; no_partner; not_closed ]
      | Report.Krecv, Some obj ->
          if m.m_is_mutex then E.False (* unlock never blocks *)
          else
            let empty = cb_at_most m obj 0 in
            let not_closed = E.not_ (closed_before m obj) in
            let no_partner =
              E.conj (List.map (fun a -> E.not_ (pvar a m)) (partners_of_recv m))
            in
            E.conj [ empty; not_closed; no_partner ]
      | Report.Kwg_wait, Some obj ->
          if wg_unmodelable obj then E.False
          else wg_counter_at_least m obj 1 (* some Add never matched *)
      | _, _ -> E.False
    in
    (* all micro-ops of one group event must block together (a select
       blocks iff every arm blocks) *)
    List.iter (fun m -> add (blocks m)) group_micros;
    (* ΦB's Φorder: every non-group event precedes every group op *)
    List.iter
      (fun ((gi : Pathenum.goroutine_instance), evs) ->
        List.iter
          (fun (e : Pathenum.event) ->
            let e_in_group =
              List.exists (fun g -> g.g_gid = gi.gi_id && g.g_uid = e.e_uid) p.group
            in
            if not e_in_group then
              List.iter
                (fun (gm : group_member) ->
                  add
                    (Solver.lt s (ovar_of gi.gi_id e.e_uid) (ovar_of gm.g_gid gm.g_uid)))
                p.group)
          evs)
      truncated;
    match Solver.solve ?should_stop ~assumptions:[ g ] s with
    | Solver.Unsat -> Cannot_block
    | Solver.Sat_model m ->
        let witness =
          List.concat_map
            (fun ((gi : Pathenum.goroutine_instance), evs) ->
              List.map
                (fun (e : Pathenum.event) ->
                  (e.e_pp, m.Solver.order_of (ovar_of gi.gi_id e.e_uid)))
                evs)
            truncated
        in
        Blocks witness
  end
