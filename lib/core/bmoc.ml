module Ir = Goir.Ir
module Alias = Goanalysis.Alias
module Callgraph = Goanalysis.Callgraph
module Pool = Goengine.Pool
module Clock = Goengine.Clock
module M = Goobs.Metrics
module Trace = Goobs.Trace

(* The BMOC detector (paper Algorithm 1).

   For every channel: compute its scope and Pset (disentangling), collect
   the goroutines active in the scope, enumerate path combinations,
   compute suspicious groups, and hand each (combination, group) pair to
   the constraint system.  A satisfiable ΦR ∧ ΦB is a detected blocking
   misuse-of-channel bug. *)

type config = {
  path_cfg : Pathenum.config;
  max_combos : int;
  max_goroutines : int;
  max_groups : int;          (* per combination *)
  max_group_size : int;
  disentangle : bool;        (* E5 ablation knob *)
  solve_cache : bool;        (* per-channel verdict cache (memory tier) *)
  cache_dir : string option; (* optional persistent tier for the cache *)
  retry_rungs : int;
      (* degradation-ladder depth: how many times a channel that blew its
         [solver_timeout_ms] budget is retried at reduced path/combination
         bounds (the paper's own knobs) before the skip warning is
         emitted.  Only consulted when a budget is set — the clean path
         without a budget is untouched. *)
}

let default_config =
  {
    path_cfg = Pathenum.default_config;
    max_combos = 128;
    max_goroutines = 6;
    max_groups = 64;
    max_group_size = 2;
    disentangle = true;
    solve_cache = true;
    (* the CLI re-reads the variable itself for --cache-dir's default;
       this binding is evaluated once at module initialisation *)
    cache_dir = Sys.getenv_opt "GCATCH_CACHE_DIR";
    retry_rungs = 2;
  }

(* Detector statistics, served from the metrics registry: [detect_with]
   accumulates per-channel counts into "bmoc.*" counters and returns
   this record as a read-only snapshot of that run (the field names are
   the registry names minus the "bmoc." prefix). *)
type stats = {
  channels_analysed : int;
  combinations : int;
  groups_checked : int;
  solver_calls : int;
  total_path_events : int;
  constraints_hint : int; (* micro-ops considered, a proxy *)
  solver_timeouts : int;  (* channels skipped on budget exhaustion *)
}

(* Per-channel working counters: owned by the single domain analysing
   that channel, so plain mutable ints — the registry is only touched
   once per channel, keeping the solver loop free of atomics. *)
type chan_stats = {
  mutable c_combinations : int;
  mutable c_groups_checked : int;
  mutable c_solver_calls : int;
  mutable c_path_events : int;
  mutable c_constraints_hint : int;
  mutable c_sat_conflicts : int;
  mutable c_sat_decisions : int;
  mutable c_sat_propagations : int;
  mutable c_theory_conflicts : int;
  mutable c_sat_learnts : int;
  mutable c_sat_restarts : int;
  mutable c_sat_db_reductions : int;
  mutable c_paths_deduped : int;
}

let new_chan_stats () =
  {
    c_combinations = 0;
    c_groups_checked = 0;
    c_solver_calls = 0;
    c_path_events = 0;
    c_constraints_hint = 0;
    c_sat_conflicts = 0;
    c_sat_decisions = 0;
    c_sat_propagations = 0;
    c_theory_conflicts = 0;
    c_sat_learnts = 0;
    c_sat_restarts = 0;
    c_sat_db_reductions = 0;
    c_paths_deduped = 0;
  }

(* The per-channel counters in snapshot order: the name each has in the
   solve cache's snapshot, and the run-registry counter it adds to. *)
let counter_slots =
  [|
    ("combinations", "bmoc.combinations");
    ("groups_checked", "bmoc.groups_checked");
    ("solver_calls", "bmoc.solver_calls");
    ("path_events", "bmoc.total_path_events");
    ("constraints_hint", "bmoc.constraints_hint");
    ("sat_conflicts", "bmoc.sat_conflicts");
    ("sat_decisions", "bmoc.sat_decisions");
    ("sat_propagations", "bmoc.sat_propagations");
    ("theory_conflicts", "bmoc.theory_conflicts");
    ("sat_learnts", "sat.learnt_clauses");
    ("sat_restarts", "sat.restarts");
    ("sat_db_reductions", "sat.db_reductions");
    ("paths_deduped", "bmoc.paths_deduped");
  |]

(* The counters as an array in [counter_slots] order. *)
let stats_array (cst : chan_stats) : int array =
  [|
    cst.c_combinations;
    cst.c_groups_checked;
    cst.c_solver_calls;
    cst.c_path_events;
    cst.c_constraints_hint;
    cst.c_sat_conflicts;
    cst.c_sat_decisions;
    cst.c_sat_propagations;
    cst.c_theory_conflicts;
    cst.c_sat_learnts;
    cst.c_sat_restarts;
    cst.c_sat_db_reductions;
    cst.c_paths_deduped;
  |]

(* The per-channel counter snapshot as stored in (and replayed from) the
   solve cache.  Replaying the original run's counters on a hit keeps
   the run-registry metrics byte-identical between warm and cold runs. *)
let stats_snapshot (cst : chan_stats) : (string * int) list =
  Array.to_list (Array.map2 (fun (k, _) v -> (k, v)) counter_slots (stats_array cst))

let stats_restore (cst : chan_stats) (l : (string * int) list) =
  let g i = Option.value (List.assoc_opt (fst counter_slots.(i)) l) ~default:0 in
  cst.c_combinations <- g 0;
  cst.c_groups_checked <- g 1;
  cst.c_solver_calls <- g 2;
  cst.c_path_events <- g 3;
  cst.c_constraints_hint <- g 4;
  cst.c_sat_conflicts <- g 5;
  cst.c_sat_decisions <- g 6;
  cst.c_sat_propagations <- g 7;
  cst.c_theory_conflicts <- g 8;
  cst.c_sat_learnts <- g 9;
  cst.c_sat_restarts <- g 10;
  cst.c_sat_db_reductions <- g 11;
  cst.c_paths_deduped <- g 12

(* Blocking-capable candidate events for suspicious groups. *)
let candidates (pset : Alias.obj list) (gi : Pathenum.goroutine_instance) :
    Pathenum.event list =
  List.filter
    (fun (e : Pathenum.event) ->
      match e.e_desc with
      | Sync
          (Sop
             ( (Report.Ksend | Report.Krecv | Report.Klock | Report.Kwg_wait),
               objs )) ->
          List.exists (fun o -> List.mem o pset) objs
      | Sync (Sselect { arms; has_default = false; _ }) ->
          (* a select is a candidate only when every arm is over Pset
             primitives — otherwise its blocking cannot be decided in this
             scope (the paper's running example excludes the parent's
             select for exactly this reason) *)
          arms <> []
          && List.for_all
               (fun (_, objs) ->
                 objs <> [] && List.for_all (fun o -> List.mem o pset) objs)
               arms
      | _ -> false)
    gi.gi_path.p_events

(* Ops that could unblock each other must not share a group: a send and a
   receive on the same object. *)
let mutually_unblocking (a : Pathenum.event) (b : Pathenum.event) : bool =
  let ops_of (e : Pathenum.event) =
    match e.e_desc with
    | Sync (Sop (k, objs)) -> [ (k, objs) ]
    | Sync (Sselect { arms; _ }) -> arms
    | _ -> []
  in
  List.exists
    (fun (ka, oa) ->
      List.exists
        (fun (kb, ob) ->
          let crossing =
            match (ka, kb) with
            | Report.Ksend, Report.Krecv | Report.Krecv, Report.Ksend -> true
            | _ -> false
          in
          crossing && List.exists (fun o -> List.mem o ob) oa)
        (ops_of b))
    (ops_of a)

(* All suspicious groups of a combination, sizes 1..max_group_size, at
   most one op per goroutine. *)
let suspicious_groups cfg pset (combo : Pathenum.combination) :
    Constraints.group_member list list =
  let per_g =
    List.map (fun gi -> (gi, candidates pset gi)) combo
    |> List.filter (fun (_, cs) -> cs <> [])
  in
  let singles =
    List.concat_map
      (fun ((gi : Pathenum.goroutine_instance), cs) ->
        List.map
          (fun (e : Pathenum.event) ->
            [ { Constraints.g_gid = gi.gi_id; g_uid = e.e_uid } ])
          cs)
      per_g
  in
  let pairs =
    if cfg.max_group_size < 2 then []
    else
      List.concat_map
        (fun ((g1 : Pathenum.goroutine_instance), cs1) ->
          List.concat_map
            (fun ((g2 : Pathenum.goroutine_instance), cs2) ->
              if g1.gi_id >= g2.gi_id then []
              else
                List.concat_map
                  (fun e1 ->
                    List.filter_map
                      (fun e2 ->
                        if mutually_unblocking e1 e2 then None
                        else
                          Some
                            [
                              { Constraints.g_gid = g1.gi_id; g_uid = e1.Pathenum.e_uid };
                              { Constraints.g_gid = g2.gi_id; g_uid = e2.Pathenum.e_uid };
                            ])
                      cs2)
                  cs1)
            per_g)
        per_g
  in
  let all = singles @ pairs in
  if List.length all > cfg.max_groups then
    List.filteri (fun i _ -> i < cfg.max_groups) all
  else all

(* What one channel's analysis came to, for a channel solved cleanly at
   full bounds: its bugs and its counter snapshot ([counter_slots]
   order).  Kept per run so a later analysis can take it over;
   read-only once built. *)
type outcome = {
  o_bugs : Report.bmoc_bug list;
  o_stats : int array;
}

type outcomes = (Alias.obj, outcome) Hashtbl.t

(* Detect BMOC bugs for one channel.  Returns the bugs plus a flag saying
   whether the channel blew its [solver_timeout_ms] budget — in which case
   its (partial, schedule-dependent) findings are discarded so the output
   stays deterministic, and the caller reports the channel as skipped.

   The per-run [enum_memo] shares path enumerations between channels
   whose (root, scope, Pset, config) coincide — under the E5 ablation
   every channel of an app walks the same whole-program scope, so the
   CFG walk happens once instead of once per channel.  With the solve
   cache on, the canonical problem is fingerprinted after enumeration
   and feasibility filtering; a hit replays the stored bug list and
   counter snapshot without touching the solver. *)
let detect_channel ?(cfg = default_config) ~(prims : Primitives.t)
    ~(dis : Disentangle.t) ~(cg : Callgraph.t) ~(alias : Alias.t)
    ~(prog : Ir.program) ~(cst : chan_stats)
    ~(enum_memo : Pathenum.combination list Goengine.Memo.t)
    ~(verdicts : Goengine.Engine.derived Goengine.Memo.t) (c : Alias.obj) :
    Report.bmoc_bug list * bool =
  let on_stats ~conflicts ~decisions ~propagations ~theory_conflicts ~learnts
      ~restarts ~reductions =
    cst.c_sat_conflicts <- cst.c_sat_conflicts + conflicts;
    cst.c_sat_decisions <- cst.c_sat_decisions + decisions;
    cst.c_sat_propagations <- cst.c_sat_propagations + propagations;
    cst.c_theory_conflicts <- cst.c_theory_conflicts + theory_conflicts;
    cst.c_sat_learnts <- cst.c_sat_learnts + learnts;
    cst.c_sat_restarts <- cst.c_sat_restarts + restarts;
    cst.c_sat_db_reductions <- cst.c_sat_db_reductions + reductions
  in
  let should_stop =
    match cfg.path_cfg.Pathenum.solver_timeout_ms with
    | None -> None
    | Some ms ->
        let deadline = Clock.now_s () +. (float_of_int ms /. 1000.) in
        Some (fun () -> Clock.now_s () > deadline)
  in
  let scope, pset =
    if cfg.disentangle then (Disentangle.scope_of dis c, Disentangle.pset dis c)
    else begin
      (* ablation: whole-program scope from main with every primitive *)
      let root = match prog.Ir.main with Some m -> m | None -> (Disentangle.scope_of dis c).root in
      let funcs =
        Hashtbl.fold (fun f () acc -> f :: acc) (Callgraph.reachable_from cg root) []
      in
      ( { Disentangle.root; funcs = List.sort String.compare funcs },
        Primitives.channels prims @ Primitives.mutexes prims )
    end
  in
  (* this channel's verdict, with the only channel-dependent fields of
     each bug rewritten to this channel *)
  let replay (e : Solve_cache.entry) =
    stats_restore cst e.Solve_cache.e_stats;
    List.map
      (fun (b : Report.bmoc_bug) ->
        { b with Report.channel = c; chan_loc = Alias.creation_loc alias c })
      e.Solve_cache.e_bugs
  in
  let combos =
    let key =
      Solve_cache.fingerprint
        ( scope.root,
          scope.funcs,
          List.sort_uniq compare pset,
          cfg.path_cfg,
          cfg.max_combos,
          cfg.max_goroutines )
    in
    match
      Goengine.Memo.find_or_compute enum_memo key (fun () ->
          let ctx =
            {
              Pathenum.prog;
              alias;
              cg;
              pset;
              scope_funcs = scope.funcs;
              cfg = cfg.path_cfg;
              touch_memo = Hashtbl.create 16;
            }
          in
          ( Pathenum.combinations ctx ~root:scope.root
              ~max_combos:cfg.max_combos ~max_goroutines:cfg.max_goroutines,
            true ))
    with
    | `Hit cs | `Computed cs -> cs
  in
  (* feasibility filter, then (optionally) canonical projection dedup —
     in that order: dedup may keep an infeasible twin only when the twin
     set contains no feasible member worth solving *)
  let live =
    List.mapi (fun i cb -> (i, cb)) combos
    |> List.filter (fun (_, cb) ->
           (not (Pathenum.has_conflicts cb)) && Pathenum.has_blocking_op cb)
  in
  let live, ndeduped =
    if cfg.path_cfg.Pathenum.dedup_paths then Pathenum.dedup_combinations live
    else (live, 0)
  in
  cst.c_paths_deduped <- ndeduped;
  (* Fingerprint of the canonical per-channel problem: the scope, the
     surviving combinations, the kind/buffer/Pset facts of every
     primitive they mention, and every knob that can change a verdict
     (the path config includes the solver budget and the dedup switch).
     The root channel's *identity* is deliberately absent: the problem
     the solver sees is fully determined by scope + Pset + combinations,
     so two channels with the same disentangled scope — every channel of
     an app under the E5 ablation — share one cache entry.  The only
     channel-dependent parts of a bug report (the [channel]/[chan_loc]
     tags) are rewritten on replay below. *)
  let fp =
    if not cfg.solve_cache then None
    else
      let all_objs =
        let tbl = Hashtbl.create 64 in
        let note o = Hashtbl.replace tbl o () in
        List.iter
          (fun (_, combo) ->
            List.iter
              (fun (gi : Pathenum.goroutine_instance) ->
                List.iter
                  (fun (e : Pathenum.event) ->
                    match e.e_desc with
                    | Sync (Sop (_, objs)) | Sync (Swg_add (objs, _)) ->
                        List.iter note objs
                    | Sync (Sselect { arms; _ }) ->
                        List.iter (fun (_, objs) -> List.iter note objs) arms
                    | Spawn _ | Branch _ -> ())
                  gi.gi_path.p_events)
              combo)
          live;
        List.iter note pset;
        List.sort compare (Hashtbl.fold (fun o () acc -> o :: acc) tbl [])
      in
      let obj_info =
        List.map
          (fun o ->
            ( o,
              Primitives.kind_of prims o,
              Primitives.buffer_size prims o,
              List.mem o pset ))
          all_objs
      in
      Some
        (Solve_cache.fingerprint
           ( "bmoc/1",
             scope.root,
             scope.funcs,
             obj_info,
             live,
             cfg.path_cfg,
             (cfg.max_combos, cfg.max_goroutines, cfg.max_groups,
              cfg.max_group_size) ))
  in
  let run_solve () : Report.bmoc_bug list * bool =
  let session = Constraints.create_session () in
  let bugs = ref [] in
  let seen_groups = Hashtbl.create 16 in
  try
    (* "solver" fault site: a crash raises out to the per-channel
       boundary in [detect_with]; a timeout exercises the existing
       budget path (and hence the degradation ladder) *)
    (match Goobs.Faults.fire ~site:"solver" ~key:(Alias.obj_str c) () with
    | None -> ()
    | Some Goobs.Faults.Stall -> Unix.sleepf Goobs.Faults.stall_s
    | Some Goobs.Faults.Timeout -> raise Gosmt.Solver.Timeout
    | Some _ ->
        raise (Goobs.Faults.Injected ("solver", Alias.obj_str c)));
    List.iter
    (fun (combo_id, combo) ->
      begin
        cst.c_combinations <- cst.c_combinations + 1;
        List.iter
          (fun gi ->
            cst.c_path_events <-
              cst.c_path_events + List.length gi.Pathenum.gi_path.p_events)
          combo;
        let groups = suspicious_groups cfg pset combo in
        List.iter
          (fun group ->
            (* dedupe by the static pps of the group ops *)
            let key =
              List.sort compare
                (List.map
                   (fun (g : Constraints.group_member) ->
                     let gi = List.nth combo g.g_gid in
                     match
                       List.find_opt
                         (fun (e : Pathenum.event) -> e.e_uid = g.g_uid)
                         gi.gi_path.p_events
                     with
                     | Some e -> e.e_pp
                     | None -> -1)
                   group)
            in
            if not (Hashtbl.mem seen_groups key) then begin
              cst.c_groups_checked <- cst.c_groups_checked + 1;
              let problem = { Constraints.combo; group; pset; prims } in
              cst.c_solver_calls <- cst.c_solver_calls + 1;
              match
                Constraints.solve_incr session ?should_stop ~on_stats problem
              with
              | Constraints.Cannot_block -> ()
              | Constraints.Blocks witness ->
                  Hashtbl.add seen_groups key ();
                  let blocked =
                    List.map
                      (fun (g : Constraints.group_member) ->
                        let gi = List.nth combo g.g_gid in
                        let e =
                          List.find
                            (fun (e : Pathenum.event) -> e.e_uid = g.g_uid)
                            gi.gi_path.p_events
                        in
                        let kind =
                          match e.e_desc with
                          | Sync (Sop (k, _)) -> k
                          | Sync (Sselect _) -> Report.Kselect
                          | _ -> Report.Ksend
                        in
                        {
                          Report.bo_func = e.e_func;
                          bo_pp = e.e_pp;
                          bo_loc = e.e_loc;
                          bo_kind = kind;
                        })
                      group
                  in
                  let involves_mutex =
                    List.exists
                      (fun o ->
                        match Primitives.kind_of prims o with
                        | Some Primitives.Pmutex -> true
                        | _ -> false)
                      pset
                    && List.exists
                         (fun (b : Report.blocked_op) ->
                           b.bo_kind = Report.Klock || b.bo_kind = Report.Kunlock)
                         blocked
                  in
                  bugs :=
                    {
                      Report.channel = c;
                      chan_loc = Alias.creation_loc alias c;
                      blocked;
                      kind =
                        (if involves_mutex then Report.Chan_and_mutex
                         else Report.Chan_only);
                      scope_funcs = scope.funcs;
                      witness;
                      combination_id = combo_id;
                    }
                    :: !bugs
            end)
          groups
      end)
    live;
    (List.rev !bugs, false)
  with Gosmt.Solver.Timeout -> ([], true)
  in
  match fp with
  | None -> run_solve ()
  | Some fp ->
      let timed_out = ref false in
      let e =
        Solve_cache.find_or_compute ~mem:verdicts ?dir:cfg.cache_dir fp
          (fun () ->
            let found, timed = run_solve () in
            timed_out := timed;
            (* never cache a budget-truncated channel: its (empty)
               verdict embeds a wall-clock accident, not a property of
               the program *)
            ( { Solve_cache.e_bugs = found; e_stats = stats_snapshot cst },
              not timed ))
      in
      (* On a cache hit [cst] was untouched, so [replay] restores the
         original solve's counters; after a fresh compute it restores
         the snapshot just taken — an identity. *)
      if !timed_out then ([], true) else (replay e, false)

(* ------------------------------------------- degradation ladder ------ *)

(* Rung [i] of the ladder: the paper's own scalability knobs — the
   per-goroutine path bound and the combination bound — reduced by 4x
   per rung (floored so the problem stays non-trivial). *)
let rung_cfg cfg i =
  {
    cfg with
    max_combos = max 4 (cfg.max_combos lsr (2 * i));
    path_cfg =
      {
        cfg.path_cfg with
        Pathenum.max_paths = max 4 (cfg.path_cfg.Pathenum.max_paths lsr (2 * i));
      };
  }

(* [attempt] (a channel's [detect_channel] at a given config) plus the
   degradation ladder: a channel that blows its
   solver budget is retried at progressively reduced bounds before being
   given up on.  Returns the bugs, whether the channel is finally skipped,
   and how many retry rungs were consumed (0 = solved at full bounds; a
   successful retry is a *degraded but present* verdict — fewer paths
   explored — which beats no verdict at all).  Without a budget there is
   nothing to ladder off: the clean path is one plain call. *)
let detect_channel_ladder ~cfg attempt : Report.bmoc_bug list * bool * int =
  (* Rungs are sequential decisions, no speculation: whether rung [i+1]
     runs depends on rung [i]'s verdict, which keeps solver-call counters
     and the consumed rung count schedule-independent. *)
  let found, timed = attempt cfg in
  if
    (not timed)
    || cfg.path_cfg.Pathenum.solver_timeout_ms = None
    || cfg.retry_rungs <= 0
  then (found, timed, 0)
  else
    let rec retry i =
      if i > cfg.retry_rungs then ([], true, cfg.retry_rungs)
      else
        let found, timed = attempt (rung_cfg cfg i) in
        if timed then retry (i + 1) else (found, false, i)
    in
    retry 1

(* A root primitive skipped because its channel blew the per-channel
   solver budget.  Surfaced to callers so they can emit a warning; the
   extra fields feed the skip diagnostic: how long the channel actually
   ran, what the budget was, and how many path events were enumerated
   before it was cut off. *)
type skipped = {
  sk_obj : Alias.obj;
  sk_loc : Minigo.Loc.t option;
  sk_elapsed_ms : float;
  sk_budget_ms : int option;
  sk_ops : int; (* path events enumerated for the channel *)
}

(* Canonical order for the final bug list: creation site of the channel,
   then the (sorted) program points of the blocked ops, then the
   combination id.  Everything in the key is schedule-independent, so the
   report is byte-identical however the per-channel work was scheduled. *)
let bug_order_key (b : Report.bmoc_bug) =
  ( (match b.Report.chan_loc with
    | Some l -> Minigo.Loc.to_string l
    | None -> ""),
    List.sort compare (List.map (fun o -> o.Report.bo_pp) b.Report.blocked),
    b.Report.combination_id )

(* Snapshot the "bmoc.*" counters of a run-local registry into the
   legacy [stats] record shape. *)
let stats_of (reg : M.t) : stats =
  let c name = M.value (M.counter reg ("bmoc." ^ name)) in
  {
    channels_analysed = c "channels_analysed";
    combinations = c "combinations";
    groups_checked = c "groups_checked";
    solver_calls = c "solver_calls";
    total_path_events = c "total_path_events";
    constraints_hint = c "constraints_hint";
    solver_timeouts = c "solver_timeouts";
  }

(* A per-channel supervision note: something other than a plain verdict
   happened at the channel's fault boundary.  Callers (the bmoc pass)
   render these as Warning diagnostics. *)
type chan_note = {
  cn_obj : Alias.obj;
  cn_loc : Minigo.Loc.t option;
  cn_note :
    [ `Faulted of string (* boundary caught an exception; verdict dropped *)
    | `Recovered of int (* ladder rung at which the retry succeeded *)
    | `Pressure of string (* deadline/heap watchdog: not started *) ];
}

type full = {
  f_bugs : Report.bmoc_bug list;
  f_stats : stats;
  f_skipped : skipped list;
  f_notes : chan_note list;
  f_outcomes : outcomes; (* every channel solved cleanly at full bounds *)
  f_enumerated : int; (* channels that ran *)
  f_replayed : int; (* channels taken over without running *)
}

(* What one pool task reports back for its root. *)
type chan_outcome =
  | Odone of Report.bmoc_bug list * bool * int (* bugs, timed_out, rungs *)
  | Ofaulted of string
  | Opressure of string

(* A root's result: taken over from the prior run, or analysed here. *)
type root_result =
  | Carried of outcome
  | Ran of chan_outcome * chan_stats * float (* elapsed ms *)

(* Detect BMOC bugs across the whole program, fanning the per-root
   [detect_channel_ladder] calls out over [pool].  Each worker
   accumulates into a private per-channel record (and, inside
   [Constraints.solve], its own scratch SAT solver); the per-channel
   counts are summed in canonical root order and added to a run-local
   metrics registry once per counter — sums commute, so jobs=1 and
   jobs=N produce identical metrics — and the final bug list is sorted
   by location, so the output is schedule-independent too.  The run
   registry is merged into [metrics] (default: the process-wide
   registry) and snapshotted as the returned [stats].

   Every root runs behind its own fault boundary *inside* the pool task:
   an exception while solving one channel becomes a [`Faulted] note (and
   a health.degraded count) instead of aborting the batch, and a channel
   that would start under watchdog pressure is skipped up front, so a
   tripped deadline flushes everything already gathered.

   [carry] is the outcomes of an earlier run over facts equal to this
   one's — an earlier version of the program whose alias facts, call
   graph, primitive map and disentangling this one took over, or this
   very program analysed before — with the functions whose IR changed
   since ([] for the same program).  A root whose scope holds none of
   them would enumerate the same paths and reach the same verdict, so
   if it has an outcome it takes it over: no task, no solve-cache
   lookup, no span and no profile sample — its counters and bugs enter
   the fold as if it had been solved.  Nothing is carried while the
   watchdogs report pressure, so every root then meets its boundary.

   The alias facts, call graph and primitive map are the caller's: the
   engine pass hands over the ones its artifact record already holds,
   which every other detector pass reads too, and its [verdicts] memo. *)
let detect_with ?(cfg = default_config) ?(pool = Pool.sequential)
    ?(metrics = M.default) ?dis ?carry ~verdicts ~(alias : Alias.t)
    ~(cg : Callgraph.t) ~(prims : Primitives.t) (prog : Ir.program) : full =
  let reg = M.create () in
  let dis =
    match dis with Some d -> d | None -> Disentangle.build prims cg
  in
  (* canonical root order: structural compare is deterministic and
     independent of Hashtbl iteration order; the disentangling's
     primitives are sorted already *)
  let roots =
    let chans =
      List.filter
        (fun o ->
          match o with
          | Alias.Achan _ -> Primitives.kind_of prims o = Some Primitives.Pchan
          | _ -> false)
        dis.Disentangle.all
    in
    (* with the §6 WaitGroup extension on, WaitGroups are analysed as
       root primitives of their own, like channels *)
    if cfg.path_cfg.model_waitgroup then
      List.sort_uniq compare
        (chans
        @ List.filter
            (fun obj -> not (Disentangle.rooted_external obj))
            (Hashtbl.fold
               (fun obj kind acc ->
                 if kind = Primitives.Pwaitgroup then obj :: acc else acc)
               prims.kinds []))
    else chans
  in
  (* each root with the outcome it takes over, if any *)
  let plan =
    match carry with
    | Some (outs, changed) when Goengine.Supervise.pressure () = None ->
        let affected =
          if cfg.disentangle then Disentangle.affected_by dis changed
          else
            (* ablation: every scope is the whole program *)
            fun _ -> changed <> []
        in
        List.map
          (fun c -> (c, if affected c then None else Hashtbl.find_opt outs c))
          roots
    | Some _ | None -> List.map (fun c -> (c, None)) roots
  in
  let to_run = List.filter_map (fun (c, o) -> if o = None then Some c else None) plan in
  (* one enumeration memo per run: channels sharing a (root, scope, Pset)
     — always the case under the ablation scope — walk the CFG once *)
  let enum_memo = Goengine.Memo.create () in
  (* tiny channel batches run inline: forking per channel only pays off
     when there are enough of them to keep several domains busy, and on
     small inputs the fork/await overhead was a measured net slowdown.
     Derived from the batch size alone, never the job count. *)
  let grain = match List.length to_run with n when n <= 4 -> n | _ -> 1 in
  let ran =
    Pool.map ~pool ~grain
      (fun c ->
        Trace.with_span ~name:"bmoc.channel"
          ?args:
            (if Trace.enabled () then Some [ ("channel", Alias.obj_str c) ]
             else None)
          (fun () ->
            let cst = new_chan_stats () in
            let t0 = Clock.now_s () in
            let outcome =
              (* pressure pre-flight, then the per-channel fault
                 boundary; a degraded channel resets its counters so the
                 folded run metrics never embed a half-finished solve *)
              match Goengine.Supervise.pressure () with
              | Some reason -> Opressure reason
              | None -> (
                  match
                    detect_channel_ladder ~cfg (fun cfg ->
                        detect_channel ~cfg ~prims ~dis ~cg ~alias ~prog ~cst
                          ~enum_memo ~verdicts c)
                  with
                  | found, timed_out, rungs -> Odone (found, timed_out, rungs)
                  | exception e ->
                      stats_restore cst [];
                      Ofaulted (Printexc.to_string e))
            in
            let elapsed_ms = 1000.0 *. Clock.elapsed_since t0 in
            if Trace.enabled () then
              Trace.set_args
                [
                  ("solver_calls", string_of_int cst.c_solver_calls);
                  ("sat_conflicts", string_of_int cst.c_sat_conflicts);
                  ("sat_decisions", string_of_int cst.c_sat_decisions);
                  ("path_events", string_of_int cst.c_path_events);
                  ("elapsed_ms", Printf.sprintf "%.1f" elapsed_ms);
                  ( "outcome",
                    match outcome with
                    | Odone (_, true, _) -> "timed_out"
                    | Odone (_, _, r) when r > 0 -> "recovered"
                    | Odone _ -> "ok"
                    | Ofaulted _ -> "faulted"
                    | Opressure _ -> "pressure-skipped" );
                ];
            Ran (outcome, cst, elapsed_ms)))
      to_run
  in
  (* the roots in canonical order, each with its result *)
  let per_root =
    let ran = ref ran in
    List.map
      (fun (c, carried) ->
        match (carried, !ran) with
        | Some o, _ -> (c, Carried o)
        | None, r :: rest ->
            ran := rest;
            (c, r)
        | None, [] -> assert false)
      plan
  in
  let bugs = ref [] in
  let skips = ref [] in
  let notes = ref [] in
  let seen = Hashtbl.create 16 in
  (* the outcomes of this run: the prior run's, with every root that ran
     here replaced or dropped (so a run that carried everything shares
     the prior table, read-only) *)
  let outs =
    match carry with
    | Some (o, _) when to_run = [] -> o
    | Some (o, _) -> Hashtbl.copy o
    | None -> Hashtbl.create 64
  in
  let enumerated = ref 0 and replayed = ref 0 in
  (* per-counter sums, added to the registry once each below *)
  let totals = Array.make (Array.length counter_slots) 0 in
  let analysed = ref 0 and timeouts = ref 0 in
  let attempted = ref 0 and ok = ref 0 and skipped = ref 0 in
  let degraded = ref 0 and retried = ref 0 in
  let chan_ms = M.histogram reg "bmoc.channel_solve_ms" in
  let note c n =
    notes := { cn_obj = c; cn_loc = Alias.creation_loc alias c; cn_note = n } :: !notes
  in
  let verdict stats found =
    incr analysed;
    Array.iteri (fun i v -> totals.(i) <- totals.(i) + v) stats;
    List.iter
      (fun (b : Report.bmoc_bug) ->
        let key =
          List.sort compare (List.map (fun o -> o.Report.bo_pp) b.blocked)
        in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          bugs := b :: !bugs
        end)
      found
  in
  List.iter
    (fun (c, result) ->
      incr attempted;
      match result with
      | Carried o ->
          incr replayed;
          incr ok;
          verdict o.o_stats o.o_bugs
      | Ran (Opressure reason, _, _) ->
          Hashtbl.remove outs c;
          incr skipped;
          note c (`Pressure reason)
      | Ran (Ofaulted detail, _, _) ->
          Hashtbl.remove outs c;
          incr enumerated;
          incr degraded;
          Goobs.Log.warn
            ~kv:[ ("channel", Alias.obj_str c); ("exn", detail) ]
            "channel degraded; analysis continues";
          note c (`Faulted detail)
      | Ran (Odone (found, timed_out, rungs), cst, elapsed_ms) ->
          incr enumerated;
          let stats = stats_array cst in
          if timed_out || rungs > 0 then Hashtbl.remove outs c
          else Hashtbl.replace outs c { o_bugs = found; o_stats = stats };
          if timed_out then incr skipped else incr ok;
          if rungs > 0 then incr retried;
          if rungs > 0 && not timed_out then note c (`Recovered rungs);
          if timed_out then incr timeouts;
          M.observe chan_ms elapsed_ms;
          Goobs.Profile.note_channel
            {
              Goobs.Profile.cs_channel = Alias.obj_str c;
              cs_elapsed_ms = elapsed_ms;
              cs_solver_calls = cst.c_solver_calls;
              cs_sat_conflicts = cst.c_sat_conflicts;
              cs_sat_decisions = cst.c_sat_decisions;
              cs_sat_propagations = cst.c_sat_propagations;
              cs_path_events = cst.c_path_events;
              cs_timed_out = timed_out;
            };
          if timed_out then
            skips :=
              {
                sk_obj = c;
                sk_loc = Alias.creation_loc alias c;
                sk_elapsed_ms = elapsed_ms;
                sk_budget_ms = cfg.path_cfg.Pathenum.solver_timeout_ms;
                sk_ops = cst.c_path_events;
              }
              :: !skips;
          verdict stats found)
    per_root;
  (* a counter whose sum is zero is not created *)
  let add name n = if n <> 0 then M.add (M.counter reg name) n in
  add Goengine.Supervise.h_attempted !attempted;
  add Goengine.Supervise.h_ok !ok;
  add Goengine.Supervise.h_skipped !skipped;
  add Goengine.Supervise.h_degraded !degraded;
  add Goengine.Supervise.h_retried !retried;
  add "bmoc.channels_analysed" !analysed;
  Array.iteri (fun i (_, name) -> add name totals.(i)) counter_slots;
  add "bmoc.solver_timeouts" !timeouts;
  let bugs =
    List.sort
      (fun a b -> compare (bug_order_key a) (bug_order_key b))
      (List.rev !bugs)
  in
  let stats = stats_of reg in
  M.merge_into ~dst:metrics reg;
  {
    f_bugs = bugs;
    f_stats = stats;
    f_skipped = List.rev !skips;
    f_notes = List.rev !notes;
    f_outcomes = outs;
    f_enumerated = !enumerated;
    f_replayed = !replayed;
  }

(* [detect_with] on facts derived here from [prog] alone, for callers
   without an artifact record: GFix re-detecting a patched program. *)
let detect_full ?cfg ?pool ?metrics (prog : Ir.program) : full =
  let alias = Alias.analyse prog in
  let cg = Callgraph.build ~alias prog in
  let prims = Primitives.collect prog alias in
  let verdicts = Atomic.get Solve_cache.standalone in
  detect_with ?cfg ?pool ?metrics ~verdicts ~alias ~cg ~prims prog
