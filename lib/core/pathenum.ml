module Ir = Goir.Ir
module Alias = Goanalysis.Alias
module Callgraph = Goanalysis.Callgraph

(* Path enumeration (paper §3.3).

   For every goroutine in a channel's analysis scope, GCatch enumerates
   its execution paths with an inter-procedural depth-first search:

   - callees that perform no operation on any primitive in Pset are
     skipped entirely;
   - loops whose trip count is not statically known are unrolled at most
     [loop_bound] times (2, like the paper), a documented source of both
     false positives and false negatives;
   - paths whose interpreted branch conditions are statically false are
     filtered, and combinations taking conflicting read-only conditions
     are discarded later by {!conflicts}. *)

type sync_desc =
  | Sop of Report.op_kind * Alias.obj list
  | Swg_add of Alias.obj list * int option
      (* Add with its static delta; None when not a constant, which makes
         the owning WaitGroup unmodelable *)
  | Sselect of {
      arms : (Report.op_kind * Alias.obj list) list;
      chosen : int option; (* None = the default clause was taken *)
      has_default : bool;
    }

type edesc =
  | Sync of sync_desc
  | Spawn of string * Ir.operand list
  | Branch of string * bool (* canonical condition text, polarity taken *)

type event = {
  e_uid : int; (* unique within its path *)
  e_pp : Ir.pp;
  e_loc : Minigo.Loc.t;
  e_func : string;
  e_desc : edesc;
}

type path = { p_func : string; p_events : event list }

type config = {
  loop_bound : int;
  max_paths : int;          (* per goroutine *)
  max_call_depth : int;
  max_events : int;         (* per path *)
  max_walk_steps : int;     (* DFS budget; bounds prefix exploration even
                               when pruning keeps complete paths rare *)
  model_waitgroup : bool;
      (* the §6 extension: generate WaitGroup events so the constraint
         system can reason about Add/Done/Wait.  Off by default, like the
         paper (whose coverage study counts WaitGroup bugs as misses). *)
  solver_timeout_ms : int option;
      (* per-channel wall-clock budget for constraint solving; a channel
         that exhausts it is skipped (with a warning diagnostic) rather
         than stalling the whole run.  [None] = no budget. *)
  dedup_paths : bool;
      (* drop combinations whose sync-relevant projection duplicates an
         earlier (feasible) combination before they reach the encoder;
         see [dedup_combinations] for why this cannot lose a verdict *)
}

let default_config =
  {
    loop_bound = 2;
    max_paths = 48;
    max_call_depth = 5;
    max_events = 400;
    max_walk_steps = 200_000;
    model_waitgroup = false;
    solver_timeout_ms = None;
    dedup_paths = true;
  }

type ctx = {
  prog : Ir.program;
  alias : Alias.t;
  cg : Callgraph.t;
  pset : Alias.obj list;
  scope_funcs : string list;
  cfg : config;
  (* memo: does the call-subtree of f touch pset? *)
  touch_memo : (string, bool) Hashtbl.t;
}

let place_objs ctx fname p =
  Alias.ObjSet.elements (Alias.objects_of_place ctx.alias fname p)

let relevant_objs ctx fname p =
  List.filter (fun o -> List.mem o ctx.pset) (place_objs ctx fname p)

(* Does function [f] (or anything it calls) operate on a Pset primitive? *)
let rec touches_pset ctx f : bool =
  match Hashtbl.find_opt ctx.touch_memo f with
  | Some b -> b
  | None ->
      Hashtbl.replace ctx.touch_memo f false (* cut recursion *)
      ;
      let result =
        match Ir.find_func ctx.prog f with
        | None -> false
        | Some fn ->
            let direct =
              Ir.fold_insts
                (fun acc (i : Ir.inst) ->
                  acc
                  ||
                  match i.idesc with
                  | Isend (p, _) | Irecv (_, p, _) | Iclose p | Ilock p
                  | Iunlock p ->
                      relevant_objs ctx f p <> []
                  | Igo _ -> true (* spawns matter for GOset discovery *)
                  | _ -> false)
                false fn
              || Array.exists
                   (fun (b : Ir.block) ->
                     match b.term with
                     | Tselect (arms, _, _) ->
                         List.exists
                           (fun (a : Ir.select_arm) ->
                             let p =
                               match a.arm_op with
                               | Arm_recv (p, _) | Arm_send (p, _) -> p
                             in
                             relevant_objs ctx f p <> [])
                           arms
                     | _ -> false)
                   fn.blocks
            in
            direct
            || List.exists
                 (fun (e : Callgraph.edge) ->
                   e.kind = Callgraph.Ecall && touches_pset ctx e.callee)
                 (Callgraph.callees ctx.cg f)
      in
      Hashtbl.replace ctx.touch_memo f result;
      result

(* Variables assigned more than once in a function are not read-only;
   conditions over them are opaque to the feasibility filter (§3.3 only
   interprets conditions over read-only variables and constants). *)
let multi_def_vars (f : Ir.func) : (Ir.var, unit) Hashtbl.t =
  let defs = Hashtbl.create 16 in
  let multi = Hashtbl.create 16 in
  let def v =
    if Hashtbl.mem defs v then Hashtbl.replace multi v ()
    else Hashtbl.add defs v ()
  in
  Ir.iter_insts
    (fun i ->
      match i.idesc with
      | Iassign (v, _) | Ibinop (v, _, _, _) | Iunop (v, _, _)
      | Ifield_load (v, _, _) | Imake_chan (v, _, _) | Imake_struct (v, _) ->
          def v
      | Irecv (Some v, _, _) -> def v
      | Icall (rets, _, _) | Icall_indirect (rets, _, _) -> List.iter def rets
      | _ -> ())
    f;
  multi

(* Canonical text for an interpretable condition; None when opaque or when
   it mentions a non-read-only variable. *)
let cond_text (multi : (Ir.var, unit) Hashtbl.t) (c : Ir.cond) : string option =
  let operand_ok = function
    | Ir.Ovar v -> not (Hashtbl.mem multi v)
    | Ir.Oplace _ -> false
    | Ir.Oconst_int _ | Ir.Oconst_bool _ | Ir.Oconst_str _ | Ir.Oconst_func _
    | Ir.Onil ->
        true
  in
  let rec go = function
    | Ir.Ccmp (op, a, b) ->
        if operand_ok a && operand_ok b then
          Some
            (Printf.sprintf "%s %s %s" (Ir.operand_str a)
               (Minigo.Pretty.binop_str op) (Ir.operand_str b))
        else None
    | Ir.Cnot c -> Option.map (fun s -> "!" ^ s) (go c)
    | Ir.Cvar _ | Ir.Copaque _ -> None
  in
  go c

(* Evaluate a condition over constants; None when it involves variables. *)
let cond_const_value (c : Ir.cond) : bool option =
  let module A = Minigo.Ast in
  let rec go = function
    | Ir.Ccmp (op, Ir.Oconst_int x, Ir.Oconst_int y) ->
        Some
          (match op with
          | A.Eq -> x = y
          | A.Neq -> x <> y
          | A.Lt -> x < y
          | A.Le -> x <= y
          | A.Gt -> x > y
          | A.Ge -> x >= y
          | _ -> true)
    | Ir.Ccmp (op, Ir.Oconst_bool x, Ir.Oconst_bool y) ->
        Some (match op with A.Eq -> x = y | A.Neq -> x <> y | _ -> true)
    | Ir.Cnot c -> Option.map not (go c)
    | _ -> None
  in
  go c

exception Too_many_paths

(* Enumerate execution paths of function [f].  Each path is a list of
   events.  Inlined callees contribute their events in place. *)
let enumerate ctx (fname : string) : path list =
  let paths = ref [] in
  let npaths = ref 0 in
  let uid = ref 0 in
  let multi_memo : (string, (Ir.var, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let multi_of (fn : Ir.func) =
    match Hashtbl.find_opt multi_memo fn.name with
    | Some m -> m
    | None ->
        let m = multi_def_vars fn in
        Hashtbl.replace multi_memo fn.name m;
        m
  in
  let fresh_uid () =
    incr uid;
    !uid
  in
  (* the path count and the per-path event count are threaded through the
     walk incrementally — recomputing [List.length] at every emit/step
     made deep enumerations quadratic *)
  let emit_path evs _nevs =
    paths := { p_func = fname; p_events = List.rev evs } :: !paths;
    incr npaths;
    if !npaths > ctx.cfg.max_paths then raise Too_many_paths
  in
  let walk_steps = ref 0 in
  let tick () =
    incr walk_steps;
    if !walk_steps > ctx.cfg.max_walk_steps then raise Too_many_paths
  in
  (* walk blocks of [f]; [visits] caps loop iterations; [nacc] is the
     incrementally-maintained length of [acc] *)
  let rec walk_func f depth (acc : event list) (nacc : int)
      (k : event list -> int -> unit) : unit =
    match Ir.find_func ctx.prog f with
    | None -> k acc nacc
    | Some fn ->
        let visits = Hashtbl.create 8 in
        walk_block fn f depth fn.entry visits acc nacc k
  and walk_block fn f depth bid visits acc nacc k =
    let count = Option.value (Hashtbl.find_opt visits bid) ~default:0 in
    if count >= ctx.cfg.loop_bound + 1 then () (* prune over-unrolled path *)
    else begin
      Hashtbl.replace visits bid (count + 1);
      let b = Ir.block fn bid in
      walk_insts fn f depth b.insts visits acc nacc (fun acc nacc ->
          walk_term fn f depth b visits acc nacc k);
      Hashtbl.replace visits bid count
    end
  and walk_insts fn f depth insts visits acc nacc k =
    tick ();
    match insts with
    | [] -> k acc nacc
    | i :: rest ->
        let continue_with acc nacc = walk_insts fn f depth rest visits acc nacc k in
        let ev desc =
          {
            e_uid = fresh_uid ();
            e_pp = i.Ir.ipp;
            e_loc = i.Ir.iloc;
            e_func = f;
            e_desc = desc;
          }
        in
        if nacc > ctx.cfg.max_events then () (* prune *)
        else begin
          match i.Ir.idesc with
          | Isend (p, _) -> (
              match relevant_objs ctx f p with
              | [] -> continue_with acc nacc
              | objs ->
                  continue_with
                    (ev (Sync (Sop (Report.Ksend, objs))) :: acc)
                    (nacc + 1))
          | Irecv (_, p, _) -> (
              match relevant_objs ctx f p with
              | [] -> continue_with acc nacc
              | objs ->
                  continue_with
                    (ev (Sync (Sop (Report.Krecv, objs))) :: acc)
                    (nacc + 1))
          | Iclose p -> (
              match relevant_objs ctx f p with
              | [] -> continue_with acc nacc
              | objs ->
                  continue_with
                    (ev (Sync (Sop (Report.Kclose, objs))) :: acc)
                    (nacc + 1))
          | Ilock p -> (
              match relevant_objs ctx f p with
              | [] -> continue_with acc nacc
              | objs ->
                  continue_with
                    (ev (Sync (Sop (Report.Klock, objs))) :: acc)
                    (nacc + 1))
          | Iunlock p -> (
              match relevant_objs ctx f p with
              | [] -> continue_with acc nacc
              | objs ->
                  continue_with
                    (ev (Sync (Sop (Report.Kunlock, objs))) :: acc)
                    (nacc + 1))
          | Iwg_add (p, delta) when ctx.cfg.model_waitgroup -> (
              match relevant_objs ctx f p with
              | [] -> continue_with acc nacc
              | objs ->
                  let w =
                    match delta with Ir.Oconst_int n -> Some n | _ -> None
                  in
                  continue_with
                    (ev (Sync (Swg_add (objs, w))) :: acc)
                    (nacc + 1))
          | Iwg_done p when ctx.cfg.model_waitgroup -> (
              match relevant_objs ctx f p with
              | [] -> continue_with acc nacc
              | objs ->
                  continue_with
                    (ev (Sync (Sop (Report.Kwg_done, objs))) :: acc)
                    (nacc + 1))
          | Iwg_wait p when ctx.cfg.model_waitgroup -> (
              match relevant_objs ctx f p with
              | [] -> continue_with acc nacc
              | objs ->
                  continue_with
                    (ev (Sync (Sop (Report.Kwg_wait, objs))) :: acc)
                    (nacc + 1))
          | Igo (g, args) ->
              continue_with (ev (Spawn (g, args)) :: acc) (nacc + 1)
          | Icall (_, g, _) ->
              if
                depth < ctx.cfg.max_call_depth
                && List.mem g ctx.scope_funcs
                && touches_pset ctx g
              then
                (* inline the callee's paths *)
                walk_func g (depth + 1) acc nacc continue_with
              else continue_with acc nacc
          | Icall_indirect _ -> continue_with acc nacc
          | _ -> continue_with acc nacc
        end
  and walk_term fn f depth (b : Ir.block) visits acc nacc k =
    let ev ~pp ~loc desc =
      { e_uid = fresh_uid (); e_pp = pp; e_loc = loc; e_func = f; e_desc = desc }
    in
    match b.term with
    | Tjump t -> walk_block fn f depth t visits acc nacc k
    | Tbranch (c, bt, bf) -> (
        match cond_const_value c with
        | Some true -> walk_block fn f depth bt visits acc nacc k
        | Some false -> walk_block fn f depth bf visits acc nacc k
        | None ->
            let txt = cond_text (multi_of fn) c in
            let goto polarity target =
              let acc, nacc =
                match txt with
                | Some t ->
                    (ev ~pp:0 ~loc:b.term_loc (Branch (t, polarity)) :: acc,
                     nacc + 1)
                | None -> (acc, nacc)
              in
              walk_block fn f depth target visits acc nacc k
            in
            goto true bt;
            goto false bf)
    | Tselect (arms, dflt, sel_pp) ->
        let arm_infos =
          List.map
            (fun (a : Ir.select_arm) ->
              let kind, p =
                match a.arm_op with
                | Arm_recv (p, _) -> (Report.Krecv, p)
                | Arm_send (p, _) -> (Report.Ksend, p)
              in
              (kind, place_objs ctx f p))
            arms
        in
        List.iteri
          (fun idx (a : Ir.select_arm) ->
            let acc' =
              ev ~pp:sel_pp ~loc:b.term_loc
                (Sync
                   (Sselect
                      { arms = arm_infos; chosen = Some idx; has_default = dflt <> None }))
              :: acc
            in
            walk_block fn f depth a.arm_target visits acc' (nacc + 1) k)
          arms;
        (match dflt with
        | Some d ->
            let acc' =
              ev ~pp:sel_pp ~loc:b.term_loc
                (Sync (Sselect { arms = arm_infos; chosen = None; has_default = true }))
              :: acc
            in
            walk_block fn f depth d visits acc' (nacc + 1) k
        | None -> ())
    | Treturn _ | Tpanic | Texit | Tunreachable -> k acc nacc
  in
  (try walk_func fname 0 [] 0 emit_path with Too_many_paths -> ());
  (* renumber uids per path so they are dense and deterministic *)
  List.rev_map
    (fun p ->
      let evs = List.mapi (fun i e -> { e with e_uid = i }) p.p_events in
      { p with p_events = evs })
    !paths

(* ------------------------------------------------------ combinations *)

type goroutine_instance = {
  gi_id : int;
  gi_func : string;
  gi_parent : int option;       (* index of the spawning goroutine *)
  gi_spawn_uid : int option;    (* uid of the Spawn event in the parent *)
  gi_path : path;
}

type combination = goroutine_instance list

(* Build all combinations rooted at [root]: choose a path for the root,
   then recursively choose paths for every goroutine it spawns. *)
let combinations ctx ~(root : string) ~(max_combos : int) ~(max_goroutines : int) :
    combination list =
  Goobs.Trace.with_span ~name:"pathenum.combinations"
    ~args:[ ("root", root) ]
  @@ fun () ->
  let m = Goobs.Metrics.default in
  Goobs.Metrics.incr (Goobs.Metrics.counter m "pathenum.runs");
  let path_memo : (string, path list) Hashtbl.t = Hashtbl.create 8 in
  let paths_of f =
    match Hashtbl.find_opt path_memo f with
    | Some ps -> ps
    | None ->
        let ps = enumerate ctx f in
        Goobs.Metrics.add
          (Goobs.Metrics.counter m "pathenum.paths")
          (List.length ps);
        Hashtbl.replace path_memo f ps;
        ps
  in
  let results = ref [] in
  let count = ref 0 in
  let exception Done in
  let rec expand (pending : (int option * int option * string) list)
      (built : goroutine_instance list) (next_id : int) : unit =
    if !count >= max_combos then raise Done;
    match pending with
    | [] ->
        incr count;
        results := List.rev built :: !results
    | (parent, spawn_uid, f) :: rest ->
        if next_id >= max_goroutines then begin
          (* too many goroutines: drop the extra spawn rather than the
             whole combination *)
          expand rest built next_id
        end
        else
          let ps = paths_of f in
          let ps = if ps = [] then [ { p_func = f; p_events = [] } ] else ps in
          List.iter
            (fun path ->
              let gi =
                {
                  gi_id = next_id;
                  gi_func = f;
                  gi_parent = parent;
                  gi_spawn_uid = spawn_uid;
                  gi_path = path;
                }
              in
              let spawned =
                List.filter_map
                  (fun e ->
                    match e.e_desc with
                    | Spawn (g, _) when Ir.find_func ctx.prog g <> None ->
                        Some (Some next_id, Some e.e_uid, g)
                    | _ -> None)
                  path.p_events
              in
              expand (rest @ spawned) (gi :: built) (next_id + 1))
            ps
  in
  (try expand [ (None, None, root) ] [] 0 with Done -> ());
  Goobs.Metrics.add
    (Goobs.Metrics.counter m "pathenum.combinations")
    (List.length !results);
  List.rev !results

(* Does a combination contain conflicting interpreted branch conditions?
   (same condition text taken with both polarities anywhere in the
   combination, per function) *)
let has_conflicts (combo : combination) : bool =
  let seen = Hashtbl.create 16 in
  List.exists
    (fun gi ->
      List.exists
        (fun e ->
          match e.e_desc with
          | Branch (txt, pol) -> (
              let key = (e.e_func, txt) in
              match Hashtbl.find_opt seen key with
              | Some p when p <> pol -> true
              | Some _ -> false
              | None ->
                  Hashtbl.add seen key pol;
                  false)
          | _ -> false)
        gi.gi_path.p_events)
    combo

(* Does the combination contain any blocking-capable operation on Pset? *)
let has_blocking_op (combo : combination) : bool =
  List.exists
    (fun gi ->
      List.exists
        (fun e ->
          match e.e_desc with
          | Sync
              (Sop
                 ( (Report.Ksend | Report.Krecv | Report.Klock | Report.Kwg_wait),
                   _ )) ->
              true
          | Sync (Sselect { has_default = false; _ }) -> true
          | _ -> false)
        gi.gi_path.p_events)
    combo

(* ------------------------------------------------------------ dedup --- *)

(* Drop combinations whose *sync-relevant projection* duplicates an
   earlier combination in the list.

   The projection keeps every event except [Branch]: sends/recvs/closes,
   locks, WaitGroup ops, selects and spawns, keyed by (program point,
   descriptor), plus the spawn structure (which parent, which projected
   spawn event each goroutine hangs off).  Branch events exist only to
   let [has_conflicts] reject infeasible combinations — the constraint
   system never looks at them, and a branch event contributes nothing
   but an interpolatable link in its goroutine's program-order chain.
   Two combinations with equal projections therefore yield the same set
   of suspicious groups and the same verdict for each, so — provided the
   caller has ALREADY filtered with [has_conflicts] (dropping a feasible
   combination because an infeasible twin came first would lose bugs) —
   keeping the first of each equivalence class preserves every verdict.

   Events are hash-consed into small integer ids so comparing two
   combinations costs an int-list compare, not a deep structural walk.
   Returns the survivors (original order, original indices) and the
   number of combinations dropped.  Both tables are sized by the number
   of combinations: most channels have only a handful, and a lone one
   has nothing to be a duplicate of. *)
let dedup_combinations (combos : (int * combination) list) :
    (int * combination) list * int =
  let n = List.length combos in
  if n <= 1 then (combos, 0)
  else begin
    let intern : (Ir.pp * edesc, int) Hashtbl.t =
      Hashtbl.create (min 256 (8 * n))
    in
    let next = ref 0 in
    let id_of pp desc =
      let k = (pp, desc) in
      match Hashtbl.find_opt intern k with
      | Some i -> i
      | None ->
          let i = !next in
          incr next;
          Hashtbl.add intern k i;
          i
    in
    let key_of (combo : combination) =
      (* per goroutine: projected event ids, plus where its spawn event
         sits in the parent's projected sequence *)
      let projected =
        List.map
          (fun gi ->
            List.filter
              (fun e -> match e.e_desc with Branch _ -> false | _ -> true)
              gi.gi_path.p_events)
          combo
      in
      let proj_arr = Array.of_list projected in
      List.map2
        (fun gi evs ->
          let spawn_idx =
            match (gi.gi_parent, gi.gi_spawn_uid) with
            | Some p, Some u when p < Array.length proj_arr ->
                let rec find i = function
                  | [] -> -1
                  | e :: _ when e.e_uid = u -> i
                  | _ :: rest -> find (i + 1) rest
                in
                Some (find 0 proj_arr.(p))
            | _ -> None
          in
          ( gi.gi_func,
            gi.gi_parent,
            spawn_idx,
            List.map (fun e -> id_of e.e_pp e.e_desc) evs ))
        combo projected
    in
    let seen = Hashtbl.create (min 64 n) in
    let dropped = ref 0 in
    let kept =
      List.filter
        (fun (_, combo) ->
          let k = key_of combo in
          if Hashtbl.mem seen k then begin
            incr dropped;
            false
          end
          else begin
            Hashtbl.add seen k ();
            true
          end)
        combos
    in
    (kept, !dropped)
  end
