module Ir = Goir.Ir
module Alias = Goanalysis.Alias
module Callgraph = Goanalysis.Callgraph

(* Disentangling (paper §3.2).

   Analysing a whole program with every primitive at once does not scale;
   GCatch instead inspects each channel [c] inside a small [scope] and
   together with only the related primitives [pset]:

   - [scope]: the lowest-common-ancestor function of all of c's
     operations, plus everything it calls (directly or transitively);
   - [pset]: primitives with a scope no larger than c's that are in a
     circular dependence relationship with c, where "a depends on b" when
     an unblocking operation of a is reachable from a blocking operation
     of b, or when a and b appear in the same select. *)

type scope = {
  root : string;           (* the LCA function *)
  funcs : string list;     (* functions in the scope *)
}

type t = {
  prims : Primitives.t;
  cg : Callgraph.t;
  all : Alias.obj list; (* every channel and mutex, sorted *)
  scopes : (Alias.obj, scope) Hashtbl.t;
  in_scope : (string, Alias.obj list) Hashtbl.t;
      (* function -> the objects of [scopes] whose scope holds it *)
  (* dependence edges: a depends on b *)
  deps : (Alias.obj, Alias.obj list) Hashtbl.t;
}

let is_blocking_kind = function
  | Report.Krecv | Report.Ksend | Report.Klock | Report.Kwg_wait -> true
  | Report.Kclose | Report.Kunlock | Report.Kselect | Report.Kwg_add
  | Report.Kwg_done ->
      false

let is_unblocking_kind = function
  | Report.Ksend | Report.Kclose | Report.Kunlock | Report.Kwg_done -> true
  | Report.Krecv | Report.Klock | Report.Kwg_wait | Report.Kselect
  | Report.Kwg_add ->
      false

(* Scope of one object: LCA of every function using it. *)
let compute_scope prims cg obj : scope =
  let users = Primitives.funcs_using prims obj in
  let root =
    match Callgraph.lca cg users with
    | Some f -> f
    | None -> ( match users with f :: _ -> f | [] -> "main")
  in
  let funcs =
    Hashtbl.fold (fun f () acc -> f :: acc) (Callgraph.reachable_from cg root) []
    |> List.sort String.compare
  in
  { root; funcs }

(* "a depends on b" when an operation of [a] with unblocking capability
   is reachable from a blocking operation of [b], approximated at
   function granularity using the call graph: reachable when the
   unblocking op's function is reachable from the blocking op's
   function, or both live in one function.  Computed inverted — one
   memoized reachability walk per distinct blocking-op function, and
   every object with an unblocking op inside that walk depends on [b] —
   rather than testing all object pairs, which is quadratic in the
   primitive count (it dominated whole-app analysis: each of the pairs
   re-walked the call graph). *)
let direct_deps prims cg (all : Alias.obj list) :
    (Alias.obj, Alias.obj list) Hashtbl.t =
  let unblock_objs : (string, Alias.obj list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun a ->
      List.iter
        (fun (o : Primitives.op) ->
          if is_unblocking_kind o.o_kind then
            let cur =
              Option.value (Hashtbl.find_opt unblock_objs o.o_func) ~default:[]
            in
            if not (List.mem a cur) then
              Hashtbl.replace unblock_objs o.o_func (a :: cur))
        (Primitives.ops_of prims a))
    all;
  let reach_memo : (string, (string, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 64
  in
  let reach f =
    match Hashtbl.find_opt reach_memo f with
    | Some r -> r
    | None ->
        let r = Callgraph.reachable_from cg f in
        Hashtbl.replace reach_memo f r;
        r
  in
  let edges : (Alias.obj, Alias.obj list) Hashtbl.t = Hashtbl.create 64 in
  let add_dep a b =
    if a <> b then
      let cur = Option.value (Hashtbl.find_opt edges a) ~default:[] in
      if not (List.mem b cur) then Hashtbl.replace edges a (b :: cur)
  in
  List.iter
    (fun b ->
      List.iter
        (fun (o : Primitives.op) ->
          if is_blocking_kind o.o_kind then
            Hashtbl.iter
              (fun g () ->
                List.iter
                  (fun a -> add_dep a b)
                  (Option.value (Hashtbl.find_opt unblock_objs g) ~default:[]))
              (reach o.o_func))
        (Primitives.ops_of prims b))
    all;
  edges

(* Channels waited on by one select depend on each other (§3.2, rule 2).
   Read off the primitive map: every select arm's ops carry the select's
   program point and the arm index.  The pair order is immaterial, as
   dependences are sets. *)
let select_partners (prims : Primitives.t) : (Alias.obj * Alias.obj) list =
  (* select pp -> (arm, object) *)
  let arms : (Ir.pp, (int * Alias.obj) list) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun obj ops ->
      List.iter
        (fun (o : Primitives.op) ->
          match o.o_select_arm with
          | Some idx ->
              let cur = Option.value (Hashtbl.find_opt arms o.o_pp) ~default:[] in
              Hashtbl.replace arms o.o_pp ((idx, obj) :: cur)
          | None -> ())
        ops)
    prims.ops;
  Hashtbl.fold
    (fun _ members acc ->
      List.fold_left
        (fun acc (i, a) ->
          List.fold_left
            (fun acc (j, b) -> if i < j then (a, b) :: acc else acc)
            acc members)
        acc members)
    arms []

let build (prims : Primitives.t) (cg : Callgraph.t) : t =
  let all =
    Primitives.channels prims @ Primitives.mutexes prims
    |> List.sort_uniq compare
  in
  let scopes = Hashtbl.create 16 in
  List.iter (fun obj -> Hashtbl.replace scopes obj (compute_scope prims cg obj)) all;
  let in_scope = Hashtbl.create 64 in
  List.iter
    (fun obj ->
      List.iter
        (fun f ->
          let cur = Option.value (Hashtbl.find_opt in_scope f) ~default:[] in
          Hashtbl.replace in_scope f (obj :: cur))
        (Hashtbl.find scopes obj).funcs)
    all;
  let direct = direct_deps prims cg all in
  List.iter
    (fun (a, b) ->
      let add_dep a b =
        if a <> b then
          let cur = Option.value (Hashtbl.find_opt direct a) ~default:[] in
          if not (List.mem b cur) then Hashtbl.replace direct a (b :: cur)
      in
      add_dep a b;
      add_dep b a)
    (select_partners prims);
  (* transitive closure: one graph walk per object over the direct
     edges (the old association-list fixpoint re-scanned every list on
     every round) *)
  let deps = Hashtbl.create 64 in
  List.iter
    (fun a ->
      let seen : (Alias.obj, unit) Hashtbl.t = Hashtbl.create 16 in
      let rec go b =
        List.iter
          (fun c ->
            if not (Hashtbl.mem seen c) then begin
              Hashtbl.add seen c ();
              go c
            end)
          (Option.value (Hashtbl.find_opt direct b) ~default:[])
      in
      go a;
      (* the old closure never records an object as depending on itself *)
      Hashtbl.remove seen a;
      let l = Hashtbl.fold (fun c () acc -> c :: acc) seen [] in
      if l <> [] then Hashtbl.replace deps a l)
    all;
  { prims; cg; all; scopes; in_scope; deps }

(* Read-only once built: a [t] may be shared by the records of several
   program versions at once, so an object [build] did not cover (a
   WaitGroup root) has its scope computed afresh on every call. *)
let scope_of t obj =
  match Hashtbl.find_opt t.scopes obj with
  | Some s -> s
  | None -> compute_scope t.prims t.cg obj

(* Which objects a change to [funcs] can affect: those whose scope holds
   one of them, read off the index for the objects [build] covered and
   from the scope for the others (a WaitGroup root). *)
let affected_by t (funcs : string list) : Alias.obj -> bool =
  let hit = Hashtbl.create 8 in
  List.iter
    (fun f ->
      List.iter
        (fun o -> Hashtbl.replace hit o ())
        (Option.value (Hashtbl.find_opt t.in_scope f) ~default:[]))
    funcs;
  fun obj ->
    if Hashtbl.mem t.scopes obj then Hashtbl.mem hit obj
    else List.exists (fun f -> List.mem f funcs) (scope_of t obj).funcs

(* Externally-created primitives (context done channels, channels arriving
   through entry parameters) have creation sites outside the program, so
   their scope extends beyond anything we analyse: treat it as unbounded.
   This is what keeps ctx.Done() out of outDone's Pset in the paper's
   running example. *)
let rec rooted_external = function
  | Alias.Aext _ -> true
  | Alias.Aprim (owner, _) -> rooted_external owner
  | Alias.Achan _ | Alias.Astruct _ | Alias.Afunc _ -> false

let scope_size t obj =
  if rooted_external obj then max_int / 2
  else List.length (scope_of t obj).funcs

let depends t a b =
  match Hashtbl.find_opt t.deps a with Some l -> List.mem b l | None -> false

(* Pset(c): c plus primitives with no-larger scope circularly dependent
   with c (§3.2). *)
let pset t (c : Alias.obj) : Alias.obj list =
  (* only objects c depends on can be mutually dependent with c, so
     filter deps(c) — sorted, to keep the order the old filter over the
     sorted primitive list produced — instead of every primitive *)
  let dc = Option.value (Hashtbl.find_opt t.deps c) ~default:[] in
  let related =
    List.filter
      (fun p ->
        p <> c && depends t p c && scope_size t p <= scope_size t c)
      (List.sort_uniq compare dc)
  in
  c :: related
