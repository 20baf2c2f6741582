module Ir = Goir.Ir
module Alias = Goanalysis.Alias
module Callgraph = Goanalysis.Callgraph
module Pool = Goengine.Pool

(* The five traditional checkers (paper §3.5): ideas that work in classic
   languages, ported to Go IR.

   1. missing unlock   — a path from a Lock to a function exit with no
                         matching Unlock (intra-procedural, path-sensitive);
   2. double lock      — re-acquiring a mutex already held, including via
                         calls (inter-procedural with function summaries);
   3. conflicting lock — a cycle in the program-wide lock-order graph;
   4. struct-field race— lockset: a field protected by a mutex on most
                         accesses but not all, with goroutines involved;
   5. Fatal in child   — testing.T's Fatal family called from a goroutine
                         other than the one running the test function.

   Checkers 1-4 are folds over one shared lockset walk of every function
   ([walk]), derived once per program; 5 scans goroutine bodies. *)

type lockset = Alias.obj list

(* Per-function fault boundary shared by every checker: a function whose
   walk raises — or that would start under watchdog pressure — simply
   contributes no bugs, counted in the health ledger; its siblings are
   unaffected.  [guarded ?metrics ~checker] resolves the health counters
   once per pass; the unit name is built only for a function that
   degrades.  [metrics] counters are atomic, so pool workers account
   directly.  Without a registry the check runs bare. *)
let guarded ?metrics ~checker : Ir.func -> (unit -> 'a list) -> 'a list =
  match metrics with
  | None -> fun _ work -> work ()
  | Some reg -> (
      let b = Goengine.Supervise.boundary reg in
      fun (f : Ir.func) work ->
        match
          Goengine.Supervise.checked_at b
            ~unit_name:(fun () -> checker ^ " func " ^ f.Ir.name)
            work
        with
        | Ok bugs -> bugs
        | Error (`Degraded _ | `Skipped _) -> [])

let place_objs alias fname p =
  Alias.ObjSet.elements (Alias.objects_of_place alias fname p)

let mutex_objs prims alias fname p =
  List.filter
    (fun o ->
      match Primitives.kind_of prims o with
      | Some Primitives.Pmutex -> true
      | _ -> false)
    (place_objs alias fname p)

(* ------------------------------------------- the shared lockset walk --- *)

(* Bounded path walk of one function, threading a lockset: [step] sees
   every instruction with the lockset before it and returns the lockset
   after; [at_exit] sees every function exit with the final lockset.
   Each block is entered at most twice on one path, and paths stop at
   depth 4000. *)
let walk_paths (f : Ir.func) ~(step : Ir.inst -> lockset -> lockset)
    ~(at_exit : lockset -> Ir.terminator -> unit) : unit =
  let visits = Array.make (Array.length f.blocks) 0 in
  let rec go bid (ls : lockset) depth =
    if depth > 4000 then ()
    else
      let count = visits.(bid) in
      if count > 1 then ()
      else begin
        visits.(bid) <- count + 1;
        let b = Ir.block f bid in
        let ls = List.fold_left (fun ls i -> step i ls) ls b.insts in
        (match Ir.successors b with
        | [] -> at_exit ls b.term
        | succs -> List.iter (fun s -> go s ls (depth + 1)) succs);
        visits.(bid) <- count
      end
  in
  go f.entry [] 0

(* release one instance of each unlocked mutex *)
let release objs (ls : lockset) : lockset =
  List.fold_left
    (fun ls o ->
      let rec remove_one = function
        | [] -> []
        | x :: rest -> if x = o then rest else x :: remove_one rest
      in
      remove_one ls)
    ls objs

(* What the walk of one function saw, in walk order.  Each lockset is
   the one held just before the instruction.  An event names its
   instruction by program point and location only, so a walk kept for a
   later program version holds no IR of this one. *)
type site = { s_pp : Ir.pp; s_loc : Minigo.Loc.t }

type event =
  | Lock of site * Alias.obj list * lockset
      (* a lock site, its mutex objects *)
  | Call of site * string * lockset
      (* a direct call made while a lock is held *)
  | Access of site * string * bool * Alias.obj list * lockset
      (* a field load ([false]) or store ([true]): field, base objects *)
  | Return of lockset (* a return that still holds a lock *)

let site (i : Ir.inst) = { s_pp = i.ipp; s_loc = i.iloc }

let walk_func prims alias (f : Ir.func) : event list =
  let events = ref [] in
  let emit e = events := e :: !events in
  let access i b fld is_write ls =
    (* channel bookkeeping fields are not program state *)
    if fld <> "$done" && fld <> "$elem" then
      emit
        (Access (site i, fld, is_write, place_objs alias f.name (Ir.Pvar b), ls))
  in
  walk_paths f
    ~step:(fun i ls ->
      match i.idesc with
      | Ilock p ->
          let objs = mutex_objs prims alias f.name p in
          emit (Lock (site i, objs, ls));
          objs @ ls
      | Iunlock p -> release (mutex_objs prims alias f.name p) ls
      | Icall (_, g, _) when ls <> [] ->
          emit (Call (site i, g, ls));
          ls
      | Ifield_load (_, b, fld) ->
          access i b fld false ls;
          ls
      | Ifield_store (b, fld, _) ->
          access i b fld true ls;
          ls
      | _ -> ls)
    ~at_exit:(fun ls term ->
      (* a panic exit aborts the goroutine anyway; returns should not
         hold locks *)
      match (term, ls) with
      | Ir.Treturn _, _ :: _ -> emit (Return ls)
      | _ -> ());
  List.rev !events

(* A function's walk: its events, the exception the walk raised (which
   every lockset checker replays inside its own fault boundary), or
   [Deferred] when pressure stopped the walk at this function's
   boundary. *)
type outcome = Walked of event list | Raised of exn | Deferred

(* One function's facts: its walk, plus what a scan of all its blocks
   (reachable or not) finds — the mutexes its lock sites name, for the
   double-lock call summary, and its struct allocation sites, for the
   field-race constructor test. *)
type func_facts = {
  f_func : Ir.func;
  f_locks : Alias.obj list; (* sorted, no duplicates *)
  f_structs : Ir.pp list;
  f_walk : outcome;
}

type walk = {
  w_prims : Primitives.t;
  w_alias : Alias.t;
  w_funcs : func_facts list; (* [Ir.funcs_list] order *)
  w_walked : int; (* functions walked here, not taken from [prev] *)
}

let scan prims alias (f : Ir.func) =
  let locks, structs =
    Ir.fold_insts
      (fun ((locks, structs) as acc) (i : Ir.inst) ->
        match i.idesc with
        | Ilock p -> (mutex_objs prims alias f.name p @ locks, structs)
        | Imake_struct _ -> (locks, i.ipp :: structs)
        | _ -> acc)
      ([], []) f
  in
  (List.sort_uniq compare locks, structs)

(* Per-function fan-outs run about 32 chunks of consecutive functions
   (one function per task below 64): the chunk size depends on the
   function count alone, so counters and results are the same for
   jobs=1 and jobs=N. *)
let grain funcs = max 1 (List.length funcs / 32)

(* Scan and walk every function once over [pool]; results come back in
   function order.  Pressure defers the walk, never the scan: the call
   summary needs every function's locks.

   [prev] is the walk of an earlier version of the program whose alias
   facts and primitive map equal this one's, with the functions whose IR
   changed since: every other function's facts are taken over (with this
   program's function), as a walk of an equal function over equal facts
   yields equal events.  A function whose earlier walk raised is walked
   again. *)
let walk ?(pool = Pool.sequential) ?prev prims alias (prog : Ir.program) :
    walk =
  let funcs = Ir.funcs_list prog in
  let kept =
    match prev with
    | None -> fun _ -> None
    | Some (w, changed) ->
        let tbl = Hashtbl.create (List.length w.w_funcs) in
        List.iter
          (fun ff ->
            match ff.f_walk with
            | Walked _ -> Hashtbl.replace tbl ff.f_func.Ir.name ff
            | Raised _ | Deferred -> ())
          w.w_funcs;
        fun (f : Ir.func) ->
          if changed f.name then None else Hashtbl.find_opt tbl f.name
  in
  let walked = Atomic.make 0 in
  let one f =
    match kept f with
    | Some ff -> { ff with f_func = f }
    | None ->
        Atomic.incr walked;
        let f_locks, f_structs = scan prims alias f in
        let f_walk =
          if Goengine.Supervise.pressure () <> None then Deferred
          else
            match walk_func prims alias f with
            | events -> Walked events
            | exception e -> Raised e
        in
        { f_func = f; f_locks; f_structs; f_walk }
  in
  let w_funcs = Pool.map ~pool ~grain:(grain funcs) one funcs in
  { w_prims = prims; w_alias = alias; w_funcs; w_walked = Atomic.get walked }

let walked w = w.w_walked

(* False when pressure deferred some function: such a walk is not kept. *)
let complete w =
  List.for_all
    (fun ff -> match ff.f_walk with Deferred -> false | _ -> true)
    w.w_funcs

(* Run [check] on each function's events inside the checker's own
   per-function boundary, in function order.  A deferred function is
   walked now, unless the boundary finds the pressure still on. *)
let per_func ?metrics ~checker w (check : Ir.func -> event list -> 'a list) :
    'a list list =
  let guarded = guarded ?metrics ~checker in
  List.map
    (fun ff ->
      let f = ff.f_func in
      guarded f (fun () ->
          match ff.f_walk with
          | Walked events -> check f events
          | Raised e -> raise e
          | Deferred -> check f (walk_func w.w_prims w.w_alias f)))
    w.w_funcs

(* ------------------------------------------ 1. missing unlock ------- *)

let missing_unlock ?metrics w : Report.trad_bug list =
  List.concat
  @@ per_func ?metrics ~checker:"trad.missing-unlock" w (fun f events ->
         let bugs = ref [] in
         let reported = ref [] in
         List.iter
           (function
             | Return ls ->
                 List.iter
                   (fun o ->
                     if not (List.mem o !reported) then begin
                       reported := o :: !reported;
                       bugs :=
                         {
                           Report.tkind = Report.Forget_unlock;
                           tfunc = f.name;
                           tloc = f.floc;
                           tdetail =
                             Printf.sprintf "%s still held at return"
                               (Alias.obj_str o);
                         }
                         :: !bugs
                     end)
                   ls
             | Lock _ | Call _ | Access _ -> ())
           events;
         List.rev !bugs)

(* ------------------------------------------ 2. double lock ---------- *)

(* Summary: mutexes a function may lock (itself or transitively) without
   first unlocking them — the least fixpoint of "own locks plus every
   unambiguous direct callee's summary".  A worklist revisits only the
   callers of a function whose summary grew. *)
let locks_summary cg w : (string, Alias.obj list) Hashtbl.t =
  let summary = Hashtbl.create 16 in
  let get name = Option.value (Hashtbl.find_opt summary name) ~default:[] in
  let follows (e : Callgraph.edge) =
    e.kind = Callgraph.Ecall && not e.ambiguous
  in
  let pending = Queue.create () in
  let queued = Hashtbl.create 16 in
  let push_callers name =
    List.iter
      (fun (e : Callgraph.edge) ->
        if follows e && not (Hashtbl.mem queued e.caller) then begin
          Hashtbl.replace queued e.caller ();
          Queue.add e.caller pending
        end)
      (Callgraph.callers cg name)
  in
  (* a function absent from the table has an empty summary *)
  List.iter
    (fun ff ->
      if ff.f_locks <> [] then
        Hashtbl.replace summary ff.f_func.name ff.f_locks)
    w.w_funcs;
  List.iter
    (fun ff -> if ff.f_locks <> [] then push_callers ff.f_func.name)
    w.w_funcs;
  while not (Queue.is_empty pending) do
    let name = Queue.pop pending in
    Hashtbl.remove queued name;
    let cur = get name in
    let next =
      List.sort_uniq compare
        (List.concat_map
           (fun (e : Callgraph.edge) -> if follows e then get e.callee else [])
           (Callgraph.callees cg name)
        @ cur)
    in
    if List.length next <> List.length cur then begin
      Hashtbl.replace summary name next;
      push_callers name
    end
  done;
  summary

let double_lock ?metrics cg w : Report.trad_bug list =
  (* the call summary is a shared fixpoint: computed once, sequentially *)
  let summary = locks_summary cg w in
  List.concat
  @@ per_func ?metrics ~checker:"trad.double-lock" w (fun f events ->
         let bugs = ref [] in
         let reported = ref [] in
         let report (i : site) kind o detail =
           let key = (kind, o, i.s_pp) in
           if not (List.mem key !reported) then begin
             reported := key :: !reported;
             bugs :=
               {
                 Report.tkind = Report.Double_lock;
                 tfunc = f.name;
                 tloc = i.s_loc;
                 tdetail = detail;
               }
               :: !bugs
           end
         in
         List.iter
           (function
             | Lock (i, objs, ls) ->
                 List.iter
                   (fun o ->
                     if List.mem o ls then
                       report i "direct" o
                         (Printf.sprintf "re-acquires %s already held"
                            (Alias.obj_str o)))
                   objs
             | Call (i, g, ls) -> (
                 match Hashtbl.find_opt summary g with
                 | Some glocks ->
                     List.iter
                       (fun o ->
                         if List.mem o ls then
                           report i "call" o
                             (Printf.sprintf
                                "calls %s which locks %s already held" g
                                (Alias.obj_str o)))
                       glocks
                 | None -> ())
             | Access _ | Return _ -> ())
           events;
         List.rev !bugs)

(* --------------------------------- 3. conflicting lock order -------- *)

let lock_order ?metrics w : Report.trad_bug list =
  (* lock-order edges (m1 held while acquiring m2), one list per
     function, in walk order *)
  let found =
    per_func ?metrics ~checker:"trad.lock-order" w (fun f events ->
        List.concat_map
          (function
            | Lock (i, objs, ls) ->
                List.concat_map
                  (fun m2 ->
                    List.filter_map
                      (fun m1 ->
                        if m1 <> m2 then Some ((m1, m2), (f.name, i.s_loc))
                        else None)
                      ls)
                  objs
            | _ -> [])
          events)
  in
  (* merged in function order, so the hash tables see one fixed
     insertion sequence and the report below is deterministic *)
  let edges = Hashtbl.create 16 in
  let edge_loc = Hashtbl.create 16 in
  List.iter
    (List.iter (fun (e, at) ->
         Hashtbl.replace edges e ();
         if not (Hashtbl.mem edge_loc e) then Hashtbl.replace edge_loc e at))
    found;
  (* 2-cycles (the common conflicting-order deadlock) *)
  let bugs = ref [] in
  Hashtbl.iter
    (fun (m1, m2) () ->
      if compare m1 m2 < 0 && Hashtbl.mem edges (m2, m1) then
        let fname, loc =
          match Hashtbl.find_opt edge_loc (m1, m2) with
          | Some fl -> fl
          | None -> ("?", Minigo.Loc.none)
        in
        bugs :=
          {
            Report.tkind = Report.Conflict_lock;
            tfunc = fname;
            tloc = loc;
            tdetail =
              Printf.sprintf "%s -> %s and %s -> %s" (Alias.obj_str m1)
                (Alias.obj_str m2) (Alias.obj_str m2) (Alias.obj_str m1);
          }
          :: !bugs)
    edges;
  List.rev !bugs

(* ------------------------------------ 4. struct-field race ---------- *)

type access = {
  a_func : string;
  a_loc : Minigo.Loc.t;
  a_lockset : lockset;
  a_is_write : bool;
}

let field_race ?metrics w : Report.trad_bug list =
  (* function allocating each struct object: accesses there are treated as
     construction/initialisation, not racy sharing *)
  let alloc_func : (Ir.pp, string) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun ff ->
      List.iter (fun pp -> Hashtbl.replace alloc_func pp ff.f_func.name) ff.f_structs)
    w.w_funcs;
  let is_constructor_access f = function
    | Alias.Astruct pp -> Hashtbl.find_opt alloc_func pp = Some f
    | _ -> false
  in
  (* per-function access lists in walk order, merged below *)
  let found =
    per_func ?metrics ~checker:"trad.field-race" w (fun f events ->
        List.concat_map
          (function
            | Access (i, fld, is_write, base, ls) ->
                List.filter_map
                  (fun obj ->
                    match obj with
                    | Alias.Astruct _ | Alias.Aext _
                      when not (is_constructor_access f.name obj) ->
                        Some
                          ( (obj, fld),
                            {
                              a_func = f.name;
                              a_loc = i.s_loc;
                              a_lockset = ls;
                              a_is_write = is_write;
                            } )
                    | _ -> None)
                  base
            | _ -> [])
          events)
  in
  (* accesses.(struct obj, field) -> access list; merging in function
     order fixes the insertion sequence *)
  let accesses : (Alias.obj * string, access list) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (List.iter (fun (key, a) ->
         let cur = Option.value (Hashtbl.find_opt accesses key) ~default:[] in
         Hashtbl.replace accesses key (a :: cur)))
    found;
  (* a field is suspicious when most accesses hold a common lock but some
     access does not, with at least one write and 2+ functions involved *)
  let bugs = ref [] in
  Hashtbl.iter
    (fun ((obj : Alias.obj), fld) accs ->
      let n = List.length accs in
      if n >= 3 then begin
        let locked = List.filter (fun a -> a.a_lockset <> []) accs in
        let unlocked = List.filter (fun a -> a.a_lockset = []) accs in
        let has_write = List.exists (fun a -> a.a_is_write) accs in
        if
          has_write
          && List.length locked * 2 > n (* majority protected *)
          && unlocked <> []
          && List.length (List.sort_uniq compare (List.map (fun a -> a.a_func) accs)) >= 2
        then
          List.iter
            (fun a ->
              bugs :=
                {
                  Report.tkind = Report.Struct_field_race;
                  tfunc = a.a_func;
                  tloc = a.a_loc;
                  tdetail =
                    Printf.sprintf "field %s of %s accessed without the usual lock" fld
                      (Alias.obj_str obj);
                }
                :: !bugs)
            unlocked
      end)
    accesses;
  List.rev !bugs

(* ------------------------------------ standalone checkers ----------- *)

(* Each derives the walk, then runs the same fold as the engine pass. *)
let check_missing_unlock ?pool ?metrics prims alias prog =
  missing_unlock ?metrics (walk ?pool prims alias prog)

let check_double_lock ?pool ?metrics prims alias cg prog =
  double_lock ?metrics cg (walk ?pool prims alias prog)

let check_conflicting_order ?pool ?metrics prims alias prog =
  lock_order ?metrics (walk ?pool prims alias prog)

let check_field_race ?pool ?metrics prims alias prog =
  field_race ?metrics (walk ?pool prims alias prog)

(* ------------------------------------ 5. Fatal in child ------------- *)

let check_fatal_in_child ?(pool = Pool.sequential) ?metrics (prog : Ir.program)
    : Report.trad_bug list =
  let funcs = Ir.funcs_list prog in
  let guarded = guarded ?metrics ~checker:"trad.fatal-child" in
  List.concat
  @@ Pool.map ~pool ~grain:(grain funcs)
    (fun (f : Ir.func) ->
      guarded f @@ fun () ->
      let bugs = ref [] in
      if f.is_goroutine_body then
        Ir.iter_insts
          (fun i ->
            match i.idesc with
            | Itesting_fatal m ->
                bugs :=
                  {
                    Report.tkind = Report.Fatal_in_child;
                    tfunc = f.name;
                    tloc = i.iloc;
                    tdetail = Printf.sprintf "t.%s called from a child goroutine" m;
                  }
                  :: !bugs
            | _ -> ())
          f;
      List.rev !bugs)
    funcs
