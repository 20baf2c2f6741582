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

   All five are folds over one shared walk of every function ([walk]),
   derived once per program: 1-4 read its lockset events, 5 the
   t.Fatal calls its scan found in goroutine bodies.  A fold keeps its
   per-function results, so a later version of the program re-checks
   only the functions whose facts changed. *)

type lockset = Alias.obj list

(* Per-function fault boundary shared by every checker: a function whose
   walk raises — or that would start under watchdog pressure — simply
   contributes no results, counted in the health ledger; its siblings
   are unaffected.  [b] is the boundary made once per pass; the unit name
   is built only for a function that degrades.  [None] when the function
   was not checked cleanly.  Without a boundary the check runs bare. *)
let guarded b ~checker (f : Ir.func) (work : unit -> 'a list) : 'a list option =
  match b with
  | None -> Some (work ())
  | Some b -> (
      match
        Goengine.Supervise.checked_at b
          ~unit_name:(fun () -> checker ^ " func " ^ f.Ir.name)
          work
      with
      | Ok found -> Some found
      | Error (`Degraded _ | `Skipped _) -> None)

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

(* A t.Fatal-family call in a goroutine body: the child goroutine
   cannot stop the test (checker 5). *)
let fatal_site (f : Ir.func) (i : Ir.inst) : Report.trad_bug option =
  match i.idesc with
  | Itesting_fatal m when f.is_goroutine_body ->
      Some
        {
          Report.tkind = Report.Fatal_in_child;
          tfunc = f.name;
          tloc = i.iloc;
          tdetail = Printf.sprintf "t.%s called from a child goroutine" m;
        }
  | _ -> None

(* One function's facts: its walk, plus what a scan of all its blocks
   (reachable or not) finds — the mutexes its lock sites name, for the
   double-lock call summary, its struct allocation sites, for the
   field-race constructor test, and its t.Fatal sites. *)
type func_facts = {
  f_func : Ir.func;
  f_locks : Alias.obj list; (* sorted, no duplicates *)
  f_structs : Ir.pp list;
  f_fatal : Report.trad_bug list; (* in instruction order *)
  f_walk : outcome;
}

(* What a walk holds that an earlier one over equal facts did not: the
   functions walked again (indices, ascending) and whether each of their
   scans equals the earlier one's — then every whole-program table built
   from the scans is equal too. *)
type delta = { d_funcs : int list; d_scan_same : bool }

type walk = {
  w_prims : Primitives.t;
  w_alias : Alias.t;
  w_funcs : func_facts array; (* [Ir.funcs_list] order *)
  w_delta : delta option; (* against the earlier walk taken over *)
}

let scan prims alias (f : Ir.func) =
  let locks, structs, fatal =
    Ir.fold_insts
      (fun ((locks, structs, fatal) as acc) (i : Ir.inst) ->
        match i.idesc with
        | Ilock p -> (mutex_objs prims alias f.name p @ locks, structs, fatal)
        | Imake_struct _ -> (locks, i.ipp :: structs, fatal)
        | Itesting_fatal _ -> (
            match fatal_site f i with
            | Some b -> (locks, structs, b :: fatal)
            | None -> acc)
        | _ -> acc)
      ([], [], []) f
  in
  (List.sort_uniq compare locks, structs, List.rev fatal)

(* Per-function fan-outs run about 32 chunks of consecutive functions
   (one function per task below 64): the chunk size depends on the
   function count alone, so counters and results are the same for
   jobs=1 and jobs=N. *)
let grain funcs = max 1 (List.length funcs / 32)

(* Scan and walk one function.  Pressure defers the walk, never the
   scan: the call summary needs every function's locks. *)
let walk_one prims alias (f : Ir.func) : func_facts =
  let f_locks, f_structs, f_fatal = scan prims alias f in
  let f_walk =
    if Goengine.Supervise.pressure () <> None then Deferred
    else
      match walk_func prims alias f with
      | events -> Walked events
      | exception e -> Raised e
  in
  { f_func = f; f_locks; f_structs; f_fatal; f_walk }

(* Scan and walk every function once over [pool]; results come back in
   function order.

   [prev] is the walk of an earlier version of the program whose alias
   facts and primitive map equal this one's, with the test for "this
   function's IR changed since".  Such a program has the same functions
   in the same order, so the earlier walk is taken over index by index:
   a function that is the earlier one, or whose IR did not change, keeps
   its facts (with this program's function), as a walk of an equal
   function over equal facts yields equal events; the others, and any
   whose earlier walk raised or was deferred, are walked again. *)
let walk ?(pool = Pool.sequential) ?prev prims alias (prog : Ir.program) :
    walk =
  let funcs = Ir.funcs_list prog in
  match prev with
  | None ->
      let w_funcs = Pool.map ~pool ~grain:(grain funcs) (walk_one prims alias) funcs in
      { w_prims = prims; w_alias = alias; w_funcs = Array.of_list w_funcs; w_delta = None }
  | Some (pw, changed) ->
      let funcs = Array.of_list funcs in
      assert (Array.length funcs = Array.length pw.w_funcs);
      let redo = ref [] in
      let w_funcs =
        Array.mapi
          (fun i (f : Ir.func) ->
            let ff = pw.w_funcs.(i) in
            let same = f == ff.f_func in
            assert (same || f.name = ff.f_func.name);
            (match ff.f_walk with
            | Walked _ when same || not (changed f.name) -> ()
            | Walked _ | Raised _ | Deferred -> redo := i :: !redo);
            if same then ff else { ff with f_func = f })
          funcs
      in
      let redo = List.rev !redo in
      let fresh =
        Pool.map ~pool ~grain:(grain redo)
          (fun i -> walk_one prims alias funcs.(i))
          redo
      in
      let scan_same =
        List.for_all2
          (fun i ff ->
            let old = pw.w_funcs.(i) in
            ff.f_locks = old.f_locks && ff.f_structs = old.f_structs)
          redo fresh
      in
      List.iter2 (fun i ff -> w_funcs.(i) <- ff) redo fresh;
      {
        w_prims = prims;
        w_alias = alias;
        w_funcs;
        w_delta = Some { d_funcs = redo; d_scan_same = scan_same };
      }

(* Functions walked here, not taken from [prev]. *)
let walked w =
  match w.w_delta with
  | Some d -> List.length d.d_funcs
  | None -> Array.length w.w_funcs

let delta w = w.w_delta

(* The delta of a walk against itself. *)
let unchanged = { d_funcs = []; d_scan_same = true }

(* False when pressure deferred some function: such a walk is not kept. *)
let complete w =
  Array.for_all
    (fun ff -> match ff.f_walk with Deferred -> false | _ -> true)
    w.w_funcs

(* A function's events: a deferred function is walked now. *)
let events w ff () =
  match ff.f_walk with
  | Walked events -> events
  | Raised e -> raise e
  | Deferred -> walk_func w.w_prims w.w_alias ff.f_func

(* ------------------------------------------------- the checker folds --- *)

module IntMap = Map.Make (Int)
module IntSet = Set.Make (Int)

(* One checker: the whole-program table its checks read beside the walk
   (built from the scans), the per-function check (handed the function's
   facts and its events on demand), and the report built from the
   results of every function that has any, in function order. *)
type ('a, 'g) checker = {
  c_name : string;
  c_input : walk -> 'g;
  c_check : 'g -> func_facts -> (unit -> event list) -> 'a list;
  c_report : 'a list list -> Report.trad_bug list;
}

(* A checker's results over a walk, kept so a later run can take over
   every function whose facts it shares: the results of each function
   that has any, by index; the functions not checked cleanly (degraded
   or skipped), which are never taken over; and the table the checks
   read. *)
type ('a, 'g) kept = {
  k_found : 'a list IntMap.t;
  k_redo : IntSet.t;
  k_input : 'g;
}

(* Run [ck] over the walk, each function inside the checker's own
   boundary, in function order.  Returns the report, what to keep, and
   how many functions were checked.

   [prior] is what the checker kept over an earlier walk, with this
   walk's delta against it.  When the scans are the same (so the table
   is) and no watchdog reports pressure, only the functions walked again
   and those not checked cleanly before are checked; every other
   function's results are taken over and credited to the boundary in
   bulk, so the health ledger reads as if each had been checked. *)
let run ?metrics ?prior (ck : ('a, 'g) checker) (w : walk) =
  let n = Array.length w.w_funcs in
  let prior =
    match prior with
    | Some (k, d) when d.d_scan_same && Goengine.Supervise.pressure () = None
      ->
        Some (k, d.d_funcs)
    | Some _ | None -> None
  in
  let input, todo, found, redo =
    match prior with
    | Some (k, funcs) ->
        ( k.k_input,
          IntSet.elements (IntSet.union k.k_redo (IntSet.of_list funcs)),
          k.k_found,
          k.k_redo )
    | None -> (ck.c_input w, List.init n Fun.id, IntMap.empty, IntSet.empty)
  in
  let b = Option.map Goengine.Supervise.boundary metrics in
  let found, redo =
    List.fold_left
      (fun (found, redo) i ->
        let ff = w.w_funcs.(i) in
        match
          guarded b ~checker:ck.c_name ff.f_func (fun () ->
              ck.c_check input ff (events w ff))
        with
        | Some [] -> (IntMap.remove i found, IntSet.remove i redo)
        | Some l -> (IntMap.add i l found, IntSet.remove i redo)
        | None -> (IntMap.remove i found, IntSet.add i redo))
      (found, redo) todo
  in
  let checked = List.length todo in
  Option.iter (fun b -> Goengine.Supervise.credit b (n - checked)) b;
  ( ck.c_report (IntMap.fold (fun _ l acc -> l :: acc) found [] |> List.rev),
    { k_found = found; k_redo = redo; k_input = input },
    checked )

let name ck = ck.c_name

(* The report of a run with nothing to take over. *)
let bugs ?metrics ck w =
  let bugs, _, _ = run ?metrics ck w in
  bugs

let no_input _ = ()

(* ------------------------------------------ 1. missing unlock ------- *)

let missing_unlock : (Report.trad_bug, unit) checker =
  {
    c_name = "trad.missing-unlock";
    c_input = no_input;
    c_report = List.concat;
    c_check =
      (fun () ff events ->
        let f = ff.f_func in
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
          (events ());
        List.rev !bugs);
  }

(* ------------------------------------------ 2. double lock ---------- *)

type summary = (string, Alias.obj list) Hashtbl.t

(* Summary: mutexes a function may lock (itself or transitively) without
   first unlocking them — the least fixpoint of "own locks plus every
   unambiguous direct callee's summary".  A worklist revisits only the
   callers of a function whose summary grew.  Read-only once built. *)
let locks_summary cg w : summary =
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
  Array.iter
    (fun ff ->
      if ff.f_locks <> [] then
        Hashtbl.replace summary ff.f_func.name ff.f_locks)
    w.w_funcs;
  Array.iter
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

let double_lock cg : (Report.trad_bug, summary) checker =
  {
    c_name = "trad.double-lock";
    (* the call summary is a shared fixpoint: computed once, sequentially *)
    c_input = locks_summary cg;
    c_report = List.concat;
    c_check =
      (fun summary ff events ->
        let f = ff.f_func in
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
          (events ());
        List.rev !bugs);
  }

(* --------------------------------- 3. conflicting lock order -------- *)

(* A lock-order edge (m1 held while acquiring m2) and where it was seen. *)
type order_edge = (Alias.obj * Alias.obj) * (string * Minigo.Loc.t)

let lock_order : (order_edge, unit) checker =
  {
    c_name = "trad.lock-order";
    c_input = no_input;
    (* edges in walk order, one list per function *)
    c_check =
      (fun () ff events ->
        let f = ff.f_func in
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
          (events ()));
    c_report =
      (fun found ->
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
        List.rev !bugs);
  }

(* ------------------------------------ 4. struct-field race ---------- *)

type access = {
  a_func : string;
  a_loc : Minigo.Loc.t;
  a_lockset : lockset;
  a_is_write : bool;
}

(* One access to a (struct object, field). *)
type race_access = (Alias.obj * string) * access

(* The function allocating each struct object: accesses there are
   treated as construction/initialisation, not racy sharing.
   Read-only once built. *)
type ctors = (Ir.pp, string) Hashtbl.t

let field_race : (race_access, ctors) checker =
  {
    c_name = "trad.field-race";
    c_input =
      (fun w ->
        let alloc_func : ctors = Hashtbl.create 16 in
        Array.iter
          (fun ff ->
            List.iter
              (fun pp -> Hashtbl.replace alloc_func pp ff.f_func.name)
              ff.f_structs)
          w.w_funcs;
        alloc_func);
    (* accesses in walk order, one list per function *)
    c_check =
      (fun alloc_func ff events ->
        let f = ff.f_func in
        let is_constructor_access = function
          | Alias.Astruct pp -> Hashtbl.find_opt alloc_func pp = Some f.name
          | _ -> false
        in
        List.concat_map
          (function
            | Access (i, fld, is_write, base, ls) ->
                List.filter_map
                  (fun obj ->
                    match obj with
                    | (Alias.Astruct _ | Alias.Aext _)
                      when not (is_constructor_access obj) ->
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
          (events ()));
    c_report =
      (fun found ->
        (* accesses.(struct obj, field) -> access list; merging in
           function order fixes the insertion sequence *)
        let accesses : (Alias.obj * string, access list) Hashtbl.t =
          Hashtbl.create 32
        in
        List.iter
          (List.iter (fun (key, a) ->
               let cur = Option.value (Hashtbl.find_opt accesses key) ~default:[] in
               Hashtbl.replace accesses key (a :: cur)))
          found;
        (* a field is suspicious when most accesses hold a common lock but
           some access does not, with at least one write and 2+ functions
           involved *)
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
                && List.length
                     (List.sort_uniq compare (List.map (fun a -> a.a_func) accs))
                   >= 2
              then
                List.iter
                  (fun a ->
                    bugs :=
                      {
                        Report.tkind = Report.Struct_field_race;
                        tfunc = a.a_func;
                        tloc = a.a_loc;
                        tdetail =
                          Printf.sprintf
                            "field %s of %s accessed without the usual lock" fld
                            (Alias.obj_str obj);
                      }
                      :: !bugs)
                  unlocked
            end)
          accesses;
        List.rev !bugs);
  }

(* ------------------------------------ 5. Fatal in child ------------- *)

(* Reads the scan alone: a function whose walk raised still reports. *)
let fatal_child : (Report.trad_bug, unit) checker =
  {
    c_name = "trad.fatal-child";
    c_input = no_input;
    c_check = (fun () ff _ -> ff.f_fatal);
    c_report = List.concat;
  }

(* ------------------------------------ standalone checkers ----------- *)

(* Each derives the walk, then runs the same fold as the engine pass. *)
let check_missing_unlock ?pool ?metrics prims alias prog =
  bugs ?metrics missing_unlock (walk ?pool prims alias prog)

let check_double_lock ?pool ?metrics prims alias cg prog =
  bugs ?metrics (double_lock cg) (walk ?pool prims alias prog)

let check_conflicting_order ?pool ?metrics prims alias prog =
  bugs ?metrics lock_order (walk ?pool prims alias prog)

let check_field_race ?pool ?metrics prims alias prog =
  bugs ?metrics field_race (walk ?pool prims alias prog)

let check_fatal_in_child ?(pool = Pool.sequential) ?metrics (prog : Ir.program)
    : Report.trad_bug list =
  let funcs = Ir.funcs_list prog in
  let b = Option.map Goengine.Supervise.boundary metrics in
  List.concat
  @@ Pool.map ~pool ~grain:(grain funcs)
       (fun (f : Ir.func) ->
         Option.value ~default:[]
           (guarded b ~checker:"trad.fatal-child" f (fun () ->
                if not f.is_goroutine_body then []
                else
                  List.rev
                    (Ir.fold_insts
                       (fun acc i ->
                         match fatal_site f i with
                         | Some bug -> bug :: acc
                         | None -> acc)
                       [] f))))
       funcs
