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
                         other than the one running the test function. *)

type lockset = Alias.obj list

(* Per-function fault boundary shared by every checker: a function whose
   walk raises — or that would start under watchdog pressure — simply
   contributes no bugs, counted in the health ledger; its siblings are
   unaffected.  [metrics] counters are atomic, so pool workers account
   directly.  Without a registry the walk runs bare. *)
let guarded ?metrics ~checker (f : Ir.func) (work : unit -> 'a list) : 'a list
    =
  match metrics with
  | None -> work ()
  | Some reg -> (
      match
        Goengine.Supervise.checked ~metrics:reg
          ~unit_name:(checker ^ " func " ^ f.Ir.name)
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

(* Bounded path walk of one function, threading a lockset.  [visit] is
   called on every (instruction, lockset-before); [at_exit] on every
   function exit with the final lockset. *)
let walk_paths ?(loop_bound = 1) (f : Ir.func)
    ~(transfer : Ir.inst -> lockset -> lockset)
    ~(visit : Ir.inst -> lockset -> unit) ~(at_exit : lockset -> Ir.terminator -> unit) : unit =
  let visits = Hashtbl.create 8 in
  let rec go bid (ls : lockset) depth =
    if depth > 4000 then ()
    else
      let count = Option.value (Hashtbl.find_opt visits bid) ~default:0 in
      if count > loop_bound then ()
      else begin
        Hashtbl.replace visits bid (count + 1);
        let b = Ir.block f bid in
        let ls =
          List.fold_left
            (fun ls i ->
              visit i ls;
              transfer i ls)
            ls b.insts
        in
        (match Ir.successors b with
        | [] -> at_exit ls b.term
        | succs -> List.iter (fun s -> go s ls (depth + 1)) succs);
        Hashtbl.replace visits bid count
      end
  in
  go f.entry [] 0

let lock_transfer prims alias fname (i : Ir.inst) (ls : lockset) : lockset =
  match i.idesc with
  | Ilock p -> mutex_objs prims alias fname p @ ls
  | Iunlock p ->
      let objs = mutex_objs prims alias fname p in
      (* release one instance of each unlocked mutex *)
      List.fold_left
        (fun ls o ->
          let rec remove_one = function
            | [] -> []
            | x :: rest -> if x = o then rest else x :: remove_one rest
          in
          remove_one ls)
        ls objs
  | _ -> ls

(* ------------------------------------------ 1. missing unlock ------- *)

(* Each checker walks functions independently; [pool] fans the walks out
   across domains.  Per-function results are merged back *in function
   order*, so the bug list is identical for jobs=1 and jobs=N. *)
let check_missing_unlock ?(pool = Pool.sequential) ?metrics prims alias
    (prog : Ir.program) : Report.trad_bug list =
  List.concat
  @@ Pool.map ~pool
    (fun (f : Ir.func) ->
      guarded ?metrics ~checker:"trad.missing-unlock" f @@ fun () ->
      let bugs = ref [] in
      let reported = Hashtbl.create 4 in
      walk_paths f
        ~transfer:(lock_transfer prims alias f.name)
        ~visit:(fun _ _ -> ())
        ~at_exit:(fun ls term ->
          (* a panic exit aborts the goroutine anyway; returns should not
             hold locks *)
          match (term, ls) with
          | Ir.Treturn _, _ :: _ ->
              List.iter
                (fun o ->
                  if not (Hashtbl.mem reported o) then begin
                    Hashtbl.add reported o ();
                    bugs :=
                      {
                        Report.tkind = Report.Forget_unlock;
                        tfunc = f.name;
                        tloc = f.floc;
                        tdetail =
                          Printf.sprintf "%s still held at return" (Alias.obj_str o);
                      }
                      :: !bugs
                  end)
                ls
          | _ -> ());
      List.rev !bugs)
    (Ir.funcs_list prog)

(* ------------------------------------------ 2. double lock ---------- *)

(* Summary: mutexes a function may lock (itself or transitively) without
   first unlocking them. *)
let locks_summary prims alias cg (prog : Ir.program) :
    (string, Alias.obj list) Hashtbl.t =
  let summary = Hashtbl.create 16 in
  List.iter
    (fun (f : Ir.func) ->
      let acc = ref [] in
      Ir.iter_insts
        (fun i ->
          match i.idesc with
          | Ilock p ->
              acc := mutex_objs prims alias f.name p @ !acc
          | _ -> ())
        f;
      Hashtbl.replace summary f.name (List.sort_uniq compare !acc))
    (Ir.funcs_list prog);
  (* propagate through calls to a fixpoint *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (f : Ir.func) ->
        let cur = Option.value (Hashtbl.find_opt summary f.name) ~default:[] in
        let extra =
          List.concat_map
            (fun (e : Callgraph.edge) ->
              if e.kind = Callgraph.Ecall && not e.ambiguous then
                Option.value (Hashtbl.find_opt summary e.callee) ~default:[]
              else [])
            (Callgraph.callees cg f.name)
        in
        let next = List.sort_uniq compare (extra @ cur) in
        if List.length next <> List.length cur then begin
          Hashtbl.replace summary f.name next;
          changed := true
        end)
      (Ir.funcs_list prog)
  done;
  summary

let check_double_lock ?(pool = Pool.sequential) ?metrics prims alias cg
    (prog : Ir.program) : Report.trad_bug list =
  (* the call summary is a shared fixpoint: computed once, sequentially *)
  let summary = locks_summary prims alias cg prog in
  List.concat
  @@ Pool.map ~pool
    (fun (f : Ir.func) ->
      guarded ?metrics ~checker:"trad.double-lock" f @@ fun () ->
      let bugs = ref [] in
      let reported = Hashtbl.create 4 in
      let report loc detail key =
        if not (Hashtbl.mem reported key) then begin
          Hashtbl.add reported key ();
          bugs :=
            { Report.tkind = Report.Double_lock; tfunc = f.name; tloc = loc; tdetail = detail }
            :: !bugs
        end
      in
      walk_paths f
        ~transfer:(lock_transfer prims alias f.name)
        ~visit:(fun i ls ->
          match i.idesc with
          | Ilock p ->
              List.iter
                (fun o ->
                  if List.mem o ls then
                    report i.iloc
                      (Printf.sprintf "re-acquires %s already held" (Alias.obj_str o))
                      ("direct", o, i.ipp))
                (mutex_objs prims alias f.name p)
          | Icall (_, g, _) when ls <> [] -> (
              match Hashtbl.find_opt summary g with
              | Some glocks ->
                  List.iter
                    (fun o ->
                      if List.mem o ls then
                        report i.iloc
                          (Printf.sprintf "calls %s which locks %s already held" g
                             (Alias.obj_str o))
                          ("call", o, i.ipp))
                    glocks
              | None -> ())
          | _ -> ())
        ~at_exit:(fun _ _ -> ());
      List.rev !bugs)
    (Ir.funcs_list prog)

(* --------------------------------- 3. conflicting lock order -------- *)

let check_conflicting_order ?(pool = Pool.sequential) ?metrics prims alias
    (prog : Ir.program) : Report.trad_bug list =
  (* collect lock-order edges (m1 held while acquiring m2), one list per
     function, in walk order *)
  let per_func =
    Pool.map ~pool
      (fun (f : Ir.func) ->
        guarded ?metrics ~checker:"trad.lock-order" f @@ fun () ->
        let found = ref [] in
        walk_paths f
          ~transfer:(lock_transfer prims alias f.name)
          ~visit:(fun i ls ->
            match i.idesc with
            | Ilock p ->
                List.iter
                  (fun m2 ->
                    List.iter
                      (fun m1 ->
                        if m1 <> m2 then
                          found := ((m1, m2), (f.name, i.iloc)) :: !found)
                      ls)
                  (mutex_objs prims alias f.name p)
            | _ -> ())
          ~at_exit:(fun _ _ -> ());
        List.rev !found)
      (Ir.funcs_list prog)
  in
  (* merge in function order: the hash tables see the same insertion
     sequence as a sequential walk, so the report below is identical *)
  let edges = Hashtbl.create 16 in
  let edge_loc = Hashtbl.create 16 in
  List.iter
    (List.iter (fun (e, at) ->
         Hashtbl.replace edges e ();
         if not (Hashtbl.mem edge_loc e) then Hashtbl.replace edge_loc e at))
    per_func;
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

let check_field_race ?(pool = Pool.sequential) ?metrics prims alias
    (prog : Ir.program) : Report.trad_bug list =
  (* function allocating each struct object: accesses there are treated as
     construction/initialisation, not racy sharing *)
  let alloc_func : (Ir.pp, string) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (f : Ir.func) ->
      Ir.iter_insts
        (fun i ->
          match i.idesc with
          | Imake_struct (_, _) -> Hashtbl.replace alloc_func i.ipp f.name
          | _ -> ())
        f)
    (Ir.funcs_list prog);
  let is_constructor_access f = function
    | Alias.Astruct pp -> Hashtbl.find_opt alloc_func pp = Some f
    | _ -> false
  in
  (* per-function access lists in walk order, merged below *)
  let per_func =
    Pool.map ~pool
      (fun (f : Ir.func) ->
        guarded ?metrics ~checker:"trad.field-race" f @@ fun () ->
        let found = ref [] in
        let record fn loc ls base fld is_write =
          List.iter
            (fun obj ->
              match obj with
              | Alias.Astruct _ | Alias.Aext _
                when not (is_constructor_access fn obj) ->
                  found :=
                    ( (obj, fld),
                      { a_func = fn; a_loc = loc; a_lockset = ls; a_is_write = is_write } )
                    :: !found
              | _ -> ())
            base
        in
        walk_paths f
          ~transfer:(lock_transfer prims alias f.name)
          ~visit:(fun i ls ->
            match i.idesc with
            | Ifield_load (_, b, fld) when fld <> "$done" && fld <> "$elem" ->
                record f.name i.iloc ls (place_objs alias f.name (Ir.Pvar b)) fld false
            | Ifield_store (b, fld, _) when fld <> "$done" && fld <> "$elem" ->
                record f.name i.iloc ls (place_objs alias f.name (Ir.Pvar b)) fld true
            | _ -> ())
          ~at_exit:(fun _ _ -> ());
        List.rev !found)
      (Ir.funcs_list prog)
  in
  (* accesses.(struct obj, field) -> access list; merging in function
     order reproduces the sequential insertion sequence exactly *)
  let accesses : (Alias.obj * string, access list) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (List.iter (fun (key, a) ->
         let cur = Option.value (Hashtbl.find_opt accesses key) ~default:[] in
         Hashtbl.replace accesses key (a :: cur)))
    per_func;
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

(* ------------------------------------ 5. Fatal in child ------------- *)

let check_fatal_in_child ?(pool = Pool.sequential) ?metrics (prog : Ir.program)
    : Report.trad_bug list =
  List.concat
  @@ Pool.map ~pool
    (fun (f : Ir.func) ->
      guarded ?metrics ~checker:"trad.fatal-child" f @@ fun () ->
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
    (Ir.funcs_list prog)
