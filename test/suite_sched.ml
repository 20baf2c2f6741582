(* Tests for the domain pool's dispatch contract (Goengine.Pool): the
   smallest failing index wins whatever order items finish in on several
   domains, and only after every item has run; the "pool" fault site is
   per dispatched item; [grain] dispatches chunks; a nested map
   dispatches nothing; a created pool shuts down; jobs-1 vs jobs-4
   analyses are byte-equal in diagnostics and run-registry metrics.  Also
   [GCATCH_JOBS] parsing.  The dispatch assertions only hold when the
   environment recommends more than one job: otherwise every batch takes
   the inline path. *)

module Pool = Goengine.Pool
module E = Goengine.Engine
module D = Goengine.Diagnostics
module M = Goobs.Metrics

let dispatches () = Pool.recommended_jobs () > 1

(* process-registry pool counters *)
let counter name =
  Option.value (List.assoc_opt name (M.counters_list M.default)) ~default:0

(* ------------------------------------------------- exception choice --- *)

exception Boom of int

let test_stolen_exception_smallest_index () =
  let pool = Pool.get ~jobs:4 in
  (match
     Pool.map ~pool
       (fun x ->
         (* later items fail first: items spread over the domains finish
            out of index order, and the winner must still be chosen by
            index, not by completion order *)
         if x mod 7 = 3 then begin
           Unix.sleepf (0.0002 *. float_of_int (64 - x));
           raise (Boom x)
         end;
         x)
       (List.init 64 (fun i -> i))
   with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom x -> Alcotest.(check int) "smallest failing index" 3 x);
  (* the shared pool survives the failed batch *)
  Alcotest.(check (list int))
    "pool usable after exception" [ 2; 4; 6 ]
    (Pool.map ~pool (fun x -> 2 * x) [ 1; 2; 3 ])

let test_items_finish_before_raise () =
  let pool = Pool.get ~jobs:4 in
  (* plain and chunked: the batch raises only after every other item
     ran, whatever the schedule, dispatched or inline *)
  List.iter
    (fun grain ->
      let ran = Atomic.make 0 in
      (match
         Pool.map ~pool ~grain
           (fun x ->
             if x = 0 then raise (Boom x);
             Unix.sleepf 0.0005;
             Atomic.incr ran)
           (List.init 32 Fun.id)
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom x -> Alcotest.(check int) "failing index" 0 x);
      Alcotest.(check int)
        (Printf.sprintf "every other item ran (grain %d)" grain)
        31 (Atomic.get ran))
    [ 1; 4 ]

(* ------------------------------------------------------ dispatch --- *)

let test_pool_fault_keyed_by_index () =
  let pool = Pool.get ~jobs:4 in
  Fun.protect ~finally:Goobs.Faults.clear (fun () ->
      (match Goobs.Faults.parse "pool@5" with
      | Ok specs -> Goobs.Faults.set_plan specs
      | Error e -> Alcotest.fail e);
      match Pool.map ~pool (fun x -> x) (List.init 8 Fun.id) with
      | r ->
          (* inline batches have no dispatched items to fault *)
          Alcotest.(check bool) "inline path only" false (dispatches ());
          Alcotest.(check (list int)) "inline results" (List.init 8 Fun.id) r
      | exception Goobs.Faults.Injected (site, key) ->
          Alcotest.(check (pair string string)) "item 5 faulted"
            ("pool", "5") (site, key))

let test_grain_dispatches_chunks () =
  let pool = Pool.get ~jobs:4 in
  let before = counter "sched.tasks_spawned" in
  let xs = List.init 37 Fun.id in
  Alcotest.(check (list int)) "order preserved" (List.map succ xs)
    (Pool.map ~pool ~grain:4 succ xs);
  Alcotest.(check int) "one dispatched item per chunk of 4"
    (if dispatches () then 10 else 0)
    (counter "sched.tasks_spawned" - before)

let test_nested_map_dispatches_nothing () =
  let pool = Pool.get ~jobs:4 in
  let before = counter "pool.batches" in
  let r =
    Pool.map ~pool
      (fun a -> Pool.map ~pool (fun b -> (10 * a) + b) [ 1; 2; 3; 4 ])
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check (list (list int))) "nested results in input order"
    (List.map (fun a -> List.map (fun b -> (10 * a) + b) [ 1; 2; 3; 4 ]) [ 1; 2; 3; 4 ])
    r;
  (* only the outer batch was queued: inner maps ran inline on the
     participant that took the outer item *)
  Alcotest.(check int) "one batch" (if dispatches () then 1 else 0)
    (counter "pool.batches" - before)

let test_created_pool_shuts_down () =
  let pool = Pool.create ~jobs:3 () in
  Alcotest.(check int) "jobs" 3 (Pool.jobs pool);
  let xs = List.init 50 Fun.id in
  Alcotest.(check (list int)) "maps" (List.map (fun x -> x * 3) xs)
    (Pool.map ~pool (fun x -> x * 3) xs);
  (* the idle workers wake up and exit: the join returns *)
  Pool.shutdown pool

(* ------------------------------------------- determinism under pool --- *)

(* eight independent channels: more than BMOC's single-chunk batch (four
   or fewer channels run inline), so a 4-job fan-out has real width *)
let multi_chan = Pipeline.multi_chan 8

let analyse jobs =
  let reg = M.create () in
  let e = Gcatch.Passes.engine ~registry:reg ~jobs () in
  let r = E.analyse e ~name:"det" [ multi_chan ] in
  (D.list_to_json r.E.r_diags, M.counters_list reg)

let test_jobs_byte_equality_under_scheduler () =
  (* diagnostics and the run registry's counters must be byte-identical
     at jobs 1 and 4.  Pool traffic lives in the process registry under
     "pool."/"sched." and is *not* compared — a jobs-1 run dispatches
     nothing. *)
  let d1, c1 = analyse 1 in
  let d4, c4 = analyse 4 in
  Alcotest.(check string) "diagnostics byte-identical" d1 d4;
  Alcotest.(check (list (pair string int))) "run counters identical" c1 c4;
  Alcotest.(check bool) "solver counters present" true
    (List.mem_assoc "bmoc.solver_calls" c1)

(* ------------------------------------------------------ GCATCH_JOBS --- *)

let contains ~needle line =
  let nl = String.length needle and ll = String.length line in
  let rec find i = i + nl <= ll && (String.sub line i nl = needle || find (i + 1)) in
  nl > 0 && find 0

let test_jobs_of_env_fallback () =
  let hw = Domain.recommended_domain_count () in
  let warnings = ref [] in
  Goobs.Log.set_sink (fun l -> warnings := l :: !warnings);
  Fun.protect ~finally:Goobs.Log.reset_sink (fun () ->
      Alcotest.(check int) "well-formed value wins" 3
        (Pool.jobs_of_env (Some "3"));
      Alcotest.(check int) "unset -> hardware" hw (Pool.jobs_of_env None);
      Alcotest.(check int) "clean cases warn nothing" 0
        (List.length !warnings);
      (* malformed values fall back to the hardware recommendation (not
         to a silent 1) and say so once each *)
      Alcotest.(check int) "malformed -> hardware" hw
        (Pool.jobs_of_env (Some "abc"));
      Alcotest.(check int) "zero -> hardware" hw (Pool.jobs_of_env (Some "0"));
      Alcotest.(check int) "one warning per bad value" 2
        (List.length !warnings);
      Alcotest.(check bool) "warning names the variable" true
        (List.for_all (contains ~needle:"GCATCH_JOBS") !warnings))

let tests =
  [
    Alcotest.test_case "stolen exception: smallest index wins" `Quick
      test_stolen_exception_smallest_index;
    Alcotest.test_case "every item runs before the raise" `Quick
      test_items_finish_before_raise;
    Alcotest.test_case "pool fault keyed by item index" `Quick
      test_pool_fault_keyed_by_index;
    Alcotest.test_case "grain dispatches one per chunk" `Quick
      test_grain_dispatches_chunks;
    Alcotest.test_case "nested map dispatches nothing" `Quick
      test_nested_map_dispatches_nothing;
    Alcotest.test_case "created pool maps and shuts down" `Quick
      test_created_pool_shuts_down;
    Alcotest.test_case "GCATCH_JOBS fallback + warning" `Quick
      test_jobs_of_env_fallback;
    Alcotest.test_case "jobs 1 vs 4 byte-equality under scheduler" `Quick
      test_jobs_byte_equality_under_scheduler;
  ]
