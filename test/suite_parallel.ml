(* Tests for the domain pool (Goengine.Pool): the Chase–Lev deque under
   contention, Pool.map semantics (ordering, exceptions, sequential
   fallback, nesting), the per-channel solver budget, and end-to-end
   determinism — the full corpus must produce byte-identical diagnostics
   at jobs=1 and jobs=4. *)

module Pool = Goengine.Pool
module E = Goengine.Engine
module D = Goengine.Diagnostics

(* ------------------------------------------------------ Ws_deque ---- *)

let test_deque_lifo_fifo () =
  let q = Pool.Ws_deque.create ~capacity:4 () in
  for i = 1 to 10 do
    Pool.Ws_deque.push q i
  done;
  (* owner pops LIFO *)
  Alcotest.(check (option int)) "pop newest" (Some 10) (Pool.Ws_deque.pop q);
  (* thief steals FIFO *)
  Alcotest.(check (option int)) "steal oldest" (Some 1) (Pool.Ws_deque.steal q);
  Alcotest.(check (option int)) "steal next" (Some 2) (Pool.Ws_deque.steal q)

let test_deque_empty () =
  let q = Pool.Ws_deque.create () in
  Alcotest.(check (option int)) "pop empty" None (Pool.Ws_deque.pop q);
  Alcotest.(check (option int)) "steal empty" None (Pool.Ws_deque.steal q);
  Pool.Ws_deque.push q 7;
  Alcotest.(check (option int)) "pop single" (Some 7) (Pool.Ws_deque.pop q);
  Alcotest.(check (option int)) "pop after drain" None (Pool.Ws_deque.pop q)

(* Several thief domains race the owner for every element; each element
   must be taken exactly once, whoever wins. *)
let test_deque_steal_contention () =
  let n = 2000 and thieves = 3 in
  let q = Pool.Ws_deque.create () in
  for i = 0 to n - 1 do
    Pool.Ws_deque.push q i
  done;
  let taken = Array.make n 0 in
  let mu = Mutex.create () in
  let record i =
    Mutex.lock mu;
    taken.(i) <- taken.(i) + 1;
    Mutex.unlock mu
  in
  let stop = Atomic.make false in
  let thief () =
    Domain.spawn (fun () ->
        let rec go () =
          match Pool.Ws_deque.steal q with
          | Some i ->
              record i;
              go ()
          | None -> if not (Atomic.get stop) then (Domain.cpu_relax (); go ())
        in
        go ())
  in
  let ds = List.init thieves (fun _ -> thief ()) in
  (* the owner pops concurrently *)
  let rec drain () =
    match Pool.Ws_deque.pop q with
    | Some i ->
        record i;
        drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  List.iter Domain.join ds;
  Array.iteri
    (fun i c ->
      if c <> 1 then
        Alcotest.failf "element %d taken %d times (want exactly 1)" i c)
    taken

(* ---------------------------------------------------------- Pool ---- *)

let test_map_matches_sequential () =
  let pool = Pool.get ~jobs:4 in
  let xs = List.init 200 (fun i -> i) in
  let f x = (x * x) + 1 in
  Alcotest.(check (list int))
    "parallel map = List.map, in order" (List.map f xs)
    (Pool.map ~pool f xs)

let test_map_zero_worker_fallback () =
  (* jobs <= 1 runs inline on the calling domain, spawning nothing *)
  let inline = Pool.create ~jobs:1 () in
  let saw = ref [] in
  let r = Pool.map ~pool:inline (fun x -> saw := x :: !saw; x * 2) [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "results" [ 2; 4; 6 ] r;
  Alcotest.(check (list int)) "ran in order, inline" [ 3; 2; 1 ] !saw;
  Pool.shutdown inline;
  let clamped = Pool.create ~jobs:0 () in
  Alcotest.(check int) "jobs clamps to 1" 1 (Pool.jobs clamped);
  Alcotest.(check (list int))
    "clamped pool still maps" [ 2; 4 ]
    (Pool.map ~pool:clamped (fun x -> 2 * x) [ 1; 2 ]);
  Pool.shutdown clamped

exception Boom of int

let test_exception_propagation () =
  let pool = Pool.get ~jobs:4 in
  let xs = List.init 64 (fun i -> i) in
  (* several tasks fail; the *smallest* failing index must win, for every
     schedule *)
  (match Pool.map ~pool (fun x -> if x mod 7 = 3 then raise (Boom x) else x) xs with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom x -> Alcotest.(check int) "smallest failing index" 3 x);
  (* the pool survives a failed batch *)
  Alcotest.(check (list int))
    "pool usable after exception" [ 1; 2; 3 ]
    (Pool.map ~pool (fun x -> x) [ 1; 2; 3 ])

let test_nested_map () =
  let pool = Pool.get ~jobs:4 in
  (* an inner map from inside a task forks real subtasks into the running
     session (no deadlock, no inline collapse) and still assembles in
     input order *)
  let r =
    Pool.map ~pool
      (fun i -> List.fold_left ( + ) 0 (Pool.map ~pool (fun j -> i * j) [ 1; 2; 3 ]))
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check (list int)) "nested results" [ 6; 12; 18; 24 ] r

let test_run_thunks () =
  let pool = Pool.get ~jobs:2 in
  Alcotest.(check (list int))
    "run evaluates thunks in order" [ 10; 20 ]
    (Pool.run ~pool [ (fun () -> 10); (fun () -> 20) ])

(* -------------------------------------------------- solver budget --- *)

let fig1 =
  "package p\n\
   func Exec(ctx context.Context, r string) (string, error) {\n\
   \toutDone := make(chan error)\n\
   \tgo func(a string) {\n\t\toutDone <- nil\n\t}(r)\n\
   \tselect {\n\
   \tcase err := <-outDone:\n\t\tif err != nil {\n\t\t\treturn \"\", err\n\t\t}\n\
   \tcase <-ctx.Done():\n\t\treturn \"\", ctx.Err()\n\
   \t}\n\
   \treturn \"ok\", nil\n\
   }"

let test_solver_timeout_skips () =
  (* a 0ms budget expires before the first solver call: every channel is
     skipped with a warning, none stalls, and no bug is reported *)
  let cfg =
    {
      Gcatch.Bmoc.default_config with
      path_cfg =
        { Gcatch.Pathenum.default_config with solver_timeout_ms = Some 0 };
    }
  in
  let ir = Pipeline.compile_ir ~name:"timeout" [ fig1 ] in
  let r = Gcatch.Bmoc.detect_full ~cfg ir in
  Alcotest.(check int) "no bugs survive the 0ms budget" 0
    (List.length r.Gcatch.Bmoc.f_bugs);
  Alcotest.(check bool) "at least one channel skipped" true
    (r.Gcatch.Bmoc.f_skipped <> []);
  Alcotest.(check int)
    "stats count the skips"
    (List.length r.Gcatch.Bmoc.f_skipped)
    r.Gcatch.Bmoc.f_stats.Gcatch.Bmoc.solver_timeouts

let test_no_timeout_finds_fig1 () =
  (* a generous budget changes nothing: figure 1's bug is still found *)
  let cfg =
    {
      Gcatch.Bmoc.default_config with
      path_cfg =
        { Gcatch.Pathenum.default_config with solver_timeout_ms = Some 60_000 };
    }
  in
  let ir = Pipeline.compile_ir ~name:"timeout2" [ fig1 ] in
  let r = Gcatch.Bmoc.detect_full ~cfg ir in
  Alcotest.(check bool) "bug found" true (r.Gcatch.Bmoc.f_bugs <> []);
  Alcotest.(check int) "nothing skipped" 0 (List.length r.Gcatch.Bmoc.f_skipped)

(* ---------------------------------------------------- determinism --- *)

(* The load-bearing test: the whole corpus, analysed through the full
   pass registry, must produce byte-identical diagnostics at jobs=1 and
   jobs=4 (elapsed-time fields are excluded — only [r_diags] counts). *)
let corpus_diags ~jobs =
  let e = Gcatch.Passes.engine ~jobs () in
  List.map
    (fun (app : Gocorpus.Apps.app) ->
      let r = E.analyse e ~name:app.spec.name app.sources in
      (app.spec.name, D.list_to_json r.E.r_diags))
    (Gocorpus.Apps.all ())

let test_corpus_determinism () =
  let seq = corpus_diags ~jobs:1 in
  let par = corpus_diags ~jobs:4 in
  List.iter2
    (fun (name, d1) (name', d4) ->
      Alcotest.(check string) "same app order" name name';
      if d1 <> d4 then
        Alcotest.failf "%s: diagnostics differ between jobs=1 and jobs=4" name)
    seq par

(* -------------------------------------------- inline fast path ---- *)

let batches_count () =
  match
    List.assoc_opt "pool.batches"
      (Goobs.Metrics.counters_list Goobs.Metrics.default)
  with
  | Some v -> v
  | None -> 0

let test_small_map_runs_inline () =
  (* batches of <= 2 items skip the session machinery entirely, even on
     a multi-participant pool: no epoch bump, no deques, no counter *)
  let pool = Pool.get ~jobs:4 in
  let before = batches_count () in
  Alcotest.(check (list int)) "pair result" [ 2; 4 ]
    (Pool.map ~pool (fun x -> 2 * x) [ 1; 2 ]);
  Alcotest.(check (list int)) "singleton result" [ 9 ]
    (Pool.map ~pool (fun x -> x * x) [ 3 ]);
  Alcotest.(check (list int)) "empty result" []
    (Pool.map ~pool (fun x -> x) []);
  Alcotest.(check int) "no batch recorded" before (batches_count ())

let test_recommended_jobs_sane () =
  (* the cached environment recommendation map consults on every call *)
  let r = Pool.recommended_jobs () in
  Alcotest.(check bool) "at least one job" true (r >= 1);
  Alcotest.(check int) "stable across calls" r (Pool.recommended_jobs ());
  Alcotest.(check int) "default_jobs agrees" r (Pool.default_jobs ())

let tests =
  [
    Alcotest.test_case "deque: LIFO pop / FIFO steal" `Quick test_deque_lifo_fifo;
    Alcotest.test_case "deque: empty behaviour" `Quick test_deque_empty;
    Alcotest.test_case "deque: steal under contention" `Quick
      test_deque_steal_contention;
    Alcotest.test_case "map matches sequential" `Quick test_map_matches_sequential;
    Alcotest.test_case "zero-worker fallback" `Quick test_map_zero_worker_fallback;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
    Alcotest.test_case "nested map schedules" `Quick test_nested_map;
    Alcotest.test_case "run thunks" `Quick test_run_thunks;
    Alcotest.test_case "small map runs inline" `Quick test_small_map_runs_inline;
    Alcotest.test_case "recommended jobs sane" `Quick test_recommended_jobs_sane;
    Alcotest.test_case "solver budget skips channels" `Quick
      test_solver_timeout_skips;
    Alcotest.test_case "generous budget changes nothing" `Quick
      test_no_timeout_finds_fig1;
    Alcotest.test_case "corpus determinism jobs 1 vs 4" `Slow
      test_corpus_determinism;
  ]
