(* Tests for the domain pool (Goengine.Pool): Pool.map semantics
   (ordering, exceptions, sequential fallback, nesting), what items run
   on worker domains see (span parents, Memo waits, concurrent
   submitters, stalls), BMOC channels running to completion, the
   per-channel solver budget, and end-to-end determinism — the full
   corpus must produce byte-identical diagnostics at jobs=1 and
   jobs=4. *)

module Pool = Goengine.Pool
module E = Goengine.Engine
module D = Goengine.Diagnostics
module Trace = Goobs.Trace

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
  (* an inner map from inside an item runs inline on that item's
     participant (no deadlock) and still assembles in input order *)
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

(* ------------------------------------------------ worker domains --- *)

(* Whether items really run on worker domains: the inline fast path
   takes every batch when the environment recommends one job. *)
let dispatches () = Pool.recommended_jobs () > 1

let with_trace f =
  Trace.enable ();
  ignore (Trace.drain ());
  Fun.protect ~finally:Trace.disable f;
  Trace.drain ()

let test_worker_span_parent () =
  let pool = Pool.get ~jobs:4 in
  let main_tid = (Domain.self () :> int) in
  let spans =
    with_trace (fun () ->
        Trace.with_span ~name:"submit" (fun () ->
            ignore
              (Pool.map ~pool
                 (fun i ->
                   Trace.with_span ~name:"item" (fun () ->
                       (* long enough that the workers take some items *)
                       Unix.sleepf 0.002;
                       i))
                 (List.init 16 Fun.id))))
  in
  let named n = List.filter (fun s -> s.Trace.sp_name = n) spans in
  let items = named "item" and tasks = named "pool.task" in
  Alcotest.(check int) "one item span per item" 16 (List.length items);
  if dispatches () then begin
    (* on every domain, the item nests in its pool.task span, which
       nests in the span the submitter had open *)
    List.iter
      (fun s ->
        Alcotest.(check (option string)) "item under pool.task"
          (Some "pool.task") s.Trace.sp_parent;
        Alcotest.(check int) "item depth" 2 s.Trace.sp_depth)
      items;
    List.iter
      (fun s ->
        Alcotest.(check (option string)) "pool.task under submit"
          (Some "submit") s.Trace.sp_parent)
      tasks;
    Alcotest.(check bool) "some items ran on a worker domain" true
      (List.exists (fun s -> s.Trace.sp_tid <> main_tid) items)
  end

let test_memo_waiter_across_domains () =
  let pool = Pool.get ~jobs:4 in
  let memo : int Goengine.Memo.t = Goengine.Memo.create () in
  let computed = Atomic.make 0 in
  let compute () =
    Atomic.incr computed;
    (* the claimant holds the slot long enough for the others to wait *)
    Unix.sleepf 0.05;
    ((Domain.self () :> int), true)
  in
  let answers =
    Pool.map ~pool
      (fun _ ->
        let self = (Domain.self () :> int) in
        match Goengine.Memo.find_or_compute memo "k" compute with
        | `Computed d -> (`Computed, d, self)
        | `Hit d -> (`Hit, d, self))
      (List.init 8 Fun.id)
  in
  Alcotest.(check int) "computed once" 1 (Atomic.get computed);
  Alcotest.(check int) "one claimant" 1
    (List.length (List.filter (fun (k, _, _) -> k = `Computed) answers));
  let claimant = match answers with (_, d, _) :: _ -> d | [] -> -1 in
  List.iter
    (fun (_, d, _) -> Alcotest.(check int) "every item got the claimant's value" claimant d)
    answers;
  if dispatches () then
    Alcotest.(check bool) "a waiter on another domain got the value" true
      (List.exists (fun (k, _, self) -> k = `Hit && self <> claimant) answers)

let test_concurrent_submitters () =
  let pool = Pool.get ~jobs:4 in
  let xs = List.init 300 Fun.id in
  let submit k () =
    List.init 5 (fun _ -> Pool.map ~pool (fun x -> (k * 1000) + x) xs)
  in
  let d = Domain.spawn (submit 1) in
  let mine = submit 2 () in
  let theirs = Domain.join d in
  List.iter
    (Alcotest.(check (list int)) "this thread's results in input order"
       (List.map (fun x -> 2000 + x) xs))
    mine;
  List.iter
    (Alcotest.(check (list int)) "other thread's results in input order"
       (List.map (fun x -> 1000 + x) xs))
    theirs

(* every solver site stalls: a stalled item sleeps on its participant,
   and jobs 4 must still answer what jobs 1 answers *)
let test_stalls_match_jobs1 () =
  let analyse jobs =
    let reg = Goobs.Metrics.create () in
    let e = Gcatch.Passes.engine ~registry:reg ~jobs () in
    let r = E.analyse e ~name:"stalls" [ Pipeline.multi_chan 8 ] in
    (D.list_to_json r.E.r_diags, Goobs.Metrics.counters_list reg)
  in
  Fun.protect ~finally:Goobs.Faults.clear (fun () ->
      (match Goobs.Faults.parse "solver:*!stall" with
      | Ok specs -> Goobs.Faults.set_plan specs
      | Error e -> Alcotest.fail e);
      let d1, c1 = analyse 1 in
      let d4, c4 = analyse 4 in
      Alcotest.(check string) "diagnostics equal" d1 d4;
      Alcotest.(check (list (pair string int))) "run counters equal" c1 c4;
      Alcotest.(check bool) "bugs found" true (String.length d1 > 2))

(* The regression test for running each channel to completion: in a
   traced jobs-2 analysis, a domain never starts a channel before the
   one it is running has finished, so no two bmoc.channel spans on one
   domain overlap.  A scheduler that suspends a channel at its solver
   polls interleaves them. *)
let test_bmoc_channels_run_to_completion () =
  let e = Gcatch.Passes.engine ~jobs:2 () in
  let spans =
    with_trace (fun () ->
        ignore (E.analyse e ~name:"to-completion" [ Pipeline.multi_chan 12 ]))
  in
  let chans = List.filter (fun s -> s.Trace.sp_name = "bmoc.channel") spans in
  Alcotest.(check int) "one span per channel" 12 (List.length chans);
  let tids = List.sort_uniq compare (List.map (fun s -> s.Trace.sp_tid) chans) in
  List.iter
    (fun tid ->
      let on_tid =
        List.sort
          (fun a b -> Float.compare a.Trace.sp_ts_us b.Trace.sp_ts_us)
          (List.filter (fun s -> s.Trace.sp_tid = tid) chans)
      in
      ignore
        (List.fold_left
           (fun prev_end s ->
             if s.Trace.sp_ts_us +. 1e-3 < prev_end then
               Alcotest.failf
                 "domain %d started a channel at %.1f us before the previous \
                  one ended at %.1f us"
                 tid s.Trace.sp_ts_us prev_end;
             s.Trace.sp_ts_us +. s.Trace.sp_dur_us)
           neg_infinity on_tid))
    tids

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
  (* batches of <= 2 items skip the dispatch entirely, even on a
     multi-participant pool: nothing queued, no counter *)
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
    Alcotest.test_case "map matches sequential" `Quick test_map_matches_sequential;
    Alcotest.test_case "zero-worker fallback" `Quick test_map_zero_worker_fallback;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
    Alcotest.test_case "nested map schedules" `Quick test_nested_map;
    Alcotest.test_case "run thunks" `Quick test_run_thunks;
    Alcotest.test_case "small map runs inline" `Quick test_small_map_runs_inline;
    Alcotest.test_case "recommended jobs sane" `Quick test_recommended_jobs_sane;
    Alcotest.test_case "worker items keep span parents" `Quick
      test_worker_span_parent;
    Alcotest.test_case "memo waiter across domains" `Quick
      test_memo_waiter_across_domains;
    Alcotest.test_case "concurrent submitters in order" `Quick
      test_concurrent_submitters;
    Alcotest.test_case "solver stalls match sequential" `Quick
      test_stalls_match_jobs1;
    Alcotest.test_case "bmoc channels run to completion" `Quick
      test_bmoc_channels_run_to_completion;
    Alcotest.test_case "corpus determinism jobs 1 vs 4" `Slow
      test_corpus_determinism;
    Alcotest.test_case "solver budget skips channels" `Quick
      test_solver_timeout_skips;
    Alcotest.test_case "generous budget changes nothing" `Quick
      test_no_timeout_finds_fig1;
  ]
