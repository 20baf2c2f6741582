(* Direct tests of the path-enumeration machinery (§3.3): loop bounds,
   call skipping and inlining, select branching, combination building,
   and the feasibility filters. *)

module Alias = Goanalysis.Alias
module P = Gcatch.Pathenum

let make_ctx ?(model_wg = false) src =
  let ir = Pipeline.compile_ir ~name:"pe" [ "package p\n" ^ src ] in
  let alias = Alias.analyse ir in
  let cg = Goanalysis.Callgraph.build ~alias ir in
  let prims = Gcatch.Primitives.collect ir alias in
  let pset =
    List.filter (function Alias.Achan _ -> true | _ -> false)
      (Gcatch.Primitives.channels prims)
  in
  let funcs = List.map (fun (f : Goir.Ir.func) -> f.name) (Goir.Ir.funcs_list ir) in
  {
    P.prog = ir;
    alias;
    cg;
    pset;
    scope_funcs = funcs;
    cfg = { P.default_config with model_waitgroup = model_wg };
    touch_memo = Hashtbl.create 8;
  }

let paths src fname = P.enumerate (make_ctx src) fname

let count_paths src fname = List.length (paths src fname)

let sync_kinds (p : P.path) =
  List.filter_map
    (fun (e : P.event) ->
      match e.e_desc with
      | Sync (Sop (k, _)) -> Some (Gcatch.Report.op_kind_str k)
      | Sync (Sselect { chosen; _ }) ->
          Some
            (match chosen with
            | Some i -> Printf.sprintf "select:%d" i
            | None -> "select:default")
      | Sync (Swg_add _) -> Some "wg-add"
      | _ -> None)
    p.p_events

let test_straight_line () =
  Alcotest.(check int) "one path" 1
    (count_paths "func f() {\n\tc := make(chan int, 1)\n\tc <- 1\n\t<-c\n}" "f")

let test_branch_doubles () =
  Alcotest.(check int) "two paths" 2
    (count_paths
       "func f(x int) {\n\tc := make(chan int, 1)\n\tif x > 0 {\n\t\tc <- 1\n\t} else {\n\t\tc <- 2\n\t}\n\t<-c\n}"
       "f")

let test_select_paths () =
  (* two arms plus a default = three paths *)
  Alcotest.(check int) "three paths" 3
    (count_paths
       "func f(a chan int, b chan int) {\n\tc := make(chan int, 1)\n\tc <- 1\n\tselect {\n\tcase <-a:\n\tcase <-b:\n\tdefault:\n\t}\n}"
       "f")

let test_loop_unrolled_twice () =
  (* an unconditional-count loop over a channel send: paths with 0, 1, 2
     iterations (the §3.3 bound) *)
  let n =
    count_paths
      "func f(n int) {\n\tc := make(chan int, 8)\n\tfor i := range n {\n\t\tc <- i\n\t}\n}"
      "f"
  in
  Alcotest.(check int) "0/1/2 iterations" 3 n

let test_callee_without_sync_skipped () =
  let ps =
    paths
      "func pure(x int) int {\n\treturn x + 1\n}\nfunc f() {\n\tc := make(chan int, 1)\n\tpure(3)\n\tc <- 1\n}"
      "f"
  in
  Alcotest.(check int) "one path, call ignored" 1 (List.length ps);
  Alcotest.(check (list string)) "only the send" [ "send" ]
    (sync_kinds (List.hd ps))

let test_callee_with_sync_inlined () =
  let ps =
    paths
      "func helper(c chan int) {\n\tc <- 1\n}\nfunc f() {\n\tc := make(chan int, 2)\n\thelper(c)\n\tc <- 2\n}"
      "f"
  in
  Alcotest.(check (list string)) "inlined send + own send" [ "send"; "send" ]
    (sync_kinds (List.hd ps))

let test_combinations_tree () =
  let ctx =
    make_ctx
      "func f() {\n\tc := make(chan int)\n\tgo func() {\n\t\tc <- 1\n\t}()\n\tgo func() {\n\t\tc <- 2\n\t}()\n\t<-c\n\t<-c\n}"
  in
  let combos = P.combinations ctx ~root:"f" ~max_combos:64 ~max_goroutines:6 in
  Alcotest.(check int) "one combination (straight-line paths)" 1
    (List.length combos);
  Alcotest.(check int) "three goroutines" 3 (List.length (List.hd combos))

let test_conflict_filter () =
  let ctx =
    make_ctx
      "func f(flag bool) {\n\tc := make(chan int, 1)\n\tif flag == true {\n\t\tc <- 1\n\t}\n\tif flag == true {\n\t\t<-c\n\t}\n}"
  in
  let combos = P.combinations ctx ~root:"f" ~max_combos:64 ~max_goroutines:4 in
  let feasible = List.filter (fun c -> not (P.has_conflicts c)) combos in
  (* four syntactic paths, two survive (true/true and false/false) *)
  Alcotest.(check int) "all four enumerated" 4 (List.length combos);
  Alcotest.(check int) "two feasible" 2 (List.length feasible)

let test_mutated_condition_not_filtered () =
  (* conditions over variables written twice are opaque; combinations
     taking both polarities survive (the FP source the paper documents) *)
  let ctx =
    make_ctx
      "func f(input int) {\n\tc := make(chan int, 1)\n\tmode := 0\n\tif input > 10 {\n\t\tmode = 1\n\t}\n\tif mode == 0 {\n\t\tc <- 1\n\t}\n\tif mode == 0 {\n\t\t<-c\n\t}\n}"
  in
  let combos = P.combinations ctx ~root:"f" ~max_combos:64 ~max_goroutines:4 in
  Alcotest.(check bool) "no combination filtered" true
    (List.for_all (fun c -> not (P.has_conflicts c)) combos)

let test_path_cap_respected () =
  (* 2^12 syntactic paths; the enumerator must stop at the cap *)
  let branches =
    String.concat ""
      (List.init 12 (fun i ->
           Printf.sprintf "\tif x > %d {\n\t\tc <- %d\n\t}\n" i i))
  in
  let src =
    "func f(x int) {\n\tc := make(chan int, 100)\n" ^ branches ^ "}"
  in
  let n = count_paths src "f" in
  Alcotest.(check bool) "capped" true
    (n <= P.default_config.max_paths + 1)

let test_wg_events_gated () =
  let src =
    "func f() {\n\tvar wg sync.WaitGroup\n\tc := make(chan int, 1)\n\twg.Add(1)\n\twg.Done()\n\twg.Wait()\n\tc <- 1\n}"
  in
  let without = paths src "f" in
  Alcotest.(check (list string)) "wg invisible by default" [ "send" ]
    (sync_kinds (List.hd without));
  let ctx = make_ctx ~model_wg:true src in
  (* waitgroups are only relevant when in pset; give it the wg object *)
  let prims =
    Gcatch.Primitives.collect ctx.P.prog ctx.P.alias
  in
  let wg_objs =
    Hashtbl.fold
      (fun obj kind acc ->
        if kind = Gcatch.Primitives.Pwaitgroup then obj :: acc else acc)
      prims.kinds []
  in
  let ctx = { ctx with P.pset = ctx.P.pset @ wg_objs } in
  let with_wg = P.enumerate ctx "f" in
  Alcotest.(check (list string)) "wg events with the extension"
    [ "wg-add"; "wg-done"; "wg-wait"; "send" ]
    (sync_kinds (List.hd with_wg))

(* -------------------------------------- dedup & scaling (PR 4) ---- *)

let test_dedup_drops_branch_only_variants () =
  (* the branch only changes a local computation: both paths project to
     the same sync skeleton, so dedup keeps exactly one combination *)
  let ctx =
    make_ctx
      "func f(x int) {\n\tc := make(chan int, 1)\n\ty := 0\n\tif x > 0 {\n\t\ty = 1\n\t}\n\tc <- y\n\t<-c\n}"
  in
  let combos = P.combinations ctx ~root:"f" ~max_combos:64 ~max_goroutines:4 in
  Alcotest.(check int) "two syntactic combinations" 2 (List.length combos);
  let indexed = List.mapi (fun i c -> (i, c)) combos in
  let kept, dropped = P.dedup_combinations indexed in
  Alcotest.(check int) "one survivor" 1 (List.length kept);
  Alcotest.(check int) "one dropped" 1 dropped;
  (* the first of the equivalence class survives, original index intact *)
  Alcotest.(check int) "survivor is the first" 0 (fst (List.hd kept))

let test_dedup_keeps_distinct_sync () =
  (* here the branch gates a send: the projections differ, so dedup must
     not merge them — a buggy witness lives in exactly one of them *)
  let ctx =
    make_ctx
      "func f(x int) {\n\tc := make(chan int, 1)\n\tif x > 0 {\n\t\tc <- 1\n\t}\n\t<-c\n}"
  in
  let combos = P.combinations ctx ~root:"f" ~max_combos:64 ~max_goroutines:4 in
  let indexed = List.mapi (fun i c -> (i, c)) combos in
  let kept, dropped = P.dedup_combinations indexed in
  Alcotest.(check int) "nothing dropped" 0 dropped;
  Alcotest.(check int) "all kept" (List.length combos) (List.length kept)

let test_enumeration_scales_linearly () =
  (* regression guard for the O(n^2) accumulator bugs: enumerating one
     straight-line path of k sync events must scale roughly linearly in
     k.  A 4x longer function may cost ~4x; the old quadratic append
     made it ~16x.  Timed as best-of-3 with a generous bound plus an
     absolute slack so scheduler noise cannot fail the suite. *)
  let time_enum n =
    let b = Buffer.create (n * 16) in
    Buffer.add_string b "func f() {\n\tc := make(chan int, 4)\n";
    for _ = 1 to n do
      Buffer.add_string b "\tc <- 1\n\t<-c\n"
    done;
    Buffer.add_string b "}\n";
    let ctx = make_ctx (Buffer.contents b) in
    let ctx =
      { ctx with P.cfg = { ctx.P.cfg with P.max_events = (8 * n) + 64 } }
    in
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      let ps = P.enumerate ctx "f" in
      best := min !best (Unix.gettimeofday () -. t0);
      Alcotest.(check int) "single straight-line path" 1 (List.length ps)
    done;
    !best
  in
  let t1 = time_enum 1000 in
  let t4 = time_enum 4000 in
  Alcotest.(check bool)
    (Printf.sprintf "4x events cost <= ~4x time (%.1fms -> %.1fms)"
       (t1 *. 1e3) (t4 *. 1e3))
    true
    (t4 <= (12.0 *. t1) +. 0.02)

let tests =
  [
    Alcotest.test_case "straight line" `Quick test_straight_line;
    Alcotest.test_case "branch doubles paths" `Quick test_branch_doubles;
    Alcotest.test_case "select paths" `Quick test_select_paths;
    Alcotest.test_case "loop unrolled twice" `Quick test_loop_unrolled_twice;
    Alcotest.test_case "sync-free callee skipped" `Quick
      test_callee_without_sync_skipped;
    Alcotest.test_case "sync-bearing callee inlined" `Quick
      test_callee_with_sync_inlined;
    Alcotest.test_case "combination tree" `Quick test_combinations_tree;
    Alcotest.test_case "conflicting conditions filtered" `Quick
      test_conflict_filter;
    Alcotest.test_case "mutated conditions opaque" `Quick
      test_mutated_condition_not_filtered;
    Alcotest.test_case "path cap respected" `Quick test_path_cap_respected;
    Alcotest.test_case "WaitGroup events gated by flag" `Quick
      test_wg_events_gated;
    Alcotest.test_case "dedup drops branch-only variants" `Quick
      test_dedup_drops_branch_only_variants;
    Alcotest.test_case "dedup keeps distinct sync" `Quick
      test_dedup_keeps_distinct_sync;
    Alcotest.test_case "enumeration scales linearly" `Slow
      test_enumeration_scales_linearly;
  ]
