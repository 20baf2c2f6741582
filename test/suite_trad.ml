(* The traditional checkers over one shared lockset walk: pinned
   outputs, one derivation per artifact record, and the walk's fault
   and pressure boundaries. *)

module E = Goengine.Engine
module D = Goengine.Diagnostics
module S = Goengine.Supervise
module M = Goobs.Metrics
module T = Gcatch.Traditional

let trad_passes =
  [
    "trad.missing-unlock";
    "trad.double-lock";
    "trad.lock-order";
    "trad.field-race";
    "trad.fatal-child";
  ]

let lockset_passes = List.filter (( <> ) "trad.fatal-child") trad_passes

let trad_strs bugs = List.map Gcatch.Report.trad_str bugs

(* ---- pinned digests ---- *)

let filler_sources =
  List.init 4 (fun i ->
      "package f\n" ^ Gocorpus.Filler.generate ~seed:(i + 1) ~target_lines:400)

(* the 21 corpus apps, the 49 bug-set programs and a 4-file filler app *)
let programs () =
  List.map
    (fun (a : Gocorpus.Apps.app) -> (a.spec.name, a.sources))
    (Gocorpus.Apps.all ())
  @ List.map
      (fun (e : Gocorpus.Bugset.entry) ->
        (e.bs_name, [ "package b\n" ^ e.bs_src ]))
      Gocorpus.Bugset.entries
  @ [ ("filler", filler_sources) ]

(* One digest per program over every trad pass's rendered diagnostics
   and its metrics (health ledger, report count), less the scheduler's
   "pool.*" counters. *)
let digest (r : E.run) =
  let pass (pr : E.pass_run) =
    let metrics =
      List.filter_map
        (fun (k, v) ->
          if String.starts_with ~prefix:"pool." k then None
          else Some (Printf.sprintf "%s=%d" k v))
        pr.E.pr_metrics
    in
    String.concat "\n"
      [ pr.E.pr_pass; D.list_to_json pr.E.pr_diags; String.concat ";" metrics ]
  in
  Digest.to_hex
    (Digest.string (String.concat "\n\n" (List.map pass r.E.r_passes)))

(* Pinned from the checkers as they were before the shared walk (one
   walk per checker); the shared walk must reproduce every byte and
   counter at any job count. *)
let pinned =
  [
    ("go", "1a80645f82bca073da0c2da25cb95c69");
    ("kubernetes", "db5fd8ccce2b3bdcae4982327e0b40dc");
    ("docker", "570b802ec3ae997d76e776ef11c9ecd5");
    ("hugo", "537e696994287dcd119b326df4f772df");
    ("gin", "739cee2b612d19633ebdea554c984222");
    ("frp", "c935b58453cdd27b4e7cbefb4bdf974e");
    ("gogs", "cbadcf414be78fb8dd52f9949b9ffe84");
    ("syncthing", "1ed528c6974484438ba2963ec23403ca");
    ("etcd", "a574bd43d96426f5f97422242558490b");
    ("v2ray-core", "613309030f8f16f5e7fc2ce384db49ad");
    ("prometheus", "65e88e54c1f3026e8c4952b95d7c8ac8");
    ("fzf", "cbadcf414be78fb8dd52f9949b9ffe84");
    ("traefik", "cbadcf414be78fb8dd52f9949b9ffe84");
    ("caddy", "739cee2b612d19633ebdea554c984222");
    ("go-ethereum", "76baf41114032b648bd511a2d07f32c6");
    ("beego", "9d13856798f2612cee52a85dc5e8339e");
    ("mkcert", "cbadcf414be78fb8dd52f9949b9ffe84");
    ("tidb", "a2fa4d2bc62b15878878ab1e097631cd");
    ("cockroachdb", "3db370c45d7808549cd21a488a6975c5");
    ("grpc", "8086c8b9f5cf26b4c1eae78837d1699e");
    ("bbolt", "b9852729c050bbd2a8b3bf836c27beb9");
    ("single-send-1", "92a2648c7ebe6a2ec89755b31c31611c");
    ("single-send-2", "92a2648c7ebe6a2ec89755b31c31611c");
    ("single-send-3", "92a2648c7ebe6a2ec89755b31c31611c");
    ("single-send-4", "92a2648c7ebe6a2ec89755b31c31611c");
    ("single-send-5", "92a2648c7ebe6a2ec89755b31c31611c");
    ("single-send-6", "92a2648c7ebe6a2ec89755b31c31611c");
    ("single-send-7", "92a2648c7ebe6a2ec89755b31c31611c");
    ("single-send-8", "92a2648c7ebe6a2ec89755b31c31611c");
    ("single-send-9", "92a2648c7ebe6a2ec89755b31c31611c");
    ("single-send-10", "92a2648c7ebe6a2ec89755b31c31611c");
    ("single-send-11", "92a2648c7ebe6a2ec89755b31c31611c");
    ("single-send-12", "92a2648c7ebe6a2ec89755b31c31611c");
    ("missing-notify-1", "92a2648c7ebe6a2ec89755b31c31611c");
    ("missing-notify-2", "92a2648c7ebe6a2ec89755b31c31611c");
    ("missing-notify-3", "92a2648c7ebe6a2ec89755b31c31611c");
    ("missing-notify-4", "92a2648c7ebe6a2ec89755b31c31611c");
    ("missing-notify-5", "92a2648c7ebe6a2ec89755b31c31611c");
    ("missing-notify-6", "92a2648c7ebe6a2ec89755b31c31611c");
    ("missing-notify-7", "92a2648c7ebe6a2ec89755b31c31611c");
    ("missing-notify-8", "92a2648c7ebe6a2ec89755b31c31611c");
    ("loop-send-1", "92a2648c7ebe6a2ec89755b31c31611c");
    ("loop-send-2", "92a2648c7ebe6a2ec89755b31c31611c");
    ("loop-send-3", "92a2648c7ebe6a2ec89755b31c31611c");
    ("loop-send-4", "92a2648c7ebe6a2ec89755b31c31611c");
    ("loop-send-5", "92a2648c7ebe6a2ec89755b31c31611c");
    ("loop-send-6", "92a2648c7ebe6a2ec89755b31c31611c");
    ("chan-mutex-1", "92a2648c7ebe6a2ec89755b31c31611c");
    ("chan-mutex-2", "92a2648c7ebe6a2ec89755b31c31611c");
    ("chan-mutex-3", "92a2648c7ebe6a2ec89755b31c31611c");
    ("chan-mutex-4", "92a2648c7ebe6a2ec89755b31c31611c");
    ("double-recv-1", "92a2648c7ebe6a2ec89755b31c31611c");
    ("double-recv-2", "92a2648c7ebe6a2ec89755b31c31611c");
    ("double-recv-3", "92a2648c7ebe6a2ec89755b31c31611c");
    ("waitgroup-1", "92a2648c7ebe6a2ec89755b31c31611c");
    ("waitgroup-2", "92a2648c7ebe6a2ec89755b31c31611c");
    ("waitgroup-3", "92a2648c7ebe6a2ec89755b31c31611c");
    ("waitgroup-4", "92a2648c7ebe6a2ec89755b31c31611c");
    ("waitgroup-5", "92a2648c7ebe6a2ec89755b31c31611c");
    ("timer-1", "92a2648c7ebe6a2ec89755b31c31611c");
    ("timer-2", "92a2648c7ebe6a2ec89755b31c31611c");
    ("timer-3", "92a2648c7ebe6a2ec89755b31c31611c");
    ("nil-chan-1", "08c4f1a0de9337ce54eeed081bad6193");
    ("nil-chan-2", "08c4f1a0de9337ce54eeed081bad6193");
    ("dyn-value-1", "92a2648c7ebe6a2ec89755b31c31611c");
    ("dyn-value-2", "92a2648c7ebe6a2ec89755b31c31611c");
    ("dyn-value-3", "92a2648c7ebe6a2ec89755b31c31611c");
    ("dyn-value-4", "92a2648c7ebe6a2ec89755b31c31611c");
    ("lca-crit-1", "ca61cf8de3d600dc65563da971dd18d7");
    ("lca-crit-2", "ca61cf8de3d600dc65563da971dd18d7");
    ("filler", "fe1da9f5837efc5af1e0c099658e6868");
  ]

let test_pinned_digests jobs () =
  let progs = programs () in
  Alcotest.(check int) "71 programs" 71 (List.length progs);
  List.iter
    (fun (name, sources) ->
      let engine = Gcatch.Passes.engine ~jobs () in
      let r = E.analyse ~only:trad_passes engine ~name sources in
      Alcotest.(check string)
        (Printf.sprintf "%s at jobs %d" name jobs)
        (List.assoc name pinned) (digest r))
    progs

(* ---- one walk per record ---- *)

let mix =
  {|package p
type Q struct {
	mu sync.Mutex
	n int
}
func Upd(q Q, a int) error {
	q.mu.Lock()
	if a < 0 {
		return errorf("neg")
	}
	q.n = q.n + a
	q.mu.Unlock()
	return nil
}
type C struct {
	mu sync.Mutex
	n int
}
func flush(c C) {
	c.mu.Lock()
	c.n = 0
	c.mu.Unlock()
}
func reload(c C) {
	c.mu.Lock()
	flush(c)
	c.mu.Unlock()
}
func run(x int) {
	c := C{n: x}
	reload(c)
}
|}

let test_one_walk_per_record () =
  let engine = Gcatch.Passes.engine () in
  let walks () = E.counter_value engine "stage.lockset.runs" in
  let r1 = E.analyse ~only:trad_passes engine ~name:"mix" [ mix ] in
  Alcotest.(check int) "cold analyse: one walk" 1 (walks ());
  let r2 = E.analyse ~only:trad_passes engine ~name:"mix" [ mix ] in
  Alcotest.(check int) "second analyse: no new walk" 1 (walks ());
  Alcotest.(check string) "same results" (digest r1) (digest r2);
  let kinds r =
    List.map (fun (t : Gcatch.Report.trad_bug) -> t.tkind)
      (Gcatch.Passes.trad_bugs r.E.r_diags)
  in
  Alcotest.(check bool) "findings from the shared walk" true
    (List.mem Gcatch.Report.Forget_unlock (kinds r1)
    && List.mem Gcatch.Report.Double_lock (kinds r1))

(* ---- containment ---- *)

(* A walk that raises on one function degrades that function in each of
   the four lockset passes, and nowhere else: the other functions still
   report, and fatal-child (which does not walk) is clean. *)
let test_walk_fault_contained () =
  let engine = Gcatch.Passes.engine () in
  let a = E.artifacts engine ~name:"mix" [ mix ] in
  let ir = Lazy.force a.E.a_ir in
  (match Goir.Ir.find_func ir "flush" with
  | Some f -> f.blocks.(f.entry).term <- Goir.Ir.Tjump 9999
  | None -> Alcotest.fail "no flush");
  let r = E.analyse ~only:trad_passes engine ~name:"mix" [ mix ] in
  Alcotest.(check int) "one walk" 1
    (E.counter_value engine "stage.lockset.runs");
  List.iter
    (fun (pr : E.pass_run) ->
      let degraded = S.health_get pr.E.pr_metrics S.h_degraded in
      let want = if List.mem pr.E.pr_pass lockset_passes then 1 else 0 in
      Alcotest.(check int) (pr.E.pr_pass ^ " degraded units") want degraded)
    r.E.r_passes;
  Alcotest.(check bool) "Upd's missing unlock still reported" true
    (List.exists
       (fun (t : Gcatch.Report.trad_bug) ->
         t.tkind = Gcatch.Report.Forget_unlock && t.tfunc = "Upd")
       (Gcatch.Passes.trad_bugs r.E.r_diags))

(* ---- pressure ---- *)

(* Under a tripped watchdog the shared walk stops at function
   boundaries: every function is deferred, each checker's boundary
   counts it skipped, and the incomplete walk is not kept on the record.
   Once the pressure is gone the deferred functions are walked on demand
   and the results match an unpressured run. *)
let test_walk_under_pressure () =
  let ir = Pipeline.compile_ir ~name:"mix-pressure" [ mix ] in
  let alias = Goanalysis.Alias.analyse ir in
  let prims = Gcatch.Primitives.collect ir alias in
  let nfuncs = List.length (Goir.Ir.funcs_list ir) in
  let baseline = trad_strs (T.bugs T.missing_unlock (T.walk prims alias ir)) in
  Alcotest.(check bool) "baseline reports" true (baseline <> []);
  List.iter
    (fun (label, arm, clear) ->
      Fun.protect ~finally:clear (fun () ->
          arm ();
          let w = T.walk prims alias ir in
          Alcotest.(check bool) (label ^ ": walk incomplete") false
            (T.complete w);
          let reg = M.create () in
          Alcotest.(check int) (label ^ ": no reports") 0
            (List.length (T.bugs ~metrics:reg T.missing_unlock w));
          let h = S.health_of (M.counters_list reg) in
          Alcotest.(check int) (label ^ ": every function skipped") nfuncs
            (S.health_get h S.h_skipped);
          (* the record does not keep a walk cut short *)
          let engine = Gcatch.Passes.engine () in
          let a = E.artifacts engine ~name:"mix" [ mix ] in
          ignore (Gcatch.Passes.walk_for Goengine.Pool.sequential a);
          clear ();
          ignore (Gcatch.Passes.walk_for Goengine.Pool.sequential a);
          ignore (Gcatch.Passes.walk_for Goengine.Pool.sequential a);
          Alcotest.(check int) (label ^ ": re-walked once after pressure") 2
            (E.counter_value engine "stage.lockset.runs");
          let reg = M.create () in
          Alcotest.(check (list string))
            (label ^ ": deferred functions walked on demand")
            baseline
            (trad_strs (T.bugs ~metrics:reg T.missing_unlock w));
          Alcotest.(check int) (label ^ ": all ok") nfuncs
            (S.health_get (S.health_of (M.counters_list reg)) S.h_ok)))
    [
      ( "deadline",
        (fun () -> S.set_deadline_ms (-1)),
        S.clear_deadline );
      ("heap", (fun () -> S.set_max_heap_mb 0), S.clear_max_heap);
    ]

(* ---- walk order and call-chain summaries ---- *)

(* Pick's two returns hold different locks: the reports follow the
   walk's branch order (then-branch first).  Chain's double lock is
   three calls deep, so the lock summary must propagate through
   callers of callers. *)
let order_src =
  {|package p
type S struct {
	ma sync.Mutex
	mb sync.Mutex
}
func Pick(s S, c bool) int {
	if c {
		s.ma.Lock()
		return 1
	}
	s.mb.Lock()
	return 2
}
func Chain(s S) {
	s.ma.Lock()
	outer(s)
	s.ma.Unlock()
}
func outer(s S) {
	middle(s)
}
func middle(s S) {
	inner(s)
}
func inner(s S) {
	s.ma.Lock()
	s.ma.Unlock()
}
|}

let test_walk_order_and_chains () =
  let engine = Gcatch.Passes.engine () in
  let r = E.analyse ~only:trad_passes engine ~name:"cli" [ order_src ] in
  Alcotest.(check (list string))
    "reports in walk order"
    [
      "missing unlock at cli/file0.go:6:1 in Pick (ext:Pick.s.ma still held \
       at return)";
      "missing unlock at cli/file0.go:6:1 in Pick (ext:Pick.s.mb still held \
       at return)";
      "double lock at cli/file0.go:16:2 in Chain (calls outer which locks \
       ext:Chain.s.ma already held)";
    ]
    (trad_strs (Gcatch.Passes.trad_bugs r.E.r_diags))

(* ---- take-over ---- *)

(* A checker takes over the results of the functions a later walk did
   not walk again only while its whole-program table is the same: here
   [inner] now locks the mutex its caller holds, so [Outer]'s double
   lock appears though [Outer] itself did not change, and the checker
   checks every function again. *)
let summary_src lock =
  Printf.sprintf
    {|package p
type S struct {
	ma sync.Mutex
	mb sync.Mutex
}
func Outer(s S) {
	s.ma.Lock()
	inner(s)
	s.ma.Unlock()
}
func inner(s S) {
	s.%s.Lock()
	s.%s.Unlock()
}
|}
    lock lock

let test_changed_table_rechecks () =
  let facts src =
    let ir = Pipeline.compile_ir ~name:"summary" [ src ] in
    let alias = Goanalysis.Alias.analyse ir in
    let cg = Goanalysis.Callgraph.build ~alias ir in
    (ir, alias, cg, Gcatch.Primitives.collect ir alias)
  in
  let ir1, alias1, cg1, prims1 = facts (summary_src "mb") in
  let w1 = T.walk prims1 alias1 ir1 in
  let before, kept, _ = T.run (T.double_lock cg1) w1 in
  Alcotest.(check (list string)) "no double lock before" [] (trad_strs before);
  let ir2, alias2, cg2, prims2 = facts (summary_src "ma") in
  let w2 = T.walk ~prev:(w1, fun f -> f = "inner") prims2 alias2 ir2 in
  Alcotest.(check int) "only inner walked again" 1 (T.walked w2);
  let after, _, checked =
    T.run ~prior:(kept, Option.get (T.delta w2)) (T.double_lock cg2) w2
  in
  Alcotest.(check int) "every function checked" 2 checked;
  Alcotest.(check (list string)) "as a fresh run"
    (trad_strs (T.bugs (T.double_lock cg2) (T.walk prims2 alias2 ir2)))
    (trad_strs after);
  Alcotest.(check bool) "Outer's double lock found" true (after <> [])

let tests =
  [
    Alcotest.test_case "pinned digests jobs 1" `Slow (test_pinned_digests 1);
    Alcotest.test_case "pinned digests jobs 4" `Slow (test_pinned_digests 4);
    Alcotest.test_case "one lockset walk per record" `Quick
      test_one_walk_per_record;
    Alcotest.test_case "walk order and call-chain summaries" `Quick
      test_walk_order_and_chains;
    Alcotest.test_case "walk fault contained to lockset passes" `Quick
      test_walk_fault_contained;
    Alcotest.test_case "walk stops at function boundaries under pressure"
      `Quick test_walk_under_pressure;
    Alcotest.test_case "a changed table checks every function again" `Quick
      test_changed_table_rechecks;
  ]
