(* How the suites run GCatch: the engine's pass registry
   ({!Gcatch.Passes}) over one source set, with the typed reports
   recovered from the diagnostics' payloads. *)

module E = Goengine.Engine
module P = Gcatch.Passes

(* Shared by every analysis under the default detector configuration,
   so a source set analysed twice compiles once. *)
let default_engine = lazy (P.engine ())

type t = {
  run : E.run;
  source : Minigo.Ast.program; (* type-checked: what GFix patches *)
  bmoc : Gcatch.Report.bmoc_bug list;
  trad : Gcatch.Report.trad_bug list;
}

(* The default passes (BMOC and the five traditional checkers), on
   [engine] if given.  Otherwise a [cfg] or [jobs] other than the
   defaults gets a fresh engine. *)
let analyse ?engine ?cfg ?(jobs = 1) ~name sources : t =
  let engine =
    match engine with
    | Some e -> e
    | None when cfg = None && jobs = 1 -> Lazy.force default_engine
    | None -> P.engine ?cfg ~jobs ()
  in
  let run = E.analyse engine ~name sources in
  match run.E.r_artifacts with
  | None -> Alcotest.failf "%s: frontend failed" name
  | Some a ->
      {
        run;
        source = Lazy.force a.E.a_typed;
        bmoc = P.bmoc_bugs run.E.r_diags;
        trad = P.trad_bugs run.E.r_diags;
      }

(* The lowered IR alone. *)
let compile_ir ~name sources : Goir.Ir.program =
  Lazy.force (E.artifacts (Lazy.force default_engine) ~name sources).E.a_ir

(* [sources] with a channel-free file appended: analysed again on the
   same engine, it is a new record with no predecessor to take outcomes
   over from, whose channels all look their verdicts up in the engine's
   solve tier (the files before it keep their names and program points,
   so the fingerprints are the same). *)
let with_empty_file sources = sources @ [ "package p\n" ]

(* The run's "bmoc.*" counters: the detector statistics, which a
   solve-cache hit replays exactly. *)
let bmoc_counters (r : E.run) : (string * int) list =
  List.concat_map
    (fun pr ->
      List.filter
        (fun (k, _) -> String.starts_with ~prefix:"bmoc." k)
        pr.E.pr_metrics)
    r.E.r_passes

(* [n] functions with one channel each, every odd-numbered one leaking
   its sender: independent BMOC roots for fan-out tests. *)
let multi_chan n =
  "package p\n"
  ^ String.concat ""
      (List.init n (fun i ->
           Printf.sprintf
             "func f%d() {\n\tc := make(chan int)\n\tgo func() {\n\t\tc <- %d\n\t}()\n%s}\n"
             i i
             (if i mod 2 = 0 then "\t<-c\n" else "")))
