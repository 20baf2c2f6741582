(* Test entry point: every suite registered with alcotest.  Run with
   `dune runtest`; the `Slow` corpus suites run by default too (they take
   a few seconds each). *)

let () =
  Alcotest.run "gocatch"
    [
      ("lexer", Suite_lexer.tests);
      ("parser", Suite_parser.tests);
      ("typecheck", Suite_typecheck.tests);
      ("ir", Suite_ir.tests);
      ("analysis", Suite_analysis.tests);
      ("smt", Suite_smt.tests);
      ("runtime", Suite_runtime.tests);
      ("engine", Suite_engine.tests);
      ("faults", Suite_faults.tests);
      ("frontend", Suite_frontend.tests);
      ("obs", Suite_obs.tests);
      ("parallel", Suite_parallel.tests);
      ("sched", Suite_sched.tests);
      ("detector", Suite_detector.tests);
      ("trad", Suite_trad.tests);
      ("cutoff", Suite_cutoff.tests);
      ("nonblocking", Suite_nonblocking.tests);
      ("differential", Suite_differential.tests);
      ("waitgroup", Suite_waitgroup.tests);
      ("pathenum", Suite_pathenum.tests);
      ("cache", Suite_cache.tests);
      ("cond", Suite_cond.tests);
      ("serve", Suite_serve.tests);
      ("crash", Suite_crash.tests);
      ("gfix", Suite_gfix.tests);
      ("corpus", Suite_corpus.tests);
    ]
