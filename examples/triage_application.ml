(* Triage a whole synthetic application the way the paper's authors
   triaged Docker / Kubernetes reports: run the full GCatch pipeline on
   one of the 21 corpus applications, group reports by detector, and
   compare against the seeded ground truth.

   Run with:  dune exec examples/triage_application.exe [app-name]
   (default app: etcd) *)

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "etcd" in
  match Gocorpus.Apps.find name with
  | None ->
      Goobs.Log.error
        ~kv:
          [
            ( "available",
              String.concat ", "
                (List.map
                   (fun (s : Gocorpus.Apps.spec) -> s.name)
                   Gocorpus.Apps.specs) );
          ]
        (Printf.sprintf "unknown application %s" name);
      exit 2
  | Some app ->
      Printf.printf "== %s: %d lines of MiniGo, %d seeded labels ==\n\n"
        app.spec.name app.loc
        (List.length app.truth);
      let score =
        Goreport.Score.score_app ~engine:(Gcatch.Passes.engine ()) app
      in
      Printf.printf "analysis time: %.2fs\n\n" score.elapsed_s;

      print_endline "-- BMOC detector --";
      List.iter
        (fun (b : Gcatch.Report.bmoc_bug) ->
          let cls =
            match Goreport.Score.classify_bmoc app.truth b with
            | Goreport.Score.TP _ -> "TRUE BUG "
            | Goreport.Score.FP_expected -> "FP (bait)"
            | Goreport.Score.FP_unexpected -> "FP (!!)  "
          in
          Printf.printf "  [%s] %s\n" cls (Gcatch.Report.bmoc_str b))
        score.bmoc;

      print_endline "\n-- traditional checkers --";
      List.iter
        (fun (t : Gcatch.Report.trad_bug) ->
          let cls =
            match Goreport.Score.classify_trad app.truth t with
            | Goreport.Score.TP _ -> "TRUE BUG"
            | _ -> "FP      "
          in
          Printf.printf "  [%s] %s\n" cls (Gcatch.Report.trad_str t))
        score.trad_bugs;

      print_endline "\n-- GFix --";
      List.iter
        (fun ((b : Gcatch.Report.bmoc_bug), outcome) ->
          match outcome with
          | Gcatch.Gfix.Fixed f ->
              Printf.printf "  fixed   %-22s %s (%d lines)\n"
                (Goanalysis.Alias.obj_str b.channel)
                (Gcatch.Gfix.strategy_str f.strategy)
                f.changed_lines
          | Gcatch.Gfix.Not_fixed r ->
              Printf.printf "  skipped %-22s %s\n"
                (Goanalysis.Alias.obj_str b.channel)
                r)
        score.fix_details;

      Printf.printf
        "\nsummary: BMOC %d true / %d false-positive; seeded %d, recalled %d; \
         patches S1=%d S2=%d S3=%d, unfixed %d\n"
        (score.bmoc_c_tp + score.bmoc_m_tp)
        (score.bmoc_c_fp + score.bmoc_m_fp)
        score.seeded_bmoc score.found_bmoc score.fixed_s1 score.fixed_s2
        score.fixed_s3 score.unfixed
