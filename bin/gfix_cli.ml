(* gfix — detect BMOC bugs and print a patched program.

     gfix file.go                 # print the patched source
     gfix --validate file.go      # additionally run both versions under
                                  # many schedules and compare leaks

   GFix rides on the staged analysis engine: one [Engine.t] compiles
   the sources and runs the BMOC pass; the typed AST it needs for
   patching comes from the same cached artifacts, so preprocessing is
   shared with detection instead of re-run (the paper's §5.3 point that
   ~98% of GFix time is preprocessing). *)

open Cmdliner
module E = Goengine.Engine
module D = Goengine.Diagnostics
module Log = Goobs.Log

(* Read to end of file, not by length: a pipe or /dev/stdin has none. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let run_checked files validate jobs journal log_json =
  (* gfix narrates its per-bug outcomes by design: default to info-level
     logging unless the user set GCATCH_LOG themselves *)
  if Sys.getenv_opt "GCATCH_LOG" = None then Log.set_level Log.Info;
  if log_json then Log.set_format Log.Json;
  (match journal with
  | None -> ()
  | Some path ->
      Goobs.Journal.open_ ~path;
      at_exit Goobs.Journal.close);
  if files = [] then (
    Log.error "no input files";
    exit 2);
  let sources = List.map read_file files in
  let engine = Gcatch.Passes.engine ~cfg:Gcatch.Bmoc.default_config ~jobs () in
  let r = E.analyse ~only:[ "bmoc" ] engine ~name:"cli" sources in
  if E.frontend_failed r then begin
    List.iter (fun d -> prerr_endline (D.render_human d)) r.E.r_diags;
    exit 2
  end;
  let artifacts = Option.get r.E.r_artifacts in
  let source = Lazy.force artifacts.E.a_typed in
  let bmoc = Gcatch.Passes.bmoc_bugs r.E.r_diags in
  let fixes = Gcatch.Gfix.fix_all source bmoc in
  List.iter
    (fun (_bug, outcome) ->
      match outcome with
      | Gcatch.Gfix.Fixed f ->
          Log.info
            ~kv:
              [
                ("strategy", Gcatch.Gfix.strategy_str f.strategy);
                ("changed_lines", string_of_int f.changed_lines);
              ]
            (Printf.sprintf "fixed: %s" f.description)
      | Gcatch.Gfix.Not_fixed reason ->
          Log.info (Printf.sprintf "not fixed: %s" reason))
    fixes;
  (* Multiple bugs in one file compose: re-analyse and fix to a fixpoint. *)
  let final = Gcatch.Gfix.fix_to_fixpoint source fixes in
  print_string (Minigo.Pretty.program_str final);
  if validate && Minigo.Ast.find_func source "main" <> None then begin
    let seeds = 30 in
    let _, leaks_before, _, _ = Goruntime.Interp.run_schedules ~seeds source in
    let _, leaks_after, _, _ = Goruntime.Interp.run_schedules ~seeds final in
    Log.info
      ~kv:
        [
          ("leaked_before", Printf.sprintf "%d/%d" leaks_before seeds);
          ("leaked_after", Printf.sprintf "%d/%d" leaks_after seeds);
        ]
      "schedule validation"
  end

(* No raw exception may escape to the runtime's default handler: route
   everything through the structured log with the documented exit 3. *)
let run files validate jobs journal log_json =
  try run_checked files validate jobs journal log_json
  with e ->
    Log.error ~kv:[ ("exception", Printexc.to_string e) ] "internal error";
    exit 3

let files_arg =
  Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"MiniGo source files")

let validate_arg =
  Arg.(
    value & flag
    & info [ "validate" ]
        ~doc:"Run the original and patched programs under many schedules")

let jobs_arg =
  Arg.(
    value
    & opt int (Goengine.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Fan the detection pass out over $(docv) domains (default: the \
           GCATCH_JOBS environment variable or the hardware's recommended \
           domain count). The patched output is identical for every N.")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"PATH"
        ~doc:
          "Append the run's JSONL event journal to $(docv) (same schema as \
           gcatch's $(b,--journal); summarise with $(b,gcatch report))")

let log_json_arg =
  Arg.(
    value & flag
    & info [ "log-json" ]
        ~doc:
          "Emit each log line as one JSON object (ts_ms, level, msg, plus \
           key=value fields) instead of the human text format")

let exits =
  [
    Cmd.Exit.info 0 ~doc:"patched program printed.";
    Cmd.Exit.info 2
      ~doc:"usage error: bad command line, no input files, or frontend errors.";
    Cmd.Exit.info 3 ~doc:"internal error.";
  ]

let cmd =
  Cmd.v
    (Cmd.info "gfix" ~doc:"Automatically patch BMOC bugs" ~exits)
    Term.(
      const run $ files_arg $ validate_arg $ jobs_arg $ journal_arg
      $ log_json_arg)

let () =
  let code = Cmd.eval cmd in
  exit
    (if code = Cmd.Exit.cli_error then 2
     else if code = Cmd.Exit.internal_error then 3
     else code)
