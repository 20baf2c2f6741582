(* minigo-run — execute a MiniGo program on the effects-based runtime.

     minigo-run file.go                  # run main() once
     minigo-run --seeds 50 file.go       # explore 50 schedules, report leaks
     minigo-run --entry TestFoo file.go  # run another entry point *)

open Cmdliner

(* Read to end of file, not by length: a pipe or /dev/stdin has none. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let run files seeds entry =
  if files = [] then (
    Goobs.Log.error "no input files";
    exit 2);
  let sources = List.map read_file files in
  let prog =
    Minigo.Typecheck.check_program (Minigo.Parser.parse_program ~name:"run" sources)
  in
  if seeds <= 1 then begin
    let r = Goruntime.Interp.run ~entry prog in
    List.iter print_endline r.output;
    List.iter
      (fun (gid, name, reason, loc) ->
        Printf.printf "LEAK: goroutine %d (%s) blocked on %s at %s\n" gid name
          reason (Minigo.Loc.to_string loc))
      r.leaked;
    List.iter (fun (gid, m) -> Printf.printf "PANIC in goroutine %d: %s\n" gid m) r.panics;
    Printf.printf "%d steps, %d goroutines, %d completed%s\n" r.steps r.spawned
      r.completed
      (if r.fuel_exhausted then " (fuel exhausted)" else "");
    if r.leaked <> [] then exit 1
  end
  else begin
    let n, leaks, max_steps, _ = Goruntime.Interp.run_schedules ~seeds ~entry prog in
    Printf.printf "%d/%d schedules leaked a goroutine (max %d steps)\n" leaks n
      max_steps;
    if leaks > 0 then exit 1
  end

let files_arg =
  Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"MiniGo source files")

let seeds_arg =
  Arg.(value & opt int 1 & info [ "seeds" ] ~doc:"Number of schedules to explore")

let entry_arg =
  Arg.(value & opt string "main" & info [ "entry" ] ~doc:"Entry function")

let cmd =
  Cmd.v
    (Cmd.info "minigo-run" ~doc:"Run MiniGo programs on the goroutine scheduler")
    Term.(const run $ files_arg $ seeds_arg $ entry_arg)

let () = exit (Cmd.eval cmd)
