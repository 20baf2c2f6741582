(* Diagnostics must be byte-identical whatever the job count.

     jobs_determinism.exe GCATCH FIG1.go BMOC_MIX.go TRAD_MIX.go

   Runs [GCATCH --jobs J --json PROG] for J = 1 and 4 on each program
   and compares the top-level diagnostics arrays.  fig1 exercises BMOC
   (one finding), bmoc_mix.go (a copy of the gin corpus app) makes ~170
   solver calls with no finding, and trad_mix.go triggers each of the
   five traditional checkers once: all five must appear in its
   diagnostics. *)

let jobs = [ "1"; "4" ]

let trad_passes = [ "missing-unlock"; "double-lock"; "lock-order"; "field-race"; "fatal-child" ]

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("jobs determinism: " ^ s); exit 1) fmt

(* gcatch's stdout; exit 0 (clean) and 1 (findings) are both answers *)
let run exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED (0 | 1) -> out
  | Unix.WEXITED n -> fail "%s exited %d" (String.concat " " args) n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> fail "%s killed by signal %d" (String.concat " " args) n

let find_from s i needle =
  let nl = String.length needle in
  let rec go i =
    if i + nl > String.length s then None
    else if String.sub s i nl = needle then Some i
    else go (i + 1)
  in
  go i

(* The whole top-level ["diagnostics"] array, brackets matched outside
   strings. *)
let diagnostics s =
  let key = {|"diagnostics":[|} in
  match find_from s 0 key with
  | None -> None
  | Some i ->
      let start = i + String.length key - 1 in
      let depth = ref 0 and in_str = ref false and escaped = ref false and stop = ref (-1) in
      let j = ref start in
      while !stop < 0 && !j < String.length s do
        let c = s.[!j] in
        (if !escaped then escaped := false
         else if !in_str then (
           match c with '\\' -> escaped := true | '"' -> in_str := false | _ -> ())
         else
           match c with
           | '"' -> in_str := true
           | '[' | '{' -> incr depth
           | ']' | '}' ->
               decr depth;
               if !depth = 0 then stop := !j
           | _ -> ());
        incr j
      done;
      if !stop < 0 then None else Some (String.sub s start (!stop - start + 1))

let () =
  match Array.to_list Sys.argv with
  | [ _; exe; fig1; bmoc_mix; trad_mix ] ->
      List.iter
        (fun prog ->
          let diags =
            List.map
              (fun j ->
                match diagnostics (run exe [ "--jobs"; j; "--json"; prog ]) with
                | Some d -> (j, d)
                | None -> fail "%s --jobs %s: no diagnostics array" prog j)
              jobs
          in
          let j1, d1 = List.hd diags in
          List.iter
            (fun (j, d) ->
              if d <> d1 then
                fail "%s: diagnostics differ between --jobs %s and --jobs %s:\n%s\n%s" prog j1 j
                  d1 d)
            diags;
          if prog = trad_mix then
            List.iter
              (fun p ->
                if find_from d1 0 (Printf.sprintf {|"pass":"trad.%s"|} p) = None then
                  fail "%s: no trad.%s diagnostic" prog p)
              trad_passes)
        [ fig1; bmoc_mix; trad_mix ]
  | _ ->
      prerr_endline "usage: jobs_determinism GCATCH FIG1.go BMOC_MIX.go TRAD_MIX.go";
      exit 2
