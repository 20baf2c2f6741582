(* Source lints: each one names substrings that must not appear in the
   OCaml sources (.ml, .mli) under some directories of the repository,
   with the paths it exempts.  Run from the repository root (the dune
   rule does); prints every offending line as "path:line:text" under the
   lint's reason and exits 1 if there is any. *)

type lint = {
  name : string;
  reason : string;
  dirs : string list;
  exempt : string -> bool;
  needles : string list;
}

let lints =
  [
    (* a top-level lazy forced from two pool domains at once raises
       CamlinternalLazy.Undefined *)
    {
      name = "No lazily cached metric handles";
      reason = "look metric handles up per use, not in a top-level lazy";
      dirs = [ "lib"; "bin" ];
      exempt = (fun _ -> false);
      needles =
        [
          "lazy (M.counter";
          "lazy (M.histogram";
          "lazy (Goobs.Metrics.counter";
          "lazy (Goobs.Metrics.histogram";
        ];
    };
    (* an assembled program shares the blocks of the files an edit left
       unchanged with its predecessor's program (test/suite_trad.ml
       corrupts a private program on purpose and is not scanned) *)
    {
      name = "IR blocks are written only by lowering";
      reason = "write IR blocks only in lib/ir/lower.ml: assembled programs share them";
      dirs = [ "lib"; "bin"; "bench"; "examples"; "perfbench" ];
      exempt = (fun path -> path = "lib/ir/lower.ml");
      needles = [ ".insts <-"; ".term <-"; ".term_loc <-" ];
    };
    (* the token-list entry points exist for tests and perfbench's
       per-layer replay *)
    {
      name = "Frontend streams tokens (no token list on the analysis path)";
      reason = "parse with Parser.parse_file: the analysis path builds no token list";
      dirs = [ "lib"; "bin" ];
      exempt = String.starts_with ~prefix:"lib/minigo/";
      needles = [ "Lexer.tokenize"; "Parser.parse_tokens" ];
    };
    (* GFix counts a patch's changed lines on the one function it
       rewrote (bin/gfix_cli prints the final patched program and is not
       scanned) *)
    {
      name = "GFix diffs functions, not programs";
      reason = "diff Pretty.func_str of the rewritten function, not the whole program";
      dirs = [ "lib" ];
      exempt = (fun _ -> false);
      needles = [ "Pretty.program_str" ];
    };
  ]

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* The OCaml sources under [dir], sorted; build directories (".objs"
   and the like) are skipped. *)
let rec sources dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.concat_map (fun n ->
         let path = Filename.concat dir n in
         if n.[0] = '.' then []
         else if Sys.is_directory path then sources path
         else if Filename.check_suffix n ".ml" || Filename.check_suffix n ".mli"
         then [ path ]
         else [])

let offences lint =
  List.concat_map sources lint.dirs
  |> List.filter (fun path -> not (lint.exempt path))
  |> List.concat_map (fun path ->
         In_channel.with_open_bin path In_channel.input_lines
         |> List.mapi (fun i line -> (i + 1, line))
         |> List.filter (fun (_, line) ->
                List.exists (fun needle -> contains ~needle line) lint.needles)
         |> List.map (fun (n, line) -> Printf.sprintf "%s:%d:%s" path n line))

let () =
  let failed =
    List.filter
      (fun lint ->
        match offences lint with
        | [] -> false
        | lines ->
            Printf.eprintf "lint %S failed: %s\n" lint.name lint.reason;
            List.iter prerr_endline lines;
            true)
      lints
  in
  if failed <> [] then exit 1;
  Printf.printf "%d source lints OK\n" (List.length lints)
