(* Validate gcatch --json output: structurally well-formed JSON (quotes
   and brace/bracket nesting balance) and the fields the schema
   promises, including at least one bmoc diagnostic for the Figure-1
   input the dune rule feeds it.  Given a second output, also check that
   both carry the same diagnostics array. *)

let read_all path = In_channel.with_open_bin path In_channel.input_all

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let balanced (s : string) : bool =
  let depth = ref 0 and in_str = ref false and escaped = ref false in
  let ok = ref true in
  String.iter
    (fun c ->
      if !escaped then escaped := false
      else if !in_str then (
        match c with
        | '\\' -> escaped := true
        | '"' -> in_str := false
        | _ -> ())
      else
        match c with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
            decr depth;
            if !depth < 0 then ok := false
        | _ -> ())
    s;
  !ok && !depth = 0 && not !in_str

(* The ["diagnostics"] array up to its first closing bracket, as CI's
   [grep -o '"diagnostics":\[[^]]*\]'] cuts it. *)
let diagnostics (s : string) : string option =
  let key = {|"diagnostics":[|} in
  let kl = String.length key in
  let rec find i =
    if i + kl > String.length s then None
    else if String.sub s i kl = key then
      Option.map (fun j -> String.sub s i (j + 1 - i)) (String.index_from_opt s i ']')
    else find (i + 1)
  in
  find 0

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt

let () =
  let path = Sys.argv.(1) in
  let j = String.trim (read_all path) in
  if String.length j = 0 then fail "empty output";
  if j.[0] <> '{' then fail "output is not a JSON object";
  if not (balanced j) then fail "unbalanced JSON structure";
  List.iter
    (fun needle ->
      if not (contains ~needle j) then fail "missing %s" needle)
    [
      {|"frontend_ok":true|};
      {|"diagnostics":[|};
      {|"pass":"bmoc"|};
      {|"severity":"error"|};
      {|"loc":{"file":|};
      {|"passes":[|};
      {|"bmoc.solver_calls"|};
    ];
  (if Array.length Sys.argv > 2 then
     let other = read_all Sys.argv.(2) in
     match (diagnostics j, diagnostics other) with
     | Some a, Some b when a = b -> ()
     | _ -> fail "diagnostics differ from %s" Sys.argv.(2));
  print_endline "gcatch --json smoke test OK"
