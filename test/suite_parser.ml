(* Parser tests: every construct of MiniGo, plus pretty-printer round
   trips (parse . print . parse is a fixpoint on rendered text). *)

module A = Minigo.Ast

let parse src = Minigo.Parser.parse_string ~file:"t.go" src

let parse_fn src =
  match parse ("package p\n" ^ src) with
  | [ file ] -> (
      match A.funcs_of_file file with
      | fd :: _ -> fd
      | [] -> Alcotest.fail "no function parsed")
  | _ -> Alcotest.fail "expected one file"

let body_kinds (fd : A.func_decl) =
  List.map
    (fun (s : A.stmt) ->
      match s.s with
      | A.Decl _ -> "decl"
      | A.Define _ -> "define"
      | A.Assign _ -> "assign"
      | A.ExprStmt _ -> "expr"
      | A.Send _ -> "send"
      | A.CloseStmt _ -> "close"
      | A.Go _ -> "go"
      | A.GoFuncLit _ -> "gofunc"
      | A.If _ -> "if"
      | A.For _ -> "for"
      | A.Select _ -> "select"
      | A.Return _ -> "return"
      | A.DeferStmt _ -> "defer"
      | A.Break -> "break"
      | A.Continue -> "continue"
      | A.Panic _ -> "panic"
      | A.BlockStmt _ -> "block"
      | A.IncDec _ -> "incdec")
    fd.body

let test_empty_func () =
  let fd = parse_fn "func f() {}" in
  Alcotest.(check string) "name" "f" fd.fname;
  Alcotest.(check int) "no params" 0 (List.length fd.params);
  Alcotest.(check int) "empty body" 0 (List.length fd.body)

let test_params_and_results () =
  let fd = parse_fn "func g(x int, s string) (int, error) { return x, nil }" in
  Alcotest.(check int) "two params" 2 (List.length fd.params);
  Alcotest.(check int) "two results" 2 (List.length fd.results);
  Alcotest.(check string) "param name" "x" (List.nth fd.params 0).pname

let test_make_chan () =
  let fd = parse_fn "func f() {\n\tc := make(chan int)\n\td := make(chan string, 4)\n\t_ = c\n\t_ = d\n}" in
  match (List.nth fd.body 0).s with
  | A.Define ([ "c" ], { e = A.MakeChan (A.Tint, None); _ }) -> (
      match (List.nth fd.body 1).s with
      | A.Define ([ "d" ], { e = A.MakeChan (A.Tstring, Some { e = A.Int 4; _ }); _ })
        ->
          ()
      | _ -> Alcotest.fail "buffered make")
  | _ -> Alcotest.fail "unbuffered make"

let test_send_recv () =
  let fd = parse_fn "func f(c chan int) {\n\tc <- 1\n\tx := <-c\n\t<-c\n\t_ = x\n}" in
  Alcotest.(check (list string)) "kinds" [ "send"; "define"; "expr"; "assign" ]
    (body_kinds fd)

let test_select () =
  let fd =
    parse_fn
      "func f(a chan int, b chan int) int {\n\
       \tselect {\n\
       \tcase v := <-a:\n\
       \t\treturn v\n\
       \tcase b <- 1:\n\
       \t\treturn 0\n\
       \tdefault:\n\
       \t\treturn -1\n\
       \t}\n\
       \treturn -2\n\
       }"
  in
  match (List.hd fd.body).s with
  | A.Select (cases, Some dflt) ->
      Alcotest.(check int) "two cases" 2 (List.length cases);
      Alcotest.(check int) "default body" 1 (List.length dflt);
      (match List.nth cases 0 with
      | A.CaseRecv (Some "v", false, _, _) -> ()
      | _ -> Alcotest.fail "recv case binding");
      (match List.nth cases 1 with
      | A.CaseSend (_, { e = A.Int 1; _ }, _) -> ()
      | _ -> Alcotest.fail "send case")
  | _ -> Alcotest.fail "expected select"

let test_select_recv_ok () =
  let fd =
    parse_fn
      "func f(a chan int) {\n\tselect {\n\tcase v, ok := <-a:\n\t\t_ = v\n\t\t_ = ok\n\t}\n}"
  in
  match (List.hd fd.body).s with
  | A.Select ([ A.CaseRecv (Some "v", true, _, _) ], None) -> ()
  | _ -> Alcotest.fail "expected v, ok := <-a case"

let test_go_literal () =
  let fd = parse_fn "func f() {\n\tgo func(x int) {\n\t\tprintln(x)\n\t}(3)\n}" in
  match (List.hd fd.body).s with
  | A.GoFuncLit ([ { pname = "x"; ptyp = A.Tint } ], [ _ ], [ { e = A.Int 3; _ } ]) ->
      ()
  | _ -> Alcotest.fail "expected goroutine literal"

let test_go_named () =
  let fd = parse_fn "func f() {\n\tgo g(1, 2)\n}" in
  match (List.hd fd.body).s with
  | A.Go { callee = A.Fname "g"; args = [ _; _ ] } -> ()
  | _ -> Alcotest.fail "expected go g(1, 2)"

let test_defer_forms () =
  let fd =
    parse_fn
      "func f(c chan int) {\n\
       \tdefer close(c)\n\
       \tdefer c <- 1\n\
       \tdefer g()\n\
       \tdefer func() {\n\t\tprintln(1)\n\t}()\n\
       }"
  in
  let forms =
    List.map
      (fun (s : A.stmt) ->
        match s.s with
        | A.DeferStmt (A.DeferClose _) -> "close"
        | A.DeferStmt (A.DeferSend _) -> "send"
        | A.DeferStmt (A.DeferCall _) -> "call"
        | A.DeferStmt (A.DeferFuncLit _) -> "lit"
        | _ -> "?")
      fd.body
  in
  Alcotest.(check (list string)) "defer forms" [ "close"; "send"; "call"; "lit" ] forms

let test_for_forms () =
  let fd =
    parse_fn
      "func f(n int, c chan int) {\n\
       \tfor {\n\t\tbreak\n\t}\n\
       \tfor n > 0 {\n\t\tn--\n\t}\n\
       \tfor i := 0; i < n; i++ {\n\t\tprintln(i)\n\t}\n\
       \tfor j := range n {\n\t\tprintln(j)\n\t}\n\
       \tfor v := range c {\n\t\tprintln(v)\n\t}\n\
       }"
  in
  let forms =
    List.map
      (fun (s : A.stmt) ->
        match s.s with
        | A.For (A.ForEver, _) -> "ever"
        | A.For (A.ForCond _, _) -> "cond"
        | A.For (A.ForClassic _, _) -> "classic"
        | A.For (A.ForRangeInt _, _) -> "rangeint"
        | A.For (A.ForRangeChan _, _) -> "rangechan"
        | _ -> "?")
      fd.body
  in
  (* before type checking, `for x := range e` parses as rangeint *)
  Alcotest.(check (list string)) "for forms"
    [ "ever"; "cond"; "classic"; "rangeint"; "rangeint" ]
    forms

let test_if_else_chain () =
  let fd =
    parse_fn
      "func f(x int) int {\n\
       \tif x > 2 {\n\t\treturn 2\n\t} else if x > 1 {\n\t\treturn 1\n\t} else {\n\
       \t\treturn 0\n\t}\n\
       }"
  in
  match (List.hd fd.body).s with
  | A.If (_, _, Some [ { s = A.If (_, _, Some _); _ } ]) -> ()
  | _ -> Alcotest.fail "expected else-if chain"

let test_struct_decl_and_lit () =
  let prog =
    parse
      "package p\n\
       type Point struct {\n\tx int\n\ty int\n}\n\
       func f() Point {\n\treturn Point{x: 1, y: 2}\n}"
  in
  let file = List.hd prog in
  match A.structs_of_file file with
  | [ sd ] ->
      Alcotest.(check string) "struct name" "Point" sd.struct_name;
      Alcotest.(check int) "two fields" 2 (List.length sd.fields)
  | _ -> Alcotest.fail "expected one struct"

let test_method_calls () =
  let fd = parse_fn "func f(mu sync.Mutex) {\n\tmu.Lock()\n\tmu.Unlock()\n}" in
  match body_kinds fd with
  | [ "expr"; "expr" ] -> ()
  | ks -> Alcotest.failf "unexpected kinds %s" (String.concat "," ks)

let test_precedence () =
  let fd = parse_fn "func f(a int, b int, c int) bool {\n\treturn a + b * c == a && b < c\n}" in
  match (List.hd fd.body).s with
  | A.Return [ { e = A.Binop (A.And, _, _); _ } ] -> ()
  | _ -> Alcotest.fail "&& should bind loosest"

let test_multi_define () =
  let fd = parse_fn "func f(c chan int) {\n\tv, ok := <-c\n\t_ = v\n\t_ = ok\n}" in
  match (List.hd fd.body).s with
  | A.Define ([ "v"; "ok" ], { e = A.Recv _; _ }) -> ()
  | _ -> Alcotest.fail "expected v, ok := <-c"

let test_imports_skipped () =
  let prog =
    parse "package p\nimport \"fmt\"\nimport (\n\t\"sync\"\n\t\"time\"\n)\nfunc f() {}"
  in
  Alcotest.(check int) "one func" 1 (List.length (A.funcs_of_program prog))

let test_parse_error () =
  match parse "package p\nfunc f( {}" with
  | exception Minigo.Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected parse error"

(* round trip: printing a parsed program and re-parsing yields identical
   re-printed text *)
let roundtrip_stable src =
  let p1 = parse src in
  let printed = Minigo.Pretty.program_str p1 in
  let p2 = Minigo.Parser.parse_string ~file:"t.go" printed in
  let printed2 = Minigo.Pretty.program_str p2 in
  Alcotest.(check string) "pretty fixpoint" printed printed2

let test_roundtrip_figure1 () =
  roundtrip_stable
    "package p\n\
     func Exec(ctx context.Context, reader string) (string, error) {\n\
     \toutDone := make(chan error)\n\
     \tgo func(a string) {\n\t\toutDone <- nil\n\t}(reader)\n\
     \tselect {\n\
     \tcase err := <-outDone:\n\t\treturn \"\", err\n\
     \tcase <-ctx.Done():\n\t\treturn \"\", ctx.Err()\n\
     \t}\n\
     \treturn \"ok\", nil\n\
     }"

let test_roundtrip_corpus () =
  (* every corpus application must round trip *)
  List.iter
    (fun (app : Gocorpus.Apps.app) ->
      List.iter (fun src -> roundtrip_stable src) app.sources)
    [ Option.get (Gocorpus.Apps.find "bbolt"); Option.get (Gocorpus.Apps.find "grpc") ]

(* ------------------------------------------ streaming vs token list *)

module L = Minigo.Lexer
module P = Minigo.Parser

(* The streaming parser and the token-list parser on one file: the same
   tree, or the same exception. *)
let both ~file src =
  let run f =
    match f () with
    | a -> Ok a
    | exception ((P.Parse_error _ | L.Lex_error _) as e) -> Error e
  in
  ( run (fun () -> P.parse_file ~file src),
    run (fun () -> P.parse_tokens ~file (L.tokenize ~file src)) )

let check_same ~file src =
  let streamed, listed = both ~file src in
  if streamed <> listed then Alcotest.failf "%s: parse_file <> parse_tokens" file

let check_error ~file src expected =
  let streamed, listed = both ~file src in
  let show = function
    | Ok _ -> "a tree"
    | Error (P.Parse_error (m, loc)) ->
        "parse error: " ^ m ^ " at " ^ Minigo.Loc.to_string loc
    | Error (L.Lex_error (m, loc)) ->
        "lex error: " ^ m ^ " at " ^ Minigo.Loc.to_string loc
    | Error e -> Printexc.to_string e
  in
  Alcotest.(check string) "streamed" (show (Error expected)) (show streamed);
  Alcotest.(check string) "token list" (show (Error expected)) (show listed)

let at line col = Minigo.Loc.make ~file:"t.go" ~line ~col

(* a lex error anywhere in a file wins over an earlier parse error *)
let test_lex_error_wins () =
  check_error ~file:"t.go" "package p\nfunc f( {\n}\nfunc g() {\n\tx := a @ b\n}\n"
    (L.Lex_error ("unexpected character '@'", at 5 9));
  (* with nothing malformed after it, the parse error stands *)
  check_error ~file:"t.go" "package p\nfunc f( {\n}\n"
    (P.Parse_error ("expected identifier, found '{'", at 2 9))

let test_unterminated_at_eof () =
  check_error ~file:"t.go" "package p\nfunc f() {\n\ts := \"abc"
    (L.Lex_error ("unterminated string literal", at 3 7));
  check_error ~file:"t.go" "package p\nfunc f() {\n\ts := \"abc\\"
    (L.Lex_error ("unterminated escape", at 3 7));
  check_error ~file:"t.go" "package p\nfunc f() {}\n/* open\n\n"
    (L.Lex_error ("unterminated block comment", at 3 1));
  (* a block still open at the end is a parse error at the end *)
  check_error ~file:"t.go" "package p\nfunc f() {\n\tx := 1\n"
    (P.Parse_error ("unexpected end of file inside block", at 4 1))

(* past the last token the parser sees EOF at [Loc.none] *)
let test_error_after_eof () =
  let toks =
    List.filter
      (fun (ti : L.token_info) -> ti.tok <> Minigo.Token.EOF)
      (L.tokenize ~file:"t.go" "package p\nfunc f() {")
  in
  Alcotest.check_raises "no EOF token"
    (P.Parse_error ("unexpected end of file inside block", Minigo.Loc.none))
    (fun () -> ignore (P.parse_tokens ~file:"t.go" toks))

(* every program the suites and the benchmark feed the frontend *)
let test_streaming_matches_token_list () =
  List.iter
    (fun (a : Gocorpus.Apps.app) ->
      List.iteri
        (fun i src ->
          check_same ~file:(Printf.sprintf "%s/file%d.go" a.spec.name i) src)
        a.sources)
    (Gocorpus.Apps.all ());
  List.iter
    (fun (e : Gocorpus.Bugset.entry) ->
      check_same ~file:e.bs_name ("package b\n" ^ e.bs_src))
    Gocorpus.Bugset.entries;
  let dir =
    List.find Sys.file_exists [ "smoke"; "test/smoke" ]
  in
  let smoke =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".go")
  in
  Alcotest.(check bool) "smoke files found" true (List.length smoke >= 2);
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      check_same ~file:path (In_channel.with_open_bin path In_channel.input_all))
    smoke;
  (* the quick-size benchmark app *)
  List.iter
    (fun i ->
      check_same
        ~file:(Printf.sprintf "app/file%d.go" i)
        ("package app\n"
        ^ Gocorpus.Filler.generate ~seed:(1000 + i) ~target_lines:300))
    [ 0; 1; 2; 3 ]

let tests =
  [
    Alcotest.test_case "empty function" `Quick test_empty_func;
    Alcotest.test_case "params and results" `Quick test_params_and_results;
    Alcotest.test_case "make chan" `Quick test_make_chan;
    Alcotest.test_case "send and recv" `Quick test_send_recv;
    Alcotest.test_case "select" `Quick test_select;
    Alcotest.test_case "select v, ok" `Quick test_select_recv_ok;
    Alcotest.test_case "goroutine literal" `Quick test_go_literal;
    Alcotest.test_case "go named func" `Quick test_go_named;
    Alcotest.test_case "defer forms" `Quick test_defer_forms;
    Alcotest.test_case "for forms" `Quick test_for_forms;
    Alcotest.test_case "if-else chain" `Quick test_if_else_chain;
    Alcotest.test_case "struct decl and literal" `Quick test_struct_decl_and_lit;
    Alcotest.test_case "method calls" `Quick test_method_calls;
    Alcotest.test_case "operator precedence" `Quick test_precedence;
    Alcotest.test_case "multi define from recv" `Quick test_multi_define;
    Alcotest.test_case "imports skipped" `Quick test_imports_skipped;
    Alcotest.test_case "parse error raised" `Quick test_parse_error;
    Alcotest.test_case "round trip figure 1" `Quick test_roundtrip_figure1;
    Alcotest.test_case "round trip corpus apps" `Quick test_roundtrip_corpus;
    Alcotest.test_case "lex error wins over parse error" `Quick
      test_lex_error_wins;
    Alcotest.test_case "unterminated at end of file" `Quick
      test_unterminated_at_eof;
    Alcotest.test_case "error after EOF at Loc.none" `Quick test_error_after_eof;
    Alcotest.test_case "streaming parser = token-list parser" `Quick
      test_streaming_matches_token_list;
  ]
