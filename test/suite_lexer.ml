(* Lexer tests: tokens, automatic semicolon insertion, comments, errors. *)

module T = Minigo.Token
module L = Minigo.Lexer

let toks src = List.map (fun (ti : L.token_info) -> ti.tok) (L.tokenize ~file:"t.go" src)

let check_toks name src expected =
  Alcotest.(check (list string))
    name
    (List.map T.to_string expected)
    (List.map T.to_string (toks src))

let test_idents () =
  check_toks "identifiers" "foo bar_baz x1"
    [ IDENT "foo"; IDENT "bar_baz"; IDENT "x1"; SEMI; EOF ]

let test_keywords () =
  check_toks "keywords" "func go chan select"
    [ KW_func; KW_go; KW_chan; KW_select; EOF ]

let test_ints () =
  check_toks "integers" "0 42 1234" [ INT 0; INT 42; INT 1234; SEMI; EOF ]

let test_strings () =
  check_toks "string literal" {|"hello"|} [ STRING "hello"; SEMI; EOF ]

let test_string_escapes () =
  check_toks "escapes" {|"a\nb\tc\"d"|} [ STRING "a\nb\tc\"d"; SEMI; EOF ]

let test_operators () =
  check_toks "operators" "+ - * / % == != < <= > >= && || !"
    [ PLUS; MINUS; STAR; SLASH; PERCENT; EQ; NEQ; LT; LE; GT; GE; AND; OR; NOT; EOF ]

let test_arrow_vs_lt () =
  check_toks "arrow" "<-x" [ ARROW; IDENT "x"; SEMI; EOF ];
  check_toks "less" "< -x" [ LT; MINUS; IDENT "x"; SEMI; EOF ]

let test_define_vs_colon () =
  check_toks "define" "x := 1" [ IDENT "x"; DEFINE; INT 1; SEMI; EOF ];
  check_toks "colon" "case a:" [ KW_case; IDENT "a"; COLON; EOF ]

let test_incdec () =
  (* ++/-- end a statement, so the newline inserts a semicolon *)
  check_toks "inc dec" "x++\ny--"
    [ IDENT "x"; PLUSPLUS; SEMI; IDENT "y"; MINUSMINUS; SEMI; EOF ]

(* Go's semicolon insertion: a newline after a statement-ending token
   inserts a SEMI; after other tokens it does not. *)
let test_semi_insertion_after_ident () =
  check_toks "semi after ident" "x\ny" [ IDENT "x"; SEMI; IDENT "y"; SEMI; EOF ]

let test_no_semi_after_operator () =
  check_toks "no semi after plus" "x +\ny" [ IDENT "x"; PLUS; IDENT "y"; SEMI; EOF ]

let test_no_semi_after_lbrace () =
  check_toks "no semi after brace" "{\nx" [ LBRACE; IDENT "x"; SEMI; EOF ]

let test_semi_after_rparen () =
  check_toks "semi after rparen" "f()\ng()"
    [ IDENT "f"; LPAREN; RPAREN; SEMI; IDENT "g"; LPAREN; RPAREN; SEMI; EOF ]

let test_semi_after_return () =
  check_toks "semi after return" "return\nx"
    [ KW_return; SEMI; IDENT "x"; SEMI; EOF ]

let test_line_comment () =
  check_toks "line comment" "x // comment\ny"
    [ IDENT "x"; SEMI; IDENT "y"; SEMI; EOF ]

let test_block_comment () =
  check_toks "block comment" "x /* multi\nline */ y"
    [ IDENT "x"; IDENT "y"; SEMI; EOF ]

let test_empty () = check_toks "empty input" "" [ EOF ]

let test_unterminated_string () =
  Alcotest.check_raises "unterminated string"
    (L.Lex_error ("unterminated string literal", Minigo.Loc.make ~file:"t.go" ~line:1 ~col:1))
    (fun () -> ignore (toks {|"abc|}))

(* a literal beyond the native int range is a lex error at the
   literal, not an escaping [Failure] *)
let test_int_out_of_range () =
  Alcotest.check_raises "out-of-range literal"
    (L.Lex_error
       ("integer literal out of range", Minigo.Loc.make ~file:"t.go" ~line:1 ~col:6))
    (fun () -> ignore (toks "x := 999999999999999999999999"));
  check_toks "max_int still lexes" (string_of_int max_int)
    [ INT max_int; SEMI; EOF ]

let test_locations () =
  let tis = L.tokenize ~file:"t.go" "a\n  b" in
  match tis with
  | a :: _semi :: b :: _ ->
      Alcotest.(check int) "a line" 1 (Minigo.Loc.line a.loc);
      Alcotest.(check int) "b line" 2 (Minigo.Loc.line b.loc);
      Alcotest.(check string) "file" "t.go" (Minigo.Loc.file b.loc)
  | _ -> Alcotest.fail "unexpected token stream"

let test_unterminated_comment () =
  Alcotest.check_raises "unterminated block comment"
    (L.Lex_error
       ("unterminated block comment", Minigo.Loc.make ~file:"t.go" ~line:2 ~col:3))
    (fun () -> ignore (toks "x\n  /* a\n b *"))

(* the scanner's end-of-input sentinel is '\000'; a NUL inside the input
   is still an ordinary character *)
let test_nul_in_input () =
  Alcotest.check_raises "NUL outside a literal"
    (L.Lex_error
       ("unexpected character '\\000'", Minigo.Loc.make ~file:"t.go" ~line:1 ~col:3))
    (fun () -> ignore (toks "x \000 y"));
  check_toks "NUL inside a string" "\"a\000b\"" [ STRING "a\000b"; SEMI; EOF ]

(* pulling tokens one at a time gives what [tokenize] gives, positions
   included, and EOF repeats once reached *)
let test_streaming_matches_tokenize () =
  let src = "package p\nfunc f() {\n\tx := \"s\\n\" // c\n\t/* b\n */ y++\n}" in
  let st = L.create ~file:"t.go" src in
  let rec pull acc =
    let tok = L.next st in
    let ti = { L.tok; loc = L.loc st } in
    Alcotest.(check int) "line" (Minigo.Loc.line ti.loc) (L.line st);
    if tok = EOF then List.rev (ti :: acc) else pull (ti :: acc)
  in
  let streamed = pull [] in
  Alcotest.(check bool) "same tokens and locations" true
    (streamed = L.tokenize ~file:"t.go" src);
  Alcotest.(check bool) "EOF repeats" true (L.next st = EOF);
  Alcotest.(check int) "no position past EOF" 0 (L.line st)

(* property: lexing a comma-joined list of random identifiers yields the
   identifiers in order *)
let prop_idents_roundtrip =
  QCheck.Test.make ~name:"lexer: identifier round trip" ~count:200
    QCheck.(list_of_size Gen.(1 -- 8) (string_gen_of_size Gen.(1 -- 10) (Gen.char_range (Char.chr 97) (Char.chr 122))))
    (fun names ->
      QCheck.assume (names <> []);
      QCheck.assume
        (List.for_all (fun n -> Minigo.Token.keyword_of_string n = None) names);
      let src = String.concat ", " names in
      let lexed =
        List.filter_map
          (function T.IDENT s -> Some s | _ -> None)
          (toks src)
      in
      lexed = names)

let tests =
  [
    Alcotest.test_case "identifiers" `Quick test_idents;
    Alcotest.test_case "keywords" `Quick test_keywords;
    Alcotest.test_case "integers" `Quick test_ints;
    Alcotest.test_case "strings" `Quick test_strings;
    Alcotest.test_case "string escapes" `Quick test_string_escapes;
    Alcotest.test_case "operators" `Quick test_operators;
    Alcotest.test_case "arrow vs less-than" `Quick test_arrow_vs_lt;
    Alcotest.test_case "define vs colon" `Quick test_define_vs_colon;
    Alcotest.test_case "increment/decrement" `Quick test_incdec;
    Alcotest.test_case "semi inserted after ident" `Quick test_semi_insertion_after_ident;
    Alcotest.test_case "no semi after operator" `Quick test_no_semi_after_operator;
    Alcotest.test_case "no semi after lbrace" `Quick test_no_semi_after_lbrace;
    Alcotest.test_case "semi after rparen" `Quick test_semi_after_rparen;
    Alcotest.test_case "semi after return" `Quick test_semi_after_return;
    Alcotest.test_case "line comments" `Quick test_line_comment;
    Alcotest.test_case "block comments" `Quick test_block_comment;
    Alcotest.test_case "empty input" `Quick test_empty;
    Alcotest.test_case "unterminated string" `Quick test_unterminated_string;
    Alcotest.test_case "integer literal out of range" `Quick test_int_out_of_range;
    Alcotest.test_case "token locations" `Quick test_locations;
    Alcotest.test_case "unterminated block comment" `Quick
      test_unterminated_comment;
    Alcotest.test_case "NUL in input" `Quick test_nul_in_input;
    Alcotest.test_case "streaming = tokenize" `Quick
      test_streaming_matches_tokenize;
    QCheck_alcotest.to_alcotest prop_idents_roundtrip;
  ]
