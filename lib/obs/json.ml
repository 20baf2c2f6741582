(* The one JSON reader.

   The tree writes JSON by hand ([Printf] + [Metrics.json_escape]) and
   no JSON library is in the build, so this is a small recursive-descent
   parser — strings (with \uXXXX), numbers, booleans, null, arrays,
   objects.  Numbers land in a float, which is exact for every integer
   the gcatchd protocol and the run journal carry.  The journal reader
   ([Journal.parse_line]) and the gcatchd protocol ([Goserve.Proto]) are
   views over it.

   [member_raw] is the deliberate oddity: it returns the raw *byte
   span* of a named top-level member, unparsed.  gcatchd embeds the
   engine's run JSON verbatim in the response envelope; the client's
   --json mode must print those bytes exactly as a local run would
   (float formatting round-trips are not byte-stable), so it extracts
   the span instead of re-serializing a parse. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

type cursor = { s : string; mutable i : int }

let peek c = if c.i < String.length c.s then Some c.s.[c.i] else None

let skip_ws c =
  while
    c.i < String.length c.s
    && match c.s.[c.i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.i <- c.i + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.i <- c.i + 1
  | Some x -> fail "expected %c at byte %d, found %c" ch c.i x
  | None -> fail "expected %c at byte %d, found end of input" ch c.i

let lit c word v =
  let n = String.length word in
  if c.i + n <= String.length c.s && String.sub c.s c.i n = word then begin
    c.i <- c.i + n;
    v
  end
  else fail "bad literal at byte %d" c.i

let hex4 c =
  if c.i + 4 > String.length c.s then fail "truncated \\u escape";
  let v = ref 0 in
  for k = c.i to c.i + 3 do
    let d =
      match c.s.[k] with
      | '0' .. '9' as ch -> Char.code ch - 48
      | 'a' .. 'f' as ch -> Char.code ch - 87
      | 'A' .. 'F' as ch -> Char.code ch - 55
      | ch -> fail "bad hex digit %c in \\u escape" ch
    in
    v := (!v * 16) + d
  done;
  c.i <- c.i + 4;
  !v

let add_utf8 b cp =
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let len = String.length c.s in
  let rec go () =
    (* bulk-copy the span up to the next quote or escape; request bodies
       carry whole source files in one string, and a byte-at-a-time loop
       was the dominant cost of serving a multi-megabyte payload *)
    let start = c.i in
    let j = ref c.i in
    while
      !j < len
      && match String.unsafe_get c.s !j with '"' | '\\' -> false | _ -> true
    do
      incr j
    done;
    if !j > start then begin
      Buffer.add_substring b c.s start (!j - start);
      c.i <- !j
    end;
    match peek c with
    | None -> fail "unterminated string"
    | Some '"' -> c.i <- c.i + 1
    | Some '\\' -> (
        c.i <- c.i + 1;
        match peek c with
        | None -> fail "unterminated escape"
        | Some ch ->
            c.i <- c.i + 1;
            (match ch with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'u' ->
                let cp = hex4 c in
                (* high surrogate followed by \uDC00-\uDFFF combines *)
                if cp >= 0xD800 && cp <= 0xDBFF
                   && c.i + 1 < String.length c.s
                   && c.s.[c.i] = '\\'
                   && c.s.[c.i + 1] = 'u'
                then begin
                  c.i <- c.i + 2;
                  let lo = hex4 c in
                  if lo >= 0xDC00 && lo <= 0xDFFF then
                    add_utf8 b
                      (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
                  else begin
                    add_utf8 b cp;
                    add_utf8 b lo
                  end
                end
                else add_utf8 b cp
            | ch -> fail "bad escape \\%c" ch);
            go ())
    | Some ch ->
        c.i <- c.i + 1;
        Buffer.add_char b ch;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.i in
  let num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.i < String.length c.s && num_char c.s.[c.i] do
    c.i <- c.i + 1
  done;
  if c.i = start then fail "expected a value at byte %d" start;
  match float_of_string_opt (String.sub c.s start (c.i - start)) with
  | Some f -> f
  | None -> fail "bad number at byte %d" start

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some 't' -> lit c "true" (Bool true)
  | Some 'f' -> lit c "false" (Bool false)
  | Some 'n' -> lit c "null" Null
  | Some '[' ->
      c.i <- c.i + 1;
      skip_ws c;
      if peek c = Some ']' then begin
        c.i <- c.i + 1;
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.i <- c.i + 1;
              items (v :: acc)
          | Some ']' ->
              c.i <- c.i + 1;
              List.rev (v :: acc)
          | _ -> fail "expected , or ] at byte %d" c.i
        in
        Arr (items [])
      end
  | Some '{' ->
      c.i <- c.i + 1;
      skip_ws c;
      if peek c = Some '}' then begin
        c.i <- c.i + 1;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.i <- c.i + 1;
              members ((k, v) :: acc)
          | Some '}' ->
              c.i <- c.i + 1;
              List.rev ((k, v) :: acc)
          | _ -> fail "expected , or } at byte %d" c.i
        in
        Obj (members [])
      end
  | Some _ -> Num (parse_number c)

let parse (s : string) : (t, string) result =
  let c = { s; i = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.i < String.length s then
        Error (Printf.sprintf "trailing bytes after value at %d" c.i)
      else Ok v
  | exception Bad m -> Error m

(* Raw span extraction -------------------------------------------------- *)

(* Skip one value without building it, returning nothing; [c.i] ends one
   past the value. *)
let rec skip_value c =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected end of input"
  | Some '"' -> ignore (parse_string c)
  | Some 't' -> ignore (lit c "true" ())
  | Some 'f' -> ignore (lit c "false" ())
  | Some 'n' -> ignore (lit c "null" ())
  | Some ('[' | '{') ->
      let close = if peek c = Some '[' then ']' else '}' in
      let is_obj = close = '}' in
      c.i <- c.i + 1;
      skip_ws c;
      if peek c = Some close then c.i <- c.i + 1
      else begin
        let rec items () =
          (if is_obj then begin
             skip_ws c;
             ignore (parse_string c);
             skip_ws c;
             expect c ':'
           end);
          skip_value c;
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.i <- c.i + 1;
              items ()
          | Some ch when ch = close -> c.i <- c.i + 1
          | _ -> fail "expected , or %c at byte %d" close c.i
        in
        items ()
      end
  | Some _ -> ignore (parse_number c)

(* The raw bytes of top-level member [key] of a JSON object, exactly as
   they appear in [s] (leading/trailing whitespace trimmed by
   construction: the span starts at the value's first byte). *)
let member_raw (key : string) (s : string) : string option =
  let c = { s; i = 0 } in
  match
    skip_ws c;
    expect c '{';
    skip_ws c;
    if peek c = Some '}' then None
    else begin
      let rec members () =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        skip_ws c;
        let start = c.i in
        skip_value c;
        if k = key then Some (String.sub s start (c.i - start))
        else begin
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.i <- c.i + 1;
              members ()
          | _ -> None
        end
      in
      members ()
    end
  with
  | r -> r
  | exception Bad _ -> None
