(* Seeded inputs.  The benchmark seed picks filler seeds, which file and
   literal each edit touches, arrival times and the request mix; the
   systems under test only ever see the generated sources. *)

module Filler = Gocorpus.Filler

let rng seed = Random.State.make [| 0x67636174; seed |]

(* Sizing: [quick] shrinks every workload to a smoke test. *)
type size = { files : int; lines : int }

let scan_size ~quick =
  if quick then { files = 4; lines = 300 } else { files = 50; lines = 2000 }

(* The large benign application (~172 kLoC at full size).  File [i]
   uses filler seed [base + i]; distinct seeds keep function names
   disjoint across files. *)
let large_app ~seed ~quick =
  let sz = scan_size ~quick in
  let base = 1000 + (Random.State.int (rng seed) 5000 * 64) in
  List.init sz.files (fun i ->
      "package app\n" ^ Filler.generate ~seed:(base + i) ~target_lines:sz.lines)

let loc sources =
  List.fold_left
    (fun acc s -> acc + List.length (String.split_on_char '\n' s))
    0 sources

(* -------------------------------------------------------------- edits --- *)

(* A body-only edit: one integer literal of a pure helper's accumulator
   initialiser ("total := 0" / "count := 0") takes a value it never had
   before.  The line count, every signature and every concurrency
   primitive stay as they were, so the program stays benign and only the
   edited file's frontend work is new. *)
let site_var line =
  List.find_opt
    (fun var ->
      let prefix = "\t" ^ var ^ " := " in
      let n = String.length prefix in
      String.length line > n
      && String.starts_with ~prefix line
      && String.for_all
           (function '0' .. '9' -> true | _ -> false)
           (String.sub line n (String.length line - n)))
    [ "total"; "count" ]

let apply_edit src ~site_choice ~value =
  let lines = Array.of_list (String.split_on_char '\n' src) in
  let sites =
    Array.of_list
      (List.filter
         (fun i -> site_var lines.(i) <> None)
         (List.init (Array.length lines) Fun.id))
  in
  if Array.length sites = 0 then invalid_arg "apply_edit: file has no edit site";
  let i = sites.(site_choice mod Array.length sites) in
  lines.(i) <- Printf.sprintf "\t%s := %d" (Option.get (site_var lines.(i))) value;
  String.concat "\n" (Array.to_list lines)

(* The [n]-th edit of a sequence: which file (among [files]) and which
   site; [value] = n + 1 is new to the sequence, so every edited text
   is new. *)
type edit = { e_file : int; e_src : string }

let make_edit st (sources : string array) ~files ~n =
  let f = files.(Random.State.int st (Array.length files)) in
  {
    e_file = f;
    e_src =
      apply_edit sources.(f) ~site_choice:(Random.State.bits st) ~value:(n + 1);
  }

(* ------------------------------------------------------ request bodies --- *)

let digest s = Digest.to_hex (Digest.string s)

let body_of files =
  let b = Buffer.create (1 lsl 16) in
  Buffer.add_string b "{\"schema\":\"gcatch-serve/1\",\"name\":\"cli\",\"files\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (match f with
        | `Src s ->
            Printf.sprintf "{\"path\":\"f%d.go\",\"src\":\"%s\"}" i
              (Goobs.Metrics.json_escape s)
        | `Digest d -> Printf.sprintf "{\"path\":\"f%d.go\",\"digest\":\"%s\"}" i d))
    files;
  Buffer.add_string b "]}";
  Buffer.contents b

let full_body sources = body_of (List.map (fun s -> `Src s) sources)

(* Every file by digest except the edited one, which carries its text:
   what a watch/IDE client sends for a one-file change. *)
let delta_body (digests : string array) (e : edit) =
  body_of
    (List.init (Array.length digests) (fun i ->
         if i = e.e_file then `Src e.e_src else `Digest digests.(i)))

(* ----------------------------------------------------------- serve-open --- *)

(* One corpus application (its bugs give the responses real content)
   plus seven 300-line filler files.  Filler seeds start at 100, clear of
   the corpus generator's own seeds (at most 13), so no two functions of
   an app share a name.  The four apps are fixed so their pinned
   diagnostics hold for every seed. *)
let serve_corpus_apps = [ "grpc"; "prometheus"; "v2ray-core"; "bbolt" ]

let serve_apps ~seed ~quick =
  let st = rng (seed + 7) in
  let base = 100 + (Random.State.int st 1000 * 32) in
  List.mapi
    (fun k name ->
      let app =
        match Gocorpus.Apps.find name with
        | Some a -> a
        | None -> invalid_arg ("unknown corpus app " ^ name)
      in
      let fillers = if quick then 2 else 7 in
      Array.of_list
        (app.Gocorpus.Apps.sources
        @ List.init fillers (fun j ->
              "package app\n"
              ^ Filler.generate ~seed:(base + (k * 8) + j) ~target_lines:300)))
    serve_corpus_apps

(* Poisson arrivals at [rate] per second over [seconds], from [t0]. *)
let arrivals st ~rate ~t0 ~seconds =
  let rec go t acc =
    let t = t -. (log (1.0 -. Random.State.float st 1.0) /. rate) in
    if t >= t0 +. seconds then List.rev acc else go t (t :: acc)
  in
  go t0 []
