(* Correctness oracles.  None of them is computed by the system under
   test during the run: the corpus totals come from its seeded ground
   truth (paper Table 1 shape, E1/E4), the large and edited applications
   are benign by construction, and the serve-open diagnostics are pinned
   bytes (MD5 of the "diagnostics" array) per corpus application. *)

module J = Goserve.Proto
module R = Gcatch.Report
module Score = Goreport.Score

(* Corpus workload, per pass: (true, false) positives per checker summed
   over E1's per-app scores, the bug-set coverage and the GFix outcomes
   on channel-only true positives. *)
type totals = {
  bmoc_c : int * int;
  bmoc_m : int * int;
  trad : (R.trad_kind * (int * int)) list;
  bugset_detected : int;
  gfix_fixed : int;
  gfix_unfixed : int;
}

let corpus_totals (scores : Score.app_score list) ~bugset_detected =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 scores in
  let trad k side = sum (fun s -> side (List.assoc k s.Score.trad)) in
  {
    bmoc_c = (sum (fun s -> s.Score.bmoc_c_tp), sum (fun s -> s.Score.bmoc_c_fp));
    bmoc_m = (sum (fun s -> s.Score.bmoc_m_tp), sum (fun s -> s.Score.bmoc_m_fp));
    trad = List.map (fun k -> (k, (trad k fst, trad k snd))) Score.trad_kinds;
    bugset_detected;
    gfix_fixed = sum (fun s -> s.Score.fixed_s1 + s.fixed_s2 + s.fixed_s3);
    gfix_unfixed = sum (fun s -> s.Score.unfixed);
  }

(* E1's totals row, E4's coverage and E1's GFix row as they stand. *)
let corpus_expected =
  {
    bmoc_c = (58, 22);
    bmoc_m = (4, 0);
    trad =
      [
        (R.Forget_unlock, (14, 0));
        (R.Double_lock, (8, 0));
        (R.Conflict_lock, (6, 0));
        (R.Struct_field_race, (13, 0));
        (R.Fatal_in_child, (9, 0));
      ];
    bugset_detected = Gocorpus.Bugset.expected_detected;
    gfix_fixed = 48;
    gfix_unfixed = 10;
  }

let corpus_ok t = t = corpus_expected

let corpus_str t =
  let c (tp, fp) = Printf.sprintf "%d/%d" tp fp in
  Printf.sprintf "BMOC_C %s BMOC_M %s %s; bug set %d/%d; GFix fixed %d unfixed %d"
    (c t.bmoc_c) (c t.bmoc_m)
    (String.concat " "
       (List.map (fun (k, tf) -> R.trad_kind_str k ^ " " ^ c tf) t.trad))
    t.bugset_detected Gocorpus.Bugset.total t.gfix_fixed t.gfix_unfixed

(* MD5 of the diagnostics each serve-open app must produce: the corpus
   file comes first and the filler is benign, so these hold for every
   seed, every filler edit and every request path. *)
let serve_diags_md5 =
  [
    ("grpc", "0367194a1697e69c662b415aaa72a3bf");
    ("prometheus", "d668e8ee9e5faa3bc892e9cc473208ff");
    ("v2ray-core", "69a67e842e8c0eed6fcecac8fcbbdf35");
    ("bbolt", "1e166eb7b82f98d8be01d06312de9f31");
  ]

(* ---------------------------------------------------- run JSON checks --- *)

(* A run JSON (one-shot --json output, or a response's "run" member)
   whose frontend succeeded and whose every unit completed. *)
let clean_run run =
  J.member_raw "frontend_ok" run = Some "true"
  &&
  match Option.map J.parse (J.member_raw "health" run) with
  | Some (Ok h) ->
      J.mem_int "degraded" h = Some 0 && J.mem_int "skipped" h = Some 0
  | _ -> false

(* ... of a benign program: clean and without diagnostics. *)
let benign_run run = clean_run run && J.member_raw "diagnostics" run = Some "[]"

let run_elapsed_ms run =
  match Option.bind (J.member_raw "elapsed_s" run) float_of_string_opt with
  | Some s -> 1000.0 *. s
  | None -> nan

let diags_md5 run =
  Option.map (fun d -> Digest.to_hex (Digest.string d)) (J.member_raw "diagnostics" run)
