(* The standing benchmark of gcatch: four workloads, each run against the
   real binaries (one-shot `gcatch`, a spawned `gcatchd`) or a child
   process, with oracles on every output and per-layer attribution in
   the traced run.  Build and run it through run.sh, from the root of a
   checkout:

     bash perfbench/run.sh --workload scan-large --seed 1 --seconds 12 --trace 0
     bash perfbench/run.sh baseline --seed 1 --runs 3 --out A.json
     bash perfbench/run.sh compare ../parent . --pairs 10 --out pairs.json

   A workload run prints every metric with its unit and sample count,
   the oracle and self-check verdicts and the generator's lateness, then
   one JSON result object as its last line.  See README.md. *)

module J = Goserve.Proto
module W = Workloads

let workloads =
  [
    ("scan-large", W.scan);
    ("corpus", W.corpus);
    ("edit", W.edit);
    ("serve-open", W.serve_open);
  ]

let usage () =
  prerr_string
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--quick]\n\
    \       main.exe baseline [--seed N] [--runs K] [--seconds S] [--trace] \
     [--quick] [--out FILE]\n\
    \       main.exe compare BASE_CHECKOUT CHANGE_CHECKOUT [--pairs K] [--seed N] \
     [--seconds S] [--workload NAME] [--out FILE]\n";
  exit 2

(* ---------------------------------------------------------- metrics --- *)

type metric = { name : string; value : float; unit : string; n : int }

(* The end-to-end metrics every workload reports, from its outcome, with
   every time and rate scaled by a machine probe taken next to it (see
   probe.ml).  Set-ups are scaled by the run's median probe. *)
let end_to_end (o : W.outcome) =
  let n_lat = List.length o.W.lat_ms in
  [
    {
      name = "setup_s";
      value = Util.median o.setup_s *. Probe.factor o.probe_s;
      unit = "s";
      n = List.length o.setup_s;
    };
    {
      name = "latency_p50_ms";
      value = Util.median (List.map2 ( *. ) o.lat_ms o.lat_scale);
      unit = "ms";
      n = n_lat;
    };
    { name = "throughput_per_s"; value = o.throughput; unit = "1/s"; n = o.throughput_ops };
    { name = "cpu_per_op_ms"; value = o.cpu_ms; unit = "ms"; n = o.cpu_ops };
    { name = "peak_rss_mb"; value = o.rss_mb; unit = "MB"; n = 1 };
  ]

let per_layer (o : W.outcome) =
  List.map (fun (name, value, unit) -> { name; value; unit; n = 1 }) o.W.layers
  @ [
      {
        name = "loadgen.late_p90_ms";
        value = Util.quantile o.lateness_ms 0.9;
        unit = "ms";
        n = List.length o.lateness_ms;
      };
    ]

(* ---------------------------------------------------- BENCHMARK.json --- *)

let spec_file = "BENCHMARK.json"

let load_spec () =
  match J.parse (Util.read_file spec_file) with
  | Ok v -> Some v
  | Error _ | (exception Sys_error _) -> None

(* (name, better, bound) of each metric listed under [key]. *)
let spec_metrics spec key =
  match Option.bind (J.member key spec) J.arr with
  | None -> []
  | Some l ->
      List.filter_map
        (fun m ->
          Option.map
            (fun name ->
              ( name,
                Option.value (J.mem_str "better" m) ~default:"lower",
                Option.value (Option.bind (J.member "bound" m) J.num) ~default:0.0 ))
            (J.mem_str "name" m))
        l

(* The printed metric names must be exactly the ones BENCHMARK.json
   lists, in both directions. *)
let names_check spec key printed =
  let listed = List.map (fun (n, _, _) -> n) (spec_metrics spec key) in
  let missing = List.filter (fun n -> not (List.mem n printed)) listed in
  let extra = List.filter (fun n -> not (List.mem n listed)) printed in
  ( Printf.sprintf "printed %s names match BENCHMARK.json%s" key
      (if missing = [] && extra = [] then ""
       else
         Printf.sprintf " (missing: %s; not listed: %s)" (String.concat "," missing)
           (String.concat "," extra)),
    missing = [] && extra = [] )

(* ------------------------------------------------------------ result --- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let result_json r =
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    r.correct r.attempted r.failed
    (String.concat ","
       (List.map
          (fun m ->
            Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (Util.json_str m.name)
              (Util.json_num m.value) (Util.json_str m.unit))
          r.metrics))

let run_workload ~name (p : W.params) =
  let f = List.assoc name workloads in
  let o = f p in
  let metrics = if p.W.trace then per_layer o else end_to_end o in
  let key = if p.trace then "per_layer" else "end_to_end" in
  let spec_check =
    match load_spec () with
    | Some spec -> [ names_check spec key (List.map (fun m -> m.name) metrics) ]
    | None -> [ ("BENCHMARK.json is readable", false) ]
  in
  let checks = o.checks @ spec_check in
  let failed_checks = List.length (List.filter (fun (_, ok) -> not ok) checks) in
  Util.say "perfbench %s: seed %d, %g s, trace %b%s" name p.seed p.seconds p.trace
    (if p.quick then ", quick sizes" else "");
  List.iter (fun n -> Util.say "  %s" n) o.notes;
  Util.say "  set-up samples: %s s"
    (String.concat " " (List.map (Printf.sprintf "%.3f") o.setup_s));
  if o.probe_s = [] then Util.say "  machine probe: none, times unscaled"
  else
    Util.say
      "  machine probe: median %.1f ms of %d samples (nominal %.0f ms); unscaled: \
       set-up %.4f s, latency p50 %.4f ms"
      (1000.0 *. Util.median o.probe_s)
      (List.length o.probe_s) (1000.0 *. Probe.nominal_s) (Util.median o.setup_s)
      (Util.median o.lat_ms);
  List.iter
    (fun m -> Util.say "  %-26s %14.4f %-6s (n=%d)" m.name m.value m.unit m.n)
    metrics;
  let late = o.lateness_ms in
  Util.say "  generator lateness: p50 %.3f ms, p90 %.3f ms, max %.3f ms (n=%d)"
    (Util.median late) (Util.quantile late 0.9)
    (List.fold_left Float.max 0.0 late)
    (List.length late);
  List.iter
    (fun (what, ok) ->
      Util.say "  check %-4s %s" (if ok then "ok" else "FAIL") what;
      if not ok then Printf.eprintf "perfbench %s: check failed: %s\n%!" name what)
    checks;
  let failed = o.failed + failed_checks in
  {
    correct = failed = 0;
    attempted = o.attempted + List.length checks;
    failed;
    metrics;
  }

(* ---------------------------------------------------------- baseline --- *)

(* All four workloads, [runs] seeds each, into one gcatch-baseline/1
   file: a record of one commit.  Exits 1 if any check failed. *)
let baseline ~seed ~runs ~seconds ~trace ~quick ~out =
  let results =
    List.map
      (fun (name, _) ->
        ( name,
          List.init runs (fun i ->
              let p = { W.seed = seed + i; seconds; trace; quick } in
              let r = run_workload ~name p in
              print_endline (result_json r);
              (seed + i, r)) ))
      workloads
  in
  let json =
    Printf.sprintf
      "{\"schema\":\"gcatch-baseline/1\",\"seed\":%d,\"runs\":%d,\"seconds\":%g,\"trace\":%b,\"quick\":%b,\"workloads\":{%s}}\n"
      seed runs seconds trace quick
      (String.concat ","
         (List.map
            (fun (name, rs) ->
              Printf.sprintf "%s:[%s]" (Util.json_str name)
                (String.concat ","
                   (List.map
                      (fun (s, r) ->
                        let j = result_json r in
                        (* {"seed":N, ...the result object's members} *)
                        Printf.sprintf "{\"seed\":%d,%s" s
                          (String.sub j 1 (String.length j - 1)))
                      rs)))
            results))
  in
  Option.iter (fun path -> Util.write_file path json) out;
  let ok =
    List.for_all (fun (_, rs) -> List.for_all (fun (_, r) -> r.correct) rs) results
  in
  Util.say "baseline: %s%s" (if ok then "all oracles passed" else "ORACLE FAILURES")
    (match out with Some p -> ", written to " ^ p | None -> "");
  exit (if ok then 0 else 1)

(* ----------------------------------------------------------- compare --- *)

(* Two builds are compared on interleaved runs only: the machine's speed
   drifts by tens of percent over minutes, so two sets recorded one
   after the other differ by that drift alone.  [compare BASE CHANGE]
   runs each workload on both checkouts in [pairs] pairs, one seed per
   pair, alternating which side runs first. *)

type run = {
  r_attempted : int;
  r_failed : int;
  values : (string * float) list;
  raw : string; (* the result line, or "null" when the run printed none *)
}

(* One workload run of the checkout [dir] through its own run.sh, which
   builds it first and runs from its root. *)
let run_checkout ~dir ~log ~workload ~seed ~seconds =
  let out = log ^ ".out" in
  let pid =
    Util.spawn ~stdout:out ~stderr:(log ^ ".err") "bash"
      [
        Filename.concat dir "perfbench/run.sh"; "--workload"; workload; "--seed";
        string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds; "--trace"; "0";
      ]
  in
  ignore (Util.waitpid_noeintr pid);
  let last =
    List.fold_left
      (fun acc l -> if String.trim l = "" then acc else l)
      "" (String.split_on_char '\n' (Util.read_file out))
  in
  match J.parse last with
  | Ok v when J.mem_int "attempted" v <> None ->
      {
        r_attempted = Option.value (J.mem_int "attempted" v) ~default:1;
        r_failed = Option.value (J.mem_int "failed" v) ~default:1;
        values =
          (match J.member "metrics" v with
          | Some (J.Obj ms) ->
              List.filter_map
                (fun (m, x) -> Option.map (fun f -> (m, f)) (Option.bind (J.member "value" x) J.num))
                ms
          | _ -> []);
        raw = last;
      }
  | _ -> { r_attempted = 1; r_failed = 1; values = []; raw = "null" }

(* The verdict on one metric from its paired values (base, change), by
   the rule the benchmark's bounds are written for: improved when the
   change wins at least nine pairs in ten and its median gain exceeds
   the distance between the base's quartiles, or when every change run
   beats every base run; otherwise unresolved when either side's
   quartile spread exceeds the bound; otherwise regressed when the
   change's median is worse by more than the bound. *)
let verdict ~better ~bound pairs =
  let a = List.map fst pairs and b = List.map snd pairs in
  let gain x y = if better = "higher" then y -. x else x -. y in
  let ma = Util.median a and mb = Util.median b in
  let worse = -.gain ma mb /. Float.abs ma in
  let wins = List.length (List.filter (fun (x, y) -> gain x y > 0.0) pairs) in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> gain x y > 0.0) a) b in
  let iqr xs = Util.quantile xs 0.75 -. Util.quantile xs 0.25 in
  let v =
    if all_better || (10 * wins >= 9 * List.length pairs && gain ma mb > iqr a) then
      "improved"
    else if Float.max (Util.spread a) (Util.spread b) > bound then "unresolved"
    else if worse > bound then "regressed"
    else "unchanged"
  in
  (v, worse, wins)

let compare_checkouts ~base ~change ~pairs ~seed ~seconds ~workloads ~out =
  let metrics =
    match load_spec () with
    | Some spec -> spec_metrics spec "end_to_end"
    | None ->
        prerr_endline "compare: run from the repository root (needs BENCHMARK.json)";
        exit 2
  in
  List.iter
    (fun d ->
      if not (Sys.file_exists (Filename.concat d "perfbench/run.sh")) then begin
        prerr_endline ("compare: " ^ d ^ " is not a checkout with perfbench/run.sh");
        exit 2
      end)
    [ base; change ];
  let dir = Util.fresh_dir "compare" in
  let bad = ref false in
  let rows =
    List.map
      (fun w ->
        let runs =
          List.init pairs (fun i ->
              let s = seed + i in
              let one tag d =
                let log = Filename.concat dir (Printf.sprintf "%s-%d-%s" w s tag) in
                let r = run_checkout ~dir:d ~log ~workload:w ~seed:s ~seconds in
                Util.say "  %s pair %d %-6s %s" w i tag
                  (String.concat " "
                     (List.map (fun (m, v) -> Printf.sprintf "%s=%.4g" m v) r.values));
                r
              in
              if i mod 2 = 0 then
                let a = one "base" base in
                (a, one "change" change)
              else
                let b = one "change" change in
                (one "base" base, b))
        in
        let verdicts =
          List.map
            (fun (m, better, bound) ->
              let paired =
                List.filter_map
                  (fun (a, b) ->
                    match (List.assoc_opt m a.values, List.assoc_opt m b.values) with
                    | Some x, Some y -> Some (x, y)
                    | _ -> None)
                  runs
              in
              if paired = [] then (m, ("missing", nan, 0), [], [])
              else (m, verdict ~better ~bound paired, List.map fst paired, List.map snd paired))
            metrics
        in
        let frac side =
          let f = List.fold_left (fun acc p -> acc + (side p).r_failed) 0 runs
          and a = List.fold_left (fun acc p -> acc + (side p).r_attempted) 0 runs in
          float_of_int f /. float_of_int (max 1 a)
        in
        let fa = frac fst and fb = frac snd in
        if fb > fa then bad := true;
        List.iter (fun (_, (v, _, _), _, _) -> if v = "regressed" then bad := true) verdicts;
        (w, runs, verdicts, (fa, fb)))
      workloads
  in
  Util.say "%-11s %s %s" "workload"
    (String.concat " " (List.map (fun (n, _, _) -> Printf.sprintf "%-20s" n) metrics))
    "failed_frac";
  List.iter
    (fun (w, _, verdicts, (fa, fb)) ->
      Util.say "%-11s %s %s%.4f -> %.4f" w
        (String.concat " "
           (List.map
              (fun (_, (v, worse, _), _, _) ->
                Printf.sprintf "%-20s" (Printf.sprintf "%s %+.1f%%" v (100.0 *. worse)))
              verdicts))
        (if fb > fa then "regressed " else "")
        fa fb)
    rows;
  Util.say "(change is towards worse)";
  List.iter
    (fun (w, runs, verdicts, _) ->
      Util.say "%s: %d pairs" w (List.length runs);
      List.iter
        (fun (m, (v, _, wins), a, b) ->
          let q xs =
            Printf.sprintf "%.4g [%.4g, %.4g] spread %.3f" (Util.median xs)
              (Util.quantile xs 0.25) (Util.quantile xs 0.75) (Util.spread xs)
          in
          Util.say "  %-18s base %s | change %s | change wins %d/%d | %s" m (q a) (q b)
            wins (List.length a) v)
        verdicts)
    rows;
  Option.iter
    (fun path ->
      Util.write_file path
        (Printf.sprintf
           "{\"schema\":\"gcatch-compare/1\",\"seed\":%d,\"pairs\":%d,\"seconds\":%g,\"workloads\":{%s}}\n"
           seed pairs seconds
           (String.concat ","
              (List.map
                 (fun (w, runs, verdicts, (fa, fb)) ->
                   Printf.sprintf
                     "%s:{\"failed_frac\":[%s,%s],\"verdicts\":{%s},\"pairs\":[%s]}"
                     (Util.json_str w) (Util.json_num fa) (Util.json_num fb)
                     (String.concat ","
                        (List.map
                           (fun (m, (v, worse, wins), _, _) ->
                             Printf.sprintf "%s:{\"verdict\":%s,\"worse\":%s,\"wins\":%d}"
                               (Util.json_str m) (Util.json_str v)
                               (if Float.is_nan worse then "null" else Util.json_num worse)
                               wins)
                           verdicts))
                     (String.concat ","
                        (List.mapi
                           (fun i (a, b) ->
                             Printf.sprintf
                               "{\"seed\":%d,\"first\":%s,\"base\":%s,\"change\":%s}"
                               (seed + i)
                               (if i mod 2 = 0 then "\"base\"" else "\"change\"")
                               a.raw b.raw)
                           runs)))
                 rows))))
    out;
  exit (if !bad then 1 else 0)

(* -------------------------------------------------------------- main --- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (match args with
  | [ "probe"; n ] ->
      Printf.printf "%.17g\n" (Probe.measure ~domains:(int_of_string n));
      exit 0
  | _ -> ());
  let sub, args =
    match args with
    | ("baseline" | "compare" | "corpus-child") as s :: rest -> (s, rest)
    | _ -> ("workload", args)
  in
  let workload = ref "" and seed = ref 1 and seconds = ref None and trace = ref false in
  let quick = ref false and runs = ref 3 and out = ref None and setup_only = ref false in
  let pairs = ref 10 and positional = ref [] in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := Some (float_of_string v); parse rest
    | "--trace" :: (("0" | "1") as v) :: rest -> trace := v = "1"; parse rest
    | "--trace" :: rest -> trace := true; parse rest
    | "--quick" :: rest -> quick := true; parse rest
    | "--runs" :: v :: rest -> runs := int_of_string v; parse rest
    | "--pairs" :: v :: rest -> pairs := int_of_string v; parse rest
    | "--out" :: v :: rest -> out := Some v; parse rest
    | "--setup-only" :: rest -> setup_only := true; parse rest
    | v :: rest when String.length v > 0 && v.[0] <> '-' ->
        positional := !positional @ [ v ];
        parse rest
    | _ -> usage ()
  in
  (try parse args with Failure _ -> usage ());
  (* the run length BENCHMARK.json fixes, unless given *)
  let seconds =
    match !seconds with
    | Some s -> s
    | None ->
        Option.value ~default:10.0
          (Option.bind (load_spec ()) (fun spec -> Option.bind (J.member "run_seconds" spec) J.num))
  in
  let p = { W.seed = !seed; seconds; trace = !trace; quick = !quick } in
  match sub with
  | "corpus-child" -> W.corpus_child ~setup_only:!setup_only p
  | "compare" -> (
      let workloads =
        if !workload = "" then List.map fst workloads
        else if List.mem_assoc !workload workloads then [ !workload ]
        else usage ()
      in
      match !positional with
      | [ base; change ] when !pairs > 0 ->
          compare_checkouts ~base ~change ~pairs:!pairs ~seed:!seed ~seconds ~workloads
            ~out:!out
      | _ -> usage ())
  | "baseline" ->
      baseline ~seed:!seed ~runs:!runs ~seconds ~trace:!trace ~quick:!quick ~out:!out
  | _ ->
      if not (List.mem_assoc !workload workloads) then usage ();
      let r =
        try run_workload ~name:!workload p
        with e ->
          prerr_endline ("perfbench: " ^ Printexc.to_string e);
          exit 2
      in
      print_endline (result_json r);
      exit (if r.correct then 0 else 1)
