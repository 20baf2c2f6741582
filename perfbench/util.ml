(* Shared plumbing: clocks, order statistics, files, child processes,
   /proc readers and the Prometheus text parser the engine views use. *)

let now = Goengine.Clock.now_s

(* ------------------------------------------------------------ stats --- *)

(* Quantile of a sample by the "exclusive" method of Python's
   [statistics.quantiles]: position p*(n+1), linear interpolation.
   Where that position falls outside [1, n] Python extrapolates past the
   smallest or largest value; this clamps the result to the sample
   instead, so a p90 of three values is their maximum.  Quartiles of
   three or more values are not affected and agree with Python's. *)
let quantile (xs : float list) p =
  match List.sort compare xs with
  | [] -> nan
  | [ x ] -> x
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let pos = p *. float_of_int (n + 1) in
      let j = max 1 (min (n - 1) (int_of_float (Float.floor pos))) in
      let frac = pos -. float_of_int j in
      Float.min a.(n - 1) (Float.max a.(0) (a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. frac)))

let median xs = quantile xs 0.5

(* Inter-quartile distance as a share of the median: the run-to-run
   spread the regression bounds are judged against. *)
let spread xs =
  let m = median xs in
  if List.length xs < 2 || m = 0.0 then 0.0
  else (quantile xs 0.75 -. quantile xs 0.25) /. Float.abs m

(* ------------------------------------------------------------ files --- *)

(* Read to end of file rather than trusting the file's size, which
   /proc files report as 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let b = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        match input ic chunk 0 4096 with
        | 0 -> Buffer.contents b
        | n ->
            Buffer.add_subbytes b chunk 0 n;
            go ()
      in
      go ())

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Everything the benchmark writes lives under this directory of the
   checkout it runs in: generated inputs and daemon cache dirs in a
   per-process directory removed at exit, traces under "out". *)
let work_root = ".perfbench"

let work_dir = Filename.concat work_root (Printf.sprintf "run-%d" (Unix.getpid ()))
let () = at_exit (fun () -> rm_rf work_dir)

let fresh_dir name =
  let d = Filename.concat work_dir name in
  rm_rf d;
  mkdir_p d;
  d

(* ----------------------------------------------------- processes ------ *)

(* The binaries under test are built into the same tree as this one:
   <build>/perfbench/main.exe next to <build>/bin/. *)
let bin_dir = Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin"
let cli_exe = Filename.concat bin_dir "gcatch_cli.exe"
let daemon_exe = Filename.concat bin_dir "gcatchd_cli.exe"

(* The environment children run in: the caller's, minus every knob that
   would change what the system under test does (job count, cache
   directory, fault plan, GC verbosity), plus [extra]. *)
let child_env ?(extra = []) () =
  let drop v =
    List.exists
      (fun prefix -> String.starts_with ~prefix v)
      [ "GCATCH_"; "OCAMLRUNPARAM=" ]
  in
  Array.of_list
    (List.filter (fun v -> not (drop v)) (Array.to_list (Unix.environment ()))
    @ extra)

let open_out_fd path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644

(* Spawn [prog args] with stdout/stderr redirected to files. *)
let spawn ?(env = child_env ()) ~stdout ~stderr prog args =
  let out = open_out_fd stdout and err = open_out_fd stderr in
  Fun.protect
    ~finally:(fun () ->
      Unix.close out;
      Unix.close err)
    (fun () ->
      Unix.create_process_env prog
        (Array.of_list (prog :: args))
        env Unix.stdin out err)

let rec waitpid_noeintr pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr pid

let exit_code = function
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED s -> 128 + abs s
  | Unix.WSTOPPED _ -> 255

(* ---------------------------------------------------------- /proc ----- *)

(* A "Key:   1234 kB" field of /proc/<pid>/status, in kB. *)
let status_kb pid key =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | exception _ -> None
  | s ->
      List.find_map
        (fun line ->
          match String.index_opt line ':' with
          | Some i when String.sub line 0 i = key ->
              Scanf.sscanf_opt
                (String.sub line (i + 1) (String.length line - i - 1))
                " %d" Fun.id
          | _ -> None)
        (String.split_on_char '\n' s)

(* Peak resident set (VmHWM) of a live process, or of this one. *)
let peak_rss_mb ?(pid = "self") () =
  Option.map (fun kb -> float_of_int kb /. 1024.0) (status_kb pid "VmHWM")

(* User+system CPU seconds a live process has used (USER_HZ = 100). *)
let proc_cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* fields after the parenthesised command name; utime and stime are the
     12th and 13th of them *)
  let rest =
    String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2)
  in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.0

let children_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Run a child to completion, sampling its VmHWM until it exits.
   Returns (exit code, wall seconds, peak RSS MB, CPU seconds). *)
let run_child ?env ~stdout ~stderr prog args =
  let cpu0 = children_cpu_s () in
  let t0 = now () in
  let pid = spawn ?env ~stdout ~stderr prog args in
  let peak = ref 0.0 and stop = Atomic.make false in
  let sampler =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          (match peak_rss_mb ~pid:(string_of_int pid) () with
          | Some mb -> peak := Float.max !peak mb
          | None -> ());
          Thread.delay 0.01
        done)
      ()
  in
  let st = waitpid_noeintr pid in
  let wall = now () -. t0 in
  Atomic.set stop true;
  Thread.join sampler;
  (exit_code st, wall, !peak, children_cpu_s () -. cpu0)

(* -------------------------------------------------------- metrics ----- *)

(* Samples of a Prometheus exposition ("name value" lines, comments and
   bucket lines skipped) as an assoc list keyed by sample name. *)
let parse_prometheus text =
  List.filter_map
    (fun line ->
      if line = "" || line.[0] = '#' || String.contains line '{' then None
      else
        match String.rindex_opt line ' ' with
        | None -> None
        | Some i ->
            Option.map
              (fun v -> (String.sub line 0 i, v))
              (float_of_string_opt
                 (String.sub line (i + 1) (String.length line - i - 1))))
    (String.split_on_char '\n' text)

(* [after - before] for every sample of [after]. *)
let delta ~before ~after =
  List.map
    (fun (k, v) -> (k, v -. Option.value (List.assoc_opt k before) ~default:0.0))
    after

(* A registry name's sample in an exposition: "stage.sig.ms" with suffix
   "_sum" is "gcatch_stage_sig_ms_sum". *)
let sample ?(suffix = "") samples name =
  Option.value
    (List.assoc_opt (Goobs.Metrics.sanitize name ^ suffix) samples)
    ~default:0.0

(* ----------------------------------------------------------- output --- *)

let say fmt = Printf.ksprintf (fun s -> print_endline s; flush stdout) fmt

let json_str s = "\"" ^ Goobs.Metrics.json_escape s ^ "\""

(* Numbers keep every digit the measurement has, so runs can be told
   apart and compared exactly. *)
let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v
