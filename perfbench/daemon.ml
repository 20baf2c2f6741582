(* A gcatchd child process driven over loopback HTTP. *)

module T = Goobs.Telemetry

type t = { pid : int; addr : Unix.sockaddr; out : string }

(* Daemons not yet stopped; killed and reaped if the benchmark exits
   early, so no run leaves a process behind. *)
let live : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Util.waitpid_noeintr pid) with Unix.Unix_error _ -> ())
        !live)

(* Spawn gcatchd on an ephemeral port and wait for its port handshake. *)
let start ?env ~dir ~name args =
  let out = Filename.concat dir (name ^ ".out") in
  let pid =
    Util.spawn ?env ~stdout:out ~stderr:(Filename.concat dir (name ^ ".err"))
      Util.daemon_exe
      ([ "--addr"; "127.0.0.1:0" ] @ args)
  in
  live := pid :: !live;
  let deadline = Util.now () +. 60.0 in
  let rec wait_port () =
    let port =
      match Util.read_file out with
      | exception Sys_error _ -> None
      | s -> (
          match Scanf.sscanf_opt s "gcatchd listening on port %d" Fun.id with
          | Some p -> Some p
          | None -> None)
    in
    match port with
    | Some p -> p
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith ("gcatchd exited during start-up; see " ^ out));
        if Util.now () > deadline then
          failwith "gcatchd did not report a port within 60 s";
        Thread.delay 0.005;
        wait_port ()
  in
  let port = wait_port () in
  { pid; addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port); out }

(* POST /analyse; (status, body), or status 0 on a transport error. *)
let post t body =
  match T.request t.addr ~meth:"POST" ~path:"/analyse" ~body () with
  | r -> r
  | exception e -> (0, Printexc.to_string e)

let metrics t =
  match T.request t.addr ~meth:"GET" ~path:"/metrics" () with
  | 200, text -> Util.parse_prometheus text
  | code, _ -> failwith (Printf.sprintf "gcatchd /metrics answered %d" code)

let peak_rss_mb t =
  Option.value (Util.peak_rss_mb ~pid:(string_of_int t.pid) ()) ~default:nan

let cpu_s t = Util.proc_cpu_s t.pid

(* SIGTERM (a clean drain) or SIGKILL, then reap. *)
let stop ?(kill = false) t =
  (try Unix.kill t.pid (if kill then Sys.sigkill else Sys.sigterm)
   with Unix.Unix_error _ -> ());
  ignore (Util.waitpid_noeintr t.pid);
  live := List.filter (( <> ) t.pid) !live
