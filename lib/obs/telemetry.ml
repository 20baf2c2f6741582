(* Minimal dependency-free HTTP server (telemetry + request serving).

   Serves a fixed handler table (path -> unit -> response) over a TCP
   socket ("HOST:PORT", port 0 picks an ephemeral port) and/or a
   Unix-domain socket, each on its own systhread.  Threads, not
   domains, deliberately: an extra domain — even one blocked in
   [accept] — turns every minor GC into a multi-domain stop-the-world
   rendezvous, which on a single-core box taxes the *analysis* by tens
   of percent.  A systhread blocked in [accept] holds no runtime lock
   and costs the collector nothing.

   Originally the accept loops handled one connection at a time; good
   enough for scrapes, fatal for serving — one slow client would wedge
   every other request behind its read timeout.  Connections are now
   handled on short-lived systhreads, bounded by [max_conns] (over the
   bound the connection is answered 503 inline and closed, so the
   accept loop itself never blocks on a client).  The parser is
   correspondingly hardened: EINTR and partial reads are retried,
   reads carry a deadline (408 on expiry), POST bodies are bounded by
   [max_body] (413 past it) and require a Content-Length (411).

   GET/HEAD handlers must be read-only with respect to analysis state:
   the observation endpoints exist to observe a run, never to perturb
   it.  Determinism-sensitive callers rely on that — diagnostics are
   byte-identical with the server on or off.  POST handlers ([post])
   are the request-serving side (gcatchd's /analyse) and do real work;
   they receive the parsed request and run on the connection's thread.

   [fetch]/[fetch_post] are the matching loopback clients, used by the
   test suite, the bench harness, and the CLI's --server mode. *)

type response = {
  status : int;
  content_type : string;
  body : string;
  headers : (string * string) list; (* extra headers, e.g. Retry-After *)
}

type handler = unit -> response

type request = {
  rq_path : string;
  rq_headers : (string * string) list; (* keys lowercased *)
  rq_body : string;
}

type post_handler = request -> response

let text ?(status = 200) ?(headers = []) body =
  { status; content_type = "text/plain; charset=utf-8"; body; headers }

let json ?(status = 200) ?(headers = []) body =
  { status; content_type = "application/json"; body; headers }

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 409 -> "Conflict"
  | 411 -> "Length Required"
  | 413 -> "Payload Too Large"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Status"

type t = {
  listeners : (Unix.file_descr * Unix.sockaddr) list;
  threads : Thread.t list;
  stopping : bool Atomic.t;
  active : int Atomic.t; (* live connection threads *)
  t_port : int; (* bound TCP port, 0 when only a Unix socket *)
  t_sock : string option;
}

let port t = t.t_port

(* I/O helpers ----------------------------------------------------------- *)

let rec write_all fd s off =
  let n = String.length s in
  if off < n then
    match Unix.write_substring fd s off (n - off) with
    | 0 -> ()
    | w -> write_all fd s (off + w)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off

let write_all fd s = write_all fd s 0

(* One read with EINTR retry.  Returns 0 on EOF, -1 on timeout
   (EAGAIN/EWOULDBLOCK under SO_RCVTIMEO), -2 on any other error. *)
let rec read_once fd buf =
  match Unix.read fd buf 0 (Bytes.length buf) with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_once fd buf
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> -1
  | exception _ -> -2

(* Read until the blank line ending the headers, keeping whatever body
   bytes arrived in the same segments.  The header block is capped
   (8 KiB) — a request whose headers never end is cut off there and
   fails to parse, which answers 400. *)
let read_head fd =
  let buf = Bytes.create 2048 in
  let b = Buffer.create 256 in
  let find_terminator s from =
    let n = String.length s in
    let rec go i =
      if i + 3 >= n then None
      else if
        s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
      then Some (i + 4)
      else go (i + 1)
    in
    go (max 0 from)
  in
  let rec go scanned =
    if Buffer.length b > 8192 then `Head (Buffer.contents b, -1)
    else
      match read_once fd buf with
      | 0 -> if Buffer.length b = 0 then `Closed else `Head (Buffer.contents b, -1)
      | -1 -> `Timeout
      | n when n < 0 -> `Closed
      | n ->
          Buffer.add_subbytes b buf 0 n;
          let s = Buffer.contents b in
          (match find_terminator s (scanned - 3) with
          | Some body_off -> `Head (s, body_off)
          | None -> go (String.length s))
  in
  go 0

let parse_request_line raw =
  match String.index_opt raw '\n' with
  | None -> None
  | Some i -> (
      let line = String.trim (String.sub raw 0 i) in
      match String.split_on_char ' ' line with
      | meth :: target :: _ ->
          let path =
            match String.index_opt target '?' with
            | Some q -> String.sub target 0 q
            | None -> target
          in
          Some (meth, path)
      | _ -> None)

(* Headers from the raw head block: one per line after the request line,
   "Key: value", keys lowercased, malformed lines skipped. *)
let parse_headers raw body_off =
  let upto = if body_off < 0 then String.length raw else body_off in
  let head = String.sub raw 0 upto in
  match String.index_opt head '\n' with
  | None -> []
  | Some i ->
      String.sub head (i + 1) (String.length head - i - 1)
      |> String.split_on_char '\n'
      |> List.filter_map (fun line ->
             let line = String.trim line in
             match String.index_opt line ':' with
             | None -> None
             | Some c ->
                 Some
                   ( String.lowercase_ascii (String.trim (String.sub line 0 c)),
                     String.trim
                       (String.sub line (c + 1) (String.length line - c - 1)) ))

(* Connection-level fault injection: the conn.accept, conn.read and
   conn.write sites of {!Faults}, one atomic load each with no plan
   armed.  At a connection, raise and timeout drop it, stall slow-lorises
   it (a pause mid-transfer), corrupt truncates the bytes written.

   [fkey] is the request path when known: a plan can select
   "conn.write@/analyse" to hit analysis responses while leaving
   telemetry scrapes alone. *)
let respond ?(fkey = "") fd ~head_only (r : response) =
  let extra =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) r.headers)
  in
  let head =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n%sConnection: \
       close\r\n\r\n"
      r.status (status_text r.status) r.content_type (String.length r.body)
      extra
  in
  let payload = if head_only then head else head ^ r.body in
  match Faults.fire ~site:"conn.write" ~key:fkey () with
  | Some (Faults.Raise | Faults.Timeout) ->
      () (* dropped: the connection closes with nothing written *)
  | Some Faults.Corrupt ->
      (* truncated bytes: the client sees a body shorter than the
         advertised Content-Length and must treat it as a transport
         error, never as a (wrong) answer *)
      let cut = String.length payload / 2 in
      (try write_all fd (String.sub payload 0 cut) with _ -> ())
  | Some Faults.Stall -> (
      (* slow-loris: head, pause, then the rest *)
      try
        write_all fd head;
        Thread.delay Faults.stall_s;
        if not head_only then write_all fd r.body
      with _ -> ())
  | None -> ( try write_all fd payload with _ -> ())

(* Read exactly [want] more body bytes (some may already be in [b]). *)
let read_body fd b want =
  let buf = Bytes.create 4096 in
  let rec go () =
    if Buffer.length b >= want then `Ok (Buffer.sub b 0 want)
    else
      match read_once fd buf with
      | 0 -> `Closed
      | -1 -> `Timeout
      | n when n < 0 -> `Closed
      | n ->
          Buffer.add_subbytes b buf 0 n;
          go ()
  in
  go ()

let handle_client ~handlers ~post ~max_body ~read_timeout fd =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_timeout with _ -> ());
  match Faults.fire ~site:"conn.read" () with
  | Some (Faults.Raise | Faults.Timeout | Faults.Corrupt) ->
      () (* dropped before reading the request *)
  | (None | Some Faults.Stall) as a -> (
      if a <> None then Thread.delay Faults.stall_s;
      match read_head fd with
      | `Closed -> ()
      | `Timeout ->
          respond fd ~head_only:false (text ~status:408 "request timeout\n")
      | `Head (raw, body_off) -> (
          match parse_request_line raw with
          | None -> respond fd ~head_only:false (text ~status:400 "bad request\n")
          | Some (meth, path) when meth = "GET" || meth = "HEAD" -> (
              let head_only = meth = "HEAD" in
              match List.assoc_opt path handlers with
              | None ->
                  respond ~fkey:path fd ~head_only
                    (text ~status:404
                       (Printf.sprintf "no such endpoint: %s\n" path))
              | Some h ->
                  let resp =
                    try h ()
                    with e ->
                      text ~status:500
                        (Printf.sprintf "handler error: %s\n"
                           (Printexc.to_string e))
                  in
                  respond ~fkey:path fd ~head_only resp)
          | Some ("POST", path) -> (
              match List.assoc_opt path post with
              | None ->
                  respond ~fkey:path fd ~head_only:false
                    (text ~status:404
                       (Printf.sprintf "no such endpoint: %s\n" path))
              | Some h -> (
                  let headers = parse_headers raw body_off in
                  match
                    Option.bind
                      (List.assoc_opt "content-length" headers)
                      int_of_string_opt
                  with
                  | None ->
                      respond ~fkey:path fd ~head_only:false
                        (text ~status:411 "content-length required\n")
                  | Some len when len < 0 ->
                      respond ~fkey:path fd ~head_only:false
                        (text ~status:400 "bad request\n")
                  | Some len when len > max_body ->
                      respond ~fkey:path fd ~head_only:false
                        (text ~status:413
                           (Printf.sprintf "body too large: %d > %d\n" len
                              max_body))
                  | Some len -> (
                      let b = Buffer.create (min len 65536) in
                      if body_off >= 0 && body_off < String.length raw then
                        Buffer.add_substring b raw body_off
                          (String.length raw - body_off);
                      match read_body fd b len with
                      | `Closed -> ()
                      | `Timeout ->
                          respond ~fkey:path fd ~head_only:false
                            (text ~status:408 "request timeout\n")
                      | `Ok body ->
                          let resp =
                            try
                              h
                                {
                                  rq_path = path;
                                  rq_headers = headers;
                                  rq_body = body;
                                }
                            with e ->
                              text ~status:500
                                (Printf.sprintf "handler error: %s\n"
                                   (Printexc.to_string e))
                          in
                          respond ~fkey:path fd ~head_only:false resp)))
          | Some (meth, _) ->
              respond fd ~head_only:false
                (text ~status:405
                   (Printf.sprintf "method not allowed: %s\n" meth))))

let accept_loop ~stopping ~active ~max_conns ~handlers ~post ~max_body
    ~read_timeout listen_fd =
  let serve client =
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close client with _ -> ());
        Atomic.decr active)
      (fun () ->
        try
          (* conn.accept faults run on the connection thread, never the
             accept loop: a stall must not wedge other clients *)
          match Faults.fire ~site:"conn.accept" () with
          | Some (Faults.Raise | Faults.Timeout | Faults.Corrupt) ->
              () (* dropped: closed without a byte *)
          | (None | Some Faults.Stall) as a ->
              if a <> None then Thread.delay Faults.stall_s;
              handle_client ~handlers ~post ~max_body ~read_timeout client
        with _ -> ())
  in
  let rec loop () =
    match Unix.accept listen_fd with
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        if Atomic.get stopping then () else loop ()
    | exception _ -> if Atomic.get stopping then () else loop ()
    | client, _ ->
        if Atomic.get stopping then (try Unix.close client with _ -> ())
        else begin
          Atomic.incr active;
          if Atomic.get active > max_conns then begin
            (* answered inline: the accept loop must never block on a
               client, and a refusal writes a few bytes at most *)
            (try
               respond client ~head_only:false
                 (text ~status:503 ~headers:[ ("Retry-After", "1") ]
                    "too many connections\n")
             with _ -> ());
            (try Unix.close client with _ -> ());
            Atomic.decr active
          end
          else ignore (Thread.create serve client);
          loop ()
        end
  in
  loop ()

(* Lifecycle ------------------------------------------------------------- *)

let parse_addr spec =
  match String.rindex_opt spec ':' with
  | None -> Error (Printf.sprintf "bad --telemetry-addr %S: want HOST:PORT" spec)
  | Some i -> (
      let host = String.sub spec 0 i in
      let port_s = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt port_s with
      | None -> Error (Printf.sprintf "bad port in %S" spec)
      | Some p -> (
          let resolve h =
            if h = "" || h = "*" || h = "0.0.0.0" then
              Some Unix.inet_addr_any
            else
              match Unix.inet_addr_of_string h with
              | a -> Some a
              | exception _ -> (
                  match Unix.gethostbyname h with
                  | { Unix.h_addr_list = [||]; _ } -> None
                  | { Unix.h_addr_list = addrs; _ } -> Some addrs.(0)
                  | exception _ -> None)
          in
          match resolve host with
          | Some a -> Ok (Unix.ADDR_INET (a, p))
          | None -> Error (Printf.sprintf "cannot resolve host %S" host)))

(* An address as clients name it: "HOST:PORT" for TCP, anything else is
   a Unix-socket path (a path containing ':' can be forced with a
   leading "unix:").  Used by the CLI's --server flag. *)
let client_sockaddr spec : (Unix.sockaddr, string) result =
  if String.length spec > 5 && String.sub spec 0 5 = "unix:" then
    Ok (Unix.ADDR_UNIX (String.sub spec 5 (String.length spec - 5)))
  else
    match parse_addr spec with
    | Ok (Unix.ADDR_INET (a, p)) when a = Unix.inet_addr_any ->
        Ok (Unix.ADDR_INET (Unix.inet_addr_loopback, p))
    | Ok sa -> Ok sa
    | Error _ when String.contains spec '/' -> Ok (Unix.ADDR_UNIX spec)
    | Error e -> Error e

let listen_on sockaddr =
  let domain = Unix.domain_of_sockaddr sockaddr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  try
    Unix.set_close_on_exec fd;
    if domain <> Unix.PF_UNIX then Unix.setsockopt fd Unix.SO_REUSEADDR true;
    (match sockaddr with
    | Unix.ADDR_UNIX path -> ( try Unix.unlink path with _ -> ())
    | _ -> ());
    Unix.bind fd sockaddr;
    Unix.listen fd 64;
    Ok (fd, Unix.getsockname fd)
  with e ->
    (try Unix.close fd with _ -> ());
    Error (Printexc.to_string e)

let start ?addr ?sock ?(post = []) ?(max_body = 64 * 1024 * 1024)
    ?(read_timeout = 5.0) ?(max_conns = 64) ~handlers () : (t, string) result =
  (* a client that disconnects mid-response must not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let wanted =
    List.filter_map Fun.id
      [
        Option.map (fun a -> `Tcp a) addr;
        Option.map (fun p -> `Unix p) sock;
      ]
  in
  if wanted = [] then Error "telemetry: no address given"
  else begin
    let rec bind_all acc = function
      | [] -> Ok (List.rev acc)
      | `Tcp spec :: rest -> (
          match parse_addr spec with
          | Error e -> Error e
          | Ok sa -> (
              match listen_on sa with
              | Ok l -> bind_all (l :: acc) rest
              | Error e ->
                  Error (Printf.sprintf "telemetry: bind %s: %s" spec e)))
      | `Unix path :: rest -> (
          match listen_on (Unix.ADDR_UNIX path) with
          | Ok l -> bind_all (l :: acc) rest
          | Error e -> Error (Printf.sprintf "telemetry: bind %s: %s" path e))
    in
    match bind_all [] wanted with
    | Error e -> Error e
    | Ok listeners ->
        let stopping = Atomic.make false in
        let active = Atomic.make 0 in
        let threads =
          List.map
            (fun (fd, _) ->
              Thread.create
                (fun () ->
                  accept_loop ~stopping ~active ~max_conns ~handlers ~post
                    ~max_body ~read_timeout fd)
                ())
            listeners
        in
        let t_port =
          List.fold_left
            (fun acc (_, sa) ->
              match sa with
              | Unix.ADDR_INET (_, p) when acc = 0 -> p
              | _ -> acc)
            0 listeners
        in
        Ok { listeners; threads; stopping; active; t_port; t_sock = sock }
  end

(* Wake a blocked [accept] by connecting to its own socket. *)
let poke sa =
  let sa =
    match sa with
    | Unix.ADDR_INET (a, p) when a = Unix.inet_addr_any ->
        Unix.ADDR_INET (Unix.inet_addr_loopback, p)
    | sa -> sa
  in
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () -> try Unix.connect fd sa with _ -> ())

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    List.iter (fun (_, sa) -> poke sa) t.listeners;
    List.iter Thread.join t.threads;
    List.iter (fun (fd, _) -> try Unix.close fd with _ -> ()) t.listeners;
    (* give in-flight connection threads a bounded window to finish —
       their responses are already computed or cheap; past the window we
       abandon them (process teardown closes their fds) *)
    let deadline = Unix.gettimeofday () +. 5.0 in
    while Atomic.get t.active > 0 && Unix.gettimeofday () < deadline do
      Thread.yield ();
      (try Thread.delay 0.01 with _ -> ())
    done;
    match t.t_sock with
    | Some p -> ( try Unix.unlink p with _ -> ())
    | None -> ()
  end

(* Loopback client ------------------------------------------------------- *)

let read_all fd =
  let buf = Bytes.create 4096 in
  let b = Buffer.create 1024 in
  let rec go () =
    match read_once fd buf with
    | n when n <= 0 -> ()
    | n ->
        Buffer.add_subbytes b buf 0 n;
        go ()
  in
  go ();
  Buffer.contents b

(* Split a raw response into (status, headers, body).  A garbled status
   line parses as status 0; a missing header terminator yields an empty
   body — both are transport errors to a careful client. *)
let split_response_full raw =
  let n = String.length raw in
  let code =
    match String.index_opt raw ' ' with
    | Some i when i + 4 <= n ->
        Option.value (int_of_string_opt (String.sub raw (i + 1) 3)) ~default:0
    | _ -> 0
  in
  let rec find_body i =
    if i + 3 >= n then n
    else if
      raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r'
      && raw.[i + 3] = '\n'
    then i + 4
    else find_body (i + 1)
  in
  let off = find_body 0 in
  let headers = parse_headers raw off in
  (code, headers, String.sub raw off (n - off))

(* One-shot request against an explicit address.  Returns
   (status, headers, body); the server closes the connection after the
   response, so reading to EOF delimits it. *)
let request_full sa ~meth ~path ?(body = "") () :
    int * (string * string) list * string =
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      Unix.connect fd sa;
      let payload =
        if meth = "GET" || meth = "HEAD" then
          Printf.sprintf
            "%s %s HTTP/1.1\r\nHost: gcatch\r\nConnection: close\r\n\r\n" meth
            path
        else
          Printf.sprintf
            "%s %s HTTP/1.1\r\nHost: gcatch\r\nContent-Type: \
             application/json\r\nContent-Length: %d\r\nConnection: \
             close\r\n\r\n%s"
            meth path (String.length body) body
      in
      write_all fd payload;
      split_response_full (read_all fd))

let request sa ~meth ~path ?(body = "") () : int * string =
  let code, _, b = request_full sa ~meth ~path ~body () in
  (code, b)

(* Resilient client: capped exponential backoff with deterministic
   (seeded) jitter.  Retries transport-level failures — connect
   refused/reset, an unparseable status line, a body shorter than the
   advertised Content-Length (a truncated or garbled write) — and
   back-pressure answers (429/503), honoring Retry-After when the
   server sends one.  Every other status is returned: the request
   reached a handler and its answer, success or not, is authoritative.
   Safe for /analyse because analysis is idempotent — re-sending a
   request whose connection died is indistinguishable from sending it
   once late.

   Determinism: the jitter is a pure function of (seed, attempt, path),
   so two runs with the same seed sleep the same schedule. *)
let request_retry ?(max_attempts = 6) ?(seed = 0) ?(base_delay = 0.05)
    ?(max_delay = 2.0) sa ~meth ~path ?(body = "") () :
    (int * string, string) result =
  let jitter k =
    let d = Digest.string (Printf.sprintf "%d:%d:%s" seed k path) in
    float_of_int (Char.code d.[0]) /. 255.0
  in
  let backoff k =
    Float.min max_delay (base_delay *. (2.0 ** float_of_int k))
    *. (0.5 +. (0.5 *. jitter k))
  in
  let rec go k =
    let retry err retry_after =
      if k + 1 >= max_attempts then Error err
      else begin
        let d =
          match retry_after with
          | Some s -> Float.min max_delay (float_of_int s)
          | None -> backoff k
        in
        (try Thread.delay d with _ -> ());
        go (k + 1)
      end
    in
    match request_full sa ~meth ~path ~body () with
    | exception e -> retry (Printexc.to_string e) None
    | 0, _, _ -> retry "unparseable response" None
    | code, headers, rbody -> (
        let truncated =
          match
            Option.bind (List.assoc_opt "content-length" headers)
              int_of_string_opt
          with
          | Some l -> String.length rbody < l
          | None -> false
        in
        if truncated then
          retry (Printf.sprintf "truncated response (status %d)" code) None
        else
          match code with
          | 429 | 503 ->
              retry
                (Printf.sprintf "status %d" code)
                (Option.bind
                   (List.assoc_opt "retry-after" headers)
                   int_of_string_opt)
          | _ -> Ok (code, rbody))
  in
  go 0

let self_addr t =
  if t.t_port <> 0 then Unix.ADDR_INET (Unix.inet_addr_loopback, t.t_port)
  else
    match t.t_sock with
    | Some p -> Unix.ADDR_UNIX p
    | None -> invalid_arg "Telemetry.fetch: server has no address"

(* One-shot GET against a server handle (TCP preferred, Unix socket
   otherwise).  Returns (status, body). *)
let fetch t path : int * string = request (self_addr t) ~meth:"GET" ~path ()

let fetch_post t path body : int * string =
  request (self_addr t) ~meth:"POST" ~path ~body ()
