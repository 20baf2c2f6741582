(* Persistent run journal: an append-only JSONL event stream.

   Each event is one flat JSON object per line.  Lines are rendered
   into per-domain buffers — pool workers emit thousands of solve and
   channel events per second, and funnelling those through one shared
   mutex taxes a parallel run measurably on small machines — and each
   buffer drains to the file every [flush_every] events or
   [flush_interval_s] seconds, whichever comes first.  A killed run
   thus leaves a usable ledger (at worst each domain's tail since its
   last drain is missing and the final line is partial — readers treat
   the valid parseable lines as the record) while a busy run pays one
   write(2) per batch, not per event.  Because domains drain
   independently, lines are NOT seq-ordered in the file; every line
   carries its own "seq" and readers never rely on file order.  The
   stream is schema-versioned through the first event
   ({"event":"journal.open","schema":"gcatch-journal/1",...}) so later
   readers can evolve.

   Lines carry a fixed volatile prefix — {"seq":N,"ts_ms":T,"event":E —
   and durations always close the object as ,"dur_ms":D}.  Keeping the
   machine-varying fields in fixed positions lets determinism checks
   strip them with a regex and diff the remaining payload across
   schedules (the CI does exactly this for --jobs 1 vs 4).

   The disabled path is a single atomic load; emission never touches the
   metrics registry or diagnostics, so a journal-enabled run produces
   byte-identical analysis output.

   The reader half ([parse_line], [summarize], [report]) reconstructs a
   profile/health summary offline from a journal file — including one
   truncated mid-write — and backs `gcatch report FILE.jsonl`. *)

let schema = "gcatch-journal/1"

type field = S of string | I of int | F of float | B of bool

(* Writer ---------------------------------------------------------------- *)

let on = Atomic.make false
let enabled () = Atomic.get on
let mu = Mutex.create ()
let chan : out_channel option ref = ref None
let seq = Atomic.make 0

(* Durability policy for the journal file.  [Fsync_never] (the default,
   and the pre-existing behaviour) flushes the OS buffer on drain but
   never fsyncs: a SIGKILL can lose whatever the kernel had not written
   back.  [Fsync_close] fsyncs once at [close] — a clean shutdown is
   durable, a kill loses at most the undrained per-domain tails (up to
   [flush_every] lines per domain) plus the kernel's write-back window.
   [Fsync_always] fsyncs on every drain: a killed process loses only
   the undrained per-domain tails, which is the documented bound. *)
type fsync_policy = Fsync_never | Fsync_close | Fsync_always

let fsync_policy_of_string = function
  | "never" -> Some Fsync_never
  | "close" -> Some Fsync_close
  | "always" -> Some Fsync_always
  | _ -> None

let fsync_mode = Atomic.make Fsync_never
let set_fsync p = Atomic.set fsync_mode p

let fsync_oc oc =
  try Unix.fsync (Unix.descr_of_out_channel oc) with _ -> ()

let add_field_json b = function
  | S s ->
      Buffer.add_char b '"';
      Buffer.add_string b (Metrics.json_escape s);
      Buffer.add_char b '"'
  | I n -> Buffer.add_string b (string_of_int n)
  | F x ->
      if Float.is_nan x || Float.is_integer x then
        Buffer.add_string b
          (Printf.sprintf "%.0f" (if Float.is_nan x then 0.0 else x))
      else Buffer.add_string b (Printf.sprintf "%g" x)
  | B bo -> Buffer.add_string b (if bo then "true" else "false")

(* Millisecond value with 3 decimals, written without [Printf] — two of
   these go on every line of the hot emit path. *)
let add_ms b x =
  let scaled = Int64.of_float (Float.round (x *. 1000.0)) in
  let whole = Int64.div scaled 1000L and frac = Int64.rem scaled 1000L in
  Buffer.add_string b (Int64.to_string whole);
  Buffer.add_char b '.';
  let f = Int64.to_int (Int64.abs frac) in
  Buffer.add_char b (Char.chr (48 + (f / 100)));
  Buffer.add_char b (Char.chr (48 + (f / 10 mod 10)));
  Buffer.add_char b (Char.chr (48 + (f mod 10)))

(* The emit path runs once per solve/channel/file event — tens of
   thousands of times on a large app — so the renderer writes straight
   into the caller's buffer instead of going through [Printf] per
   field. *)
let render b ~seq:n ~ts_ms ~event ?dur_ms fields =
  Buffer.add_string b "{\"seq\":";
  Buffer.add_string b (string_of_int n);
  Buffer.add_string b ",\"ts_ms\":";
  add_ms b ts_ms;
  Buffer.add_string b ",\"event\":\"";
  Buffer.add_string b (Metrics.json_escape event);
  Buffer.add_char b '"';
  List.iter
    (fun (k, v) ->
      Buffer.add_string b ",\"";
      Buffer.add_string b (Metrics.json_escape k);
      Buffer.add_string b "\":";
      add_field_json b v)
    fields;
  (match dur_ms with
  | Some d ->
      Buffer.add_string b ",\"dur_ms\":";
      add_ms b d
  | None -> ());
  Buffer.add_string b "}\n"

(* Per-domain line buffers: each domain renders into its own buffer
   under its own (almost always uncontended) mutex and drains to the
   shared channel every [flush_every] lines or [flush_interval_s]
   seconds, whichever comes first.  The shared [mu] is only taken on a
   drain, so four workers emitting thousands of events a second share
   no hot line but the seq counter. *)
let flush_every = 64
let flush_interval_s = 0.25

type dbuf = {
  db_mu : Mutex.t; (* owning domain in steady state; open_/close too *)
  db_buf : Buffer.t;
  mutable db_lines : int;
  mutable db_last : float; (* last drain, gettimeofday seconds *)
}

let dbufs : dbuf list ref = ref [] (* registry, under [mu] *)

let dbuf_key : dbuf Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let db =
        {
          db_mu = Mutex.create ();
          db_buf = Buffer.create 4096;
          db_lines = 0;
          db_last = Unix.gettimeofday ();
        }
      in
      Mutex.lock mu;
      dbufs := db :: !dbufs;
      Mutex.unlock mu;
      db)

(* Write [db]'s pending lines to the file.  Caller holds [db.db_mu]. *)
let drain_locked ~now db =
  Mutex.lock mu;
  (match !chan with
  | Some oc -> (
      try
        Buffer.output_buffer oc db.db_buf;
        flush oc;
        if Atomic.get fsync_mode = Fsync_always then fsync_oc oc
      with _ -> ())
  | None -> ());
  Mutex.unlock mu;
  Buffer.clear db.db_buf;
  db.db_lines <- 0;
  db.db_last <- now

let events_written () = Atomic.get seq

(* Ambient context fields, stamped onto every event while set — gcatchd
   sets [("req", S id)] around each request so a shared journal can be
   sliced per request offline.  One global, not per-domain: the server
   serializes request execution (one analysis at a time), so a
   single ambient scope is always well-defined.  Context rides right
   after "event", before the event's own fields. *)
let context : (string * field) list Atomic.t = Atomic.make []
let set_context fields = Atomic.set context fields
let clear_context () = Atomic.set context []

let emit ?dur_ms ~event fields =
  if Atomic.get on then begin
    let n = Atomic.fetch_and_add seq 1 in
    let now = Unix.gettimeofday () in
    let fields =
      match Atomic.get context with [] -> fields | ctx -> ctx @ fields
    in
    let db = Domain.DLS.get dbuf_key in
    Mutex.lock db.db_mu;
    render db.db_buf ~seq:n ~ts_ms:(now *. 1000.0) ~event ?dur_ms fields;
    db.db_lines <- db.db_lines + 1;
    if db.db_lines >= flush_every || now -. db.db_last >= flush_interval_s
    then drain_locked ~now db;
    Mutex.unlock db.db_mu
  end

let all_dbufs () =
  Mutex.lock mu;
  let bufs = !dbufs in
  Mutex.unlock mu;
  bufs

let drain_all () =
  let now = Unix.gettimeofday () in
  List.iter
    (fun db ->
      Mutex.lock db.db_mu;
      if db.db_lines > 0 then drain_locked ~now db;
      Mutex.unlock db.db_mu)
    (all_dbufs ())

let open_ ~path =
  Atomic.set on false;
  Mutex.lock mu;
  (match !chan with Some oc -> close_out_noerr oc | None -> ());
  chan := None;
  Mutex.unlock mu;
  (* stale lines buffered toward a previous journal must not leak *)
  List.iter
    (fun db ->
      Mutex.lock db.db_mu;
      Buffer.clear db.db_buf;
      db.db_lines <- 0;
      Mutex.unlock db.db_mu)
    (all_dbufs ());
  Mutex.lock mu;
  chan := Some (open_out path);
  Mutex.unlock mu;
  Atomic.set seq 0;
  Atomic.set on true;
  emit ~event:"journal.open"
    [ ("schema", S schema); ("tool", S "gcatch"); ("pid", I (Unix.getpid ())) ];
  drain_all ()

let close () =
  if Atomic.get on then begin
    emit ~event:"journal.close" [];
    Atomic.set on false;
    drain_all ();
    Mutex.lock mu;
    (match !chan with
    | Some oc ->
        (match Atomic.get fsync_mode with
        | Fsync_close | Fsync_always -> fsync_oc oc
        | Fsync_never -> ());
        close_out_noerr oc
    | None -> ());
    chan := None;
    Mutex.unlock mu
  end

(* Reader ---------------------------------------------------------------- *)

(* A journal line as a flat object over {!Json}: strings, numbers,
   booleans and null (read as [S ""]).  Integral numbers read as [I].
   Returns [None] on anything else or on malformed input — a truncated
   final line from a killed run parses as [None] and the summariser
   stops at the valid prefix. *)
let parse_line (s : string) : (string * field) list option =
  let field = function
    | Json.Str s -> Some (S s)
    | Json.Null -> Some (S "")
    | Json.Bool b -> Some (B b)
    | Json.Num f when Float.is_integer f && Float.abs f < 0x1p53 ->
        Some (I (int_of_float f))
    | Json.Num f -> Some (F f)
    | Json.Arr _ | Json.Obj _ -> None
  in
  match Json.parse s with
  | Ok (Json.Obj kvs) ->
      List.fold_right
        (fun (k, v) acc ->
          match (field v, acc) with
          | Some f, Some fields -> Some ((k, f) :: fields)
          | _ -> None)
        kvs (Some [])
  | _ -> None

let str_field fields k =
  match List.assoc_opt k fields with Some (S s) -> Some s | _ -> None

let int_field fields k =
  match List.assoc_opt k fields with
  | Some (I i) -> Some i
  | Some (F f) -> Some (int_of_float f)
  | _ -> None

let float_field fields k =
  match List.assoc_opt k fields with
  | Some (F f) -> Some f
  | Some (I i) -> Some (float_of_int i)
  | _ -> None

(* Offline summary ------------------------------------------------------- *)

type summary = {
  mutable s_schema : string option;
  mutable s_events : int; (* parsed events *)
  mutable s_truncated : bool; (* stopped at a malformed line *)
  mutable s_run_name : string option;
  mutable s_run_files : int;
  mutable s_run_done : bool;
  mutable s_run_digest : string option;
  mutable s_run_diags : int;
  mutable s_run_dur_ms : float;
  mutable s_health : (string * int) list; (* attempted/ok/degraded/... *)
  s_by_event : (string, int) Hashtbl.t;
  s_stages : (string, float * int) Hashtbl.t; (* dur sum, runs *)
  mutable s_passes : (string * int * float) list; (* name, diags, dur; rev *)
  mutable s_channels : (string * float) list; (* name, dur; rev *)
  mutable s_solve_hit : int;
  mutable s_solve_disk_hit : int;
  mutable s_solve_miss : int;
  mutable s_solve_store : int;
  mutable s_files_compiled : int;
  mutable s_files_disk_hit : int;
  mutable s_supervise : (string * int) list; (* kind -> n *)
  mutable s_faults : int;
}

let empty_summary () =
  {
    s_schema = None;
    s_events = 0;
    s_truncated = false;
    s_run_name = None;
    s_run_files = 0;
    s_run_done = false;
    s_run_digest = None;
    s_run_diags = 0;
    s_run_dur_ms = 0.0;
    s_health = [];
    s_by_event = Hashtbl.create 16;
    s_stages = Hashtbl.create 16;
    s_passes = [];
    s_channels = [];
    s_solve_hit = 0;
    s_solve_disk_hit = 0;
    s_solve_miss = 0;
    s_solve_store = 0;
    s_files_compiled = 0;
    s_files_disk_hit = 0;
    s_supervise = [];
    s_faults = 0;
  }

let bump assoc k =
  match List.assoc_opt k assoc with
  | Some n -> (k, n + 1) :: List.remove_assoc k assoc
  | None -> (k, 1) :: assoc

let note_event sum fields =
  match str_field fields "event" with
  | None -> false
  | Some ev ->
      sum.s_events <- sum.s_events + 1;
      Hashtbl.replace sum.s_by_event ev
        (1 + Option.value (Hashtbl.find_opt sum.s_by_event ev) ~default:0);
      let dur = Option.value (float_field fields "dur_ms") ~default:0.0 in
      (match ev with
      | "journal.open" -> sum.s_schema <- str_field fields "schema"
      | "run.start" ->
          sum.s_run_name <- str_field fields "name";
          sum.s_run_files <-
            Option.value (int_field fields "files") ~default:0
      | "run.end" ->
          sum.s_run_done <- true;
          sum.s_run_digest <- str_field fields "digest";
          sum.s_run_diags <-
            Option.value (int_field fields "diags") ~default:0;
          sum.s_run_dur_ms <- dur;
          sum.s_health <-
            List.filter_map
              (fun k ->
                Option.map
                  (fun v -> (k, v))
                  (int_field fields ("health_" ^ k)))
              [ "attempted"; "ok"; "degraded"; "skipped"; "retried" ]
      | "stage.done" -> (
          match str_field fields "stage" with
          | Some st ->
              let d0, n0 =
                Option.value
                  (Hashtbl.find_opt sum.s_stages st)
                  ~default:(0.0, 0)
              in
              Hashtbl.replace sum.s_stages st (d0 +. dur, n0 + 1)
          | None -> ())
      | "pass.done" -> (
          match str_field fields "pass" with
          | Some p ->
              sum.s_passes <-
                ( p,
                  Option.value (int_field fields "diags") ~default:0,
                  dur )
                :: sum.s_passes
          | None -> ())
      | "channel.done" -> (
          match str_field fields "channel" with
          | Some c -> sum.s_channels <- (c, dur) :: sum.s_channels
          | None -> ())
      | "solve.hit" ->
          sum.s_solve_hit <- sum.s_solve_hit + 1;
          if str_field fields "from" = Some "disk" then
            sum.s_solve_disk_hit <- sum.s_solve_disk_hit + 1
      | "solve.miss" ->
          sum.s_solve_miss <- sum.s_solve_miss + 1;
          if List.assoc_opt "stored" fields = Some (B true) then
            sum.s_solve_store <- sum.s_solve_store + 1
      (* journals written before the store flag rode on the miss event *)
      | "solve.store" -> sum.s_solve_store <- sum.s_solve_store + 1
      | "file.compiled" -> sum.s_files_compiled <- sum.s_files_compiled + 1
      | "file.disk_hit" -> sum.s_files_disk_hit <- sum.s_files_disk_hit + 1
      | "supervise" -> (
          match str_field fields "kind" with
          | Some k -> sum.s_supervise <- bump sum.s_supervise k
          | None -> ())
      | "fault.fired" -> sum.s_faults <- sum.s_faults + 1
      | _ -> ());
      true

let summarize_lines (lines : string Seq.t) : summary =
  let sum = empty_summary () in
  let rec go seq =
    match seq () with
    | Seq.Nil -> ()
    | Seq.Cons (line, rest) -> (
        if String.trim line = "" then go rest
        else
          match parse_line line with
          | None -> sum.s_truncated <- true (* stop at the valid prefix *)
          | Some fields ->
              if note_event sum fields then go rest
              else sum.s_truncated <- true)
  in
  go lines;
  sum

let summarize_file path : summary =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let next () =
        match input_line ic with
        | line -> Some line
        | exception End_of_file -> None
      in
      summarize_lines (Seq.of_dispenser next))

let report (sum : summary) : string =
  let b = Buffer.create 1024 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt
  in
  line "== gcatch journal report ==";
  line "schema: %s  (%d event(s)%s)"
    (Option.value sum.s_schema ~default:"unknown")
    sum.s_events
    (if sum.s_truncated then ", truncated: journal ends mid-write" else "");
  (match sum.s_run_name with
  | Some name -> line "run: %s  (%d file(s))" name sum.s_run_files
  | None -> ());
  if sum.s_run_done then
    line "run end: %d diagnostic(s), digest %s, %.1f ms" sum.s_run_diags
      (Option.value sum.s_run_digest ~default:"?")
      sum.s_run_dur_ms
  else if sum.s_run_name <> None then
    line "run end: missing (run killed or journal truncated)";
  let stages =
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) sum.s_stages [])
  in
  if stages <> [] then begin
    line "per-stage wall time:";
    List.iter
      (fun (st, (d, n)) -> line "  %-24s %8.1f ms  (%d run(s))" st d n)
      stages
  end;
  (match List.rev sum.s_passes with
  | [] -> ()
  | passes ->
      line "per-pass wall time:";
      List.iter
        (fun (p, nd, d) ->
          line "  %-24s %8.1f ms  %d diagnostic(s)" p d nd)
        passes);
  if
    sum.s_solve_hit + sum.s_solve_miss > 0
    || sum.s_files_compiled + sum.s_files_disk_hit > 0
  then
    line
      "caches: solve %d hit(s) (%d disk) / %d miss(es) / %d stored; \
       frontend %d file-stage(s) compiled, %d disk hit(s)"
      sum.s_solve_hit sum.s_solve_disk_hit sum.s_solve_miss sum.s_solve_store
      sum.s_files_compiled sum.s_files_disk_hit;
  (match sum.s_health with
  | [] -> ()
  | h ->
      let v k = Option.value (List.assoc_opt k h) ~default:0 in
      line
        "analysis health: %d unit(s) attempted: %d ok, %d degraded, %d \
         skipped, %d retried"
        (v "attempted") (v "ok") (v "degraded") (v "skipped") (v "retried"));
  if sum.s_supervise <> [] then
    line "supervision events: %s"
      (String.concat ", "
         (List.map
            (fun (k, n) -> Printf.sprintf "%d %s" n k)
            (List.sort compare sum.s_supervise)));
  if sum.s_faults > 0 then line "injected faults fired: %d" sum.s_faults;
  (match List.rev sum.s_channels with
  | [] -> ()
  | cs ->
      let slowest =
        List.sort (fun (ca, da) (cb, db) -> compare (db, ca) (da, cb)) cs
      in
      let ncs = List.length slowest in
      let top = if ncs < 10 then ncs else 10 in
      line "top %d slowest channels (of %d):" top ncs;
      List.iteri
        (fun i (c, d) -> if i < 10 then line "  %8.1f ms  %s" d c)
        slowest);
  let by_event =
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) sum.s_by_event [])
  in
  line "events by type:";
  List.iter (fun (k, n) -> line "  %-24s %d" k n) by_event;
  Buffer.contents b
