(* The one on-disk format for every cached or persisted artifact: the
   per-file frontend tiers, detector pass results, per-channel solve
   verdicts, and gcatchd's sources and warm-state manifest.

   An entry is one file per (kind, key) under a directory handle:

     file = MD5(body) ^ body
     body = Marshal(format_version, kind, key, MD5(vbytes)) ^ vbytes
     vbytes = Marshal(value, [No_sharing])

   The fixed-size header carries the value's digest, so [digest] reports
   an entry's content digest from a few hundred bytes of I/O without
   loading the value (the engine keys the pass-result cache on it).

   Writes go to a temp file and are renamed into place, so a reader never
   sees half an entry from a live writer; a crash can at worst leave a
   stray temp file.  One open, write and rename per entry: no fsync, no
   directory scan.  Every access is best-effort — a cache miss is never
   an error for the caller:
   - a corrupt or truncated entry (bad digest, unreadable header, wrong
     kind or key, a value that does not unmarshal) is a miss and is
     unlinked, so the next store rebuilds it;
   - an entry of another format version is a miss left in place: the
     next store at that path replaces it, and gcatchd can report an
     incompatible snapshot instead of silently deleting it;
   - an I/O failure is counted in [store.read_error] / [store.write_error]
     (process-wide, deliberately not in any run registry: warm and cold
     runs must keep byte-identical run-level metrics), and when the
     directory itself has become unusable the handle retires to
     memory-only with ONE warning.

   Fault sites [<site>.read] / [<site>.write] ([site] is "cache" for the
   analysis tiers and sources, "snapshot" for the warm-state manifest)
   mean the same on every entry: raise/timeout is a counted I/O error,
   stall sleeps (yielding inside a scheduled task), corrupt truncates the
   entry's bytes — on disk for a write, as read for a read. *)

module M = Goobs.Metrics

(* Bumped whenever a kind's value type changes: Marshal is untyped, so an
   entry written under another layout must read as a miss. *)
let format_version = "gcatch-store/2"

(* A directory handle.  Handles are shared per directory path, so the
   frontend, pass and solve tiers pointed at one --cache-dir retire
   together with a single warning. *)
type t = { dir : string; live : bool Atomic.t }

let handles : (string, t) Hashtbl.t = Hashtbl.create 4
let handles_mu = Mutex.create ()

let at dir =
  Mutex.lock handles_mu;
  let t =
    match Hashtbl.find_opt handles dir with
    | Some t -> t
    | None ->
        let t = { dir; live = Atomic.make true } in
        Hashtbl.add handles dir t;
        t
  in
  Mutex.unlock handles_mu;
  t

let path t ~kind ~key = Filename.concat t.dir ("gcatch-" ^ key ^ "." ^ kind)

let c_read_error = lazy (M.counter M.default "store.read_error")
let c_write_error = lazy (M.counter M.default "store.write_error")

(* A vanished directory (as opposed to a bad entry) is what retires a
   handle; [mkdir] reinstates it when the parent still exists. *)
let usable dir =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
  try Sys.is_directory dir with Sys_error _ -> false

let failed t counter =
  M.incr (Lazy.force counter);
  if (not (usable t.dir)) && Atomic.compare_and_set t.live true false then
    Goobs.Log.warn
      ~kv:[ ("dir", t.dir) ]
      "cache directory unavailable; continuing memory-only"

(* [`Truncate] for a corrupt action; raise and timeout raise. *)
let fault ~site ~key =
  match Faults.fire ~site ~key () with
  | None -> `Clean
  | Some Faults.Stall ->
      Pool.sleep_yielding Faults.stall_s;
      `Clean
  | Some Faults.Corrupt -> `Truncate
  | Some (Faults.Raise | Faults.Timeout) -> raise (Faults.Injected (site, key))

let half s = String.sub s 0 (String.length s / 2)

(* ----------------------------------------------------------- decode --- *)

type status = Missing | Corrupt | Version_mismatch of string | Valid

(* Classify the header frame at [raw.[ofs]] without trusting its shape:
   Marshal is untyped, and files written by earlier formats carry a bare
   version string or a tuple of another arity.  A string in the version
   slot names the writer's format.  [Ok (vdigest, header_len)] for a
   current entry of [kind] and [key]. *)
let header raw ~ofs ~kind ~key =
  let str o = Obj.is_block o && Obj.tag o = Obj.string_tag in
  match (Marshal.from_string raw ofs : Obj.t) with
  | exception _ -> Error Corrupt
  | h when str h -> Error (Version_mismatch (Obj.obj h))
  | h
    when not
           (Obj.is_block h && Obj.tag h = 0
           && Obj.size h >= 1
           && str (Obj.field h 0)) ->
      Error Corrupt
  | h ->
      let field i : string = Obj.obj (Obj.field h i) in
      if field 0 <> format_version then Error (Version_mismatch (field 0))
      else if
        Obj.size h = 4
        && List.for_all (fun i -> str (Obj.field h i)) [ 1; 2; 3 ]
        && field 1 = kind && field 2 = key
      then Ok (field 3, Marshal.total_size (Bytes.unsafe_of_string raw) ofs)
      else Error Corrupt

(* Digest check, then header check, of a whole entry file. *)
let classify raw ~kind ~key =
  let n = String.length raw in
  if n < 16 || Digest.substring raw 16 (n - 16) <> String.sub raw 0 16 then
    Error Corrupt
  else header raw ~ofs:16 ~kind ~key

let decode raw ~kind ~key =
  match classify raw ~kind ~key with
  | Error s -> Error s
  | Ok (vd, hl) -> (
      match Marshal.from_string raw (16 + hl) with
      | v -> Ok (v, vd)
      | exception _ -> Error Corrupt)

let read_file p =
  match open_in_bin p with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))

(* ------------------------------------------------------------ access --- *)

(* The entry's value and value digest, or [None] on any miss. *)
let read ?(site = "cache") t ~kind ~key : ('a * string) option =
  if not (Atomic.get t.live) then None
  else begin
    (* yield around the blocking syscalls: a scheduled task reading the
       store gives other tasks a turn before and after the I/O *)
    Pool.yield ();
    let p = path t ~kind ~key in
    let r =
      match
        let f = fault ~site:(site ^ ".read") ~key in
        match read_file p with
        | None -> None
        | Some raw ->
            let raw = if f = `Truncate then half raw else raw in
            Some (decode raw ~kind ~key)
      with
      | None -> None
      | Some (Ok v) -> Some v
      | Some (Error Corrupt) ->
          (* the unlink is best-effort: another process may have dropped
             the same corrupt entry a beat earlier *)
          (try Sys.remove p with Sys_error _ -> ());
          None
      | Some (Error _) -> None
      | exception _ ->
          failed t c_read_error;
          None
    in
    Pool.yield ();
    r
  end

(* Store [v]; [Ok digest] of its marshalled bytes, or [Error reason]
   when nothing was stored (the failure is already counted). *)
let write ?(site = "cache") t ~kind ~key v : (string, string) result =
  if not (Atomic.get t.live) then Error "cache directory retired"
  else begin
    Pool.yield ();
    let tmp =
      Filename.concat t.dir
        (Printf.sprintf ".gcatch-%s.%s.%d.tmp" key kind (Unix.getpid ()))
    in
    let r =
      match
        let f = fault ~site:(site ^ ".write") ~key in
        if not (Sys.file_exists t.dir) then Unix.mkdir t.dir 0o755;
        let vbytes = Marshal.to_string v [ Marshal.No_sharing ] in
        let vd = Digest.to_hex (Digest.string vbytes) in
        let body =
          Marshal.to_string (format_version, kind, key, vd) [] ^ vbytes
        in
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc (Digest.string body);
            output_string oc (if f = `Truncate then half body else body));
        Sys.rename tmp (path t ~kind ~key);
        vd
      with
      | vd -> Ok vd
      | exception e ->
          (try Sys.remove tmp with Sys_error _ -> ());
          failed t c_write_error;
          Error (Printexc.to_string e)
    in
    Pool.yield ();
    r
  end

(* Just the value digest from an entry's header, without reading the
   value bytes.  Trusts the writer: body integrity is only checked by
   [read] on an actual value load — a corrupted entry merely yields a key
   nothing was stored under, which converges to a recompute. *)
let digest t ~kind ~key : string option =
  if not (Atomic.get t.live) then None
  else
    match open_in_bin (path t ~kind ~key) with
    | exception Sys_error _ -> None
    | ic -> (
        match
          let n = in_channel_length ic in
          if n < 16 + Marshal.header_size then None
          else begin
            seek_in ic 16;
            let h0 = really_input_string ic Marshal.header_size in
            let dsz = Marshal.data_size (Bytes.unsafe_of_string h0) 0 in
            if n < 16 + Marshal.header_size + dsz then None
            else
              let h = h0 ^ really_input_string ic dsz in
              match header h ~ofs:0 ~kind ~key with
              | Ok (vd, _) -> Some vd
              | Error _ -> None
          end
        with
        | r ->
            close_in_noerr ic;
            r
        | exception _ ->
            close_in_noerr ic;
            None)

(* Classify an entry without loading its value or firing fault sites:
   gcatchd's startup validation must report what is actually on disk. *)
let check t ~kind ~key : status =
  let p = path t ~kind ~key in
  if not (Sys.file_exists p) then Missing
  else
    match read_file p with
    | exception _ -> Corrupt
    | None -> Corrupt
    | Some raw -> (
        match classify raw ~kind ~key with Ok _ -> Valid | Error s -> s)

(* Startup probe for --cache-dir: the directory must be creatable and
   writable, surfaced as a clear error before a daemon binds — not as
   silent degradation on the first store. *)
let validate_dir dir : (unit, string) result =
  try
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    if not (Sys.is_directory dir) then
      Error (Printf.sprintf "--cache-dir %s: not a directory" dir)
    else begin
      let probe =
        Filename.concat dir (Printf.sprintf ".gcatch-probe.%d" (Unix.getpid ()))
      in
      let oc = open_out_bin probe in
      output_string oc "probe";
      close_out oc;
      Sys.remove probe;
      Ok ()
    end
  with e ->
    Error
      (Printf.sprintf "--cache-dir %s: not writable (%s)" dir
         (Printexc.to_string e))
