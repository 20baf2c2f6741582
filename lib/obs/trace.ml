(* Span tracer with per-domain buffers and a Chrome trace-event exporter.

   [with_span ~name f] brackets [f] with monotonic timestamps.  Tracing
   is off by default: the disabled path is a single atomic load and a
   branch, so instrumented hot loops cost nothing measurable when no one
   asked for a trace.

   Each domain owns its span state through [Domain.DLS]: a stack of open
   spans (touched only by the owning domain, so plain mutable) and a
   buffer of closed spans kept as an atomic list so [drain] can swap it
   out from another domain without a lock on the recording path.  States
   self-register in a global list on first use; pool worker domains live
   for the whole process, so registration is once per domain.

   [write_chrome] emits the Chrome trace-event JSON format ("X" complete
   events plus "M" thread_name metadata, one track per domain) loadable
   in Perfetto or chrome://tracing. *)

type span = {
  sp_name : string;
  sp_args : (string * string) list;
  sp_ts_us : float; (* monotonic, microseconds *)
  sp_dur_us : float;
  sp_tid : int; (* Domain.self of the recording domain *)
  sp_parent : string option; (* enclosing span on the same domain *)
  sp_depth : int;
}

let enabled_flag = Atomic.make false

(* When false, spans still maintain the per-domain open-span stacks (so
   the sampling profiler can read spines) but closed spans are not
   buffered — a sampler-only run must not accumulate an unbounded
   closed-span list it never drains. *)
let record_closed = Atomic.make true
let enabled () = Atomic.get enabled_flag

let enable () =
  Atomic.set record_closed true;
  Atomic.set enabled_flag true

(* Spine-only mode for the sampler: stacks live, closed-span buffering
   off.  A later [enable] (e.g. --trace-out together with --sample-hz)
   upgrades to full recording. *)
let enable_spines () =
  if not (Atomic.get enabled_flag) then begin
    Atomic.set record_closed false;
    Atomic.set enabled_flag true
  end

let disable () =
  Atomic.set enabled_flag false;
  Atomic.set record_closed true

type open_span = {
  os_name : string;
  os_t0 : float;
  mutable os_args : (string * string) list;
}

type dstate = {
  ds_tid : int;
  ds_spans : span list Atomic.t;
  mutable ds_stack : open_span list; (* owning domain only *)
}

let registry_mu = Mutex.create ()
let states : dstate list ref = ref []

let key : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let st =
        {
          ds_tid = (Domain.self () :> int);
          ds_spans = Atomic.make [];
          ds_stack = [];
        }
      in
      Mutex.lock registry_mu;
      states := st :: !states;
      Mutex.unlock registry_mu;
      st)

let rec push_span st sp =
  let old = Atomic.get st.ds_spans in
  if not (Atomic.compare_and_set st.ds_spans old (sp :: old)) then
    push_span st sp

(* Span handoff (the domain pool).  A pool item runs under its
   submitter's open-span stack: the worker swaps that stack into its own
   [ds_stack] around the item, so the item's spans parent under the span
   the submitter had open.  The spine is an immutable list, so items on
   several domains may share the submitter's tail: each only pushes and
   pops its own head. *)
type stack = open_span list

let empty_stack : stack = []
let current_stack () : stack = (Domain.DLS.get key).ds_stack

let swap_stack (s : stack) : stack =
  let st = Domain.DLS.get key in
  let prev = st.ds_stack in
  st.ds_stack <- s;
  prev

(* Snapshot of every domain's open-span spine, outermost frame first —
   the sampling profiler's read path.  [ds_stack] is a plain mutable
   field owned by its domain; reading it from the sampler domain is a
   benign race: the field always holds a valid immutable list (a stale
   head at worst misattributes one sample, which sampling tolerates by
   construction).  Only [os_name] is read — [os_args] mutates under the
   owner and stays off-limits here. *)
let sample_stacks () : (int * string list) list =
  Mutex.lock registry_mu;
  let sts = !states in
  Mutex.unlock registry_mu;
  List.filter_map
    (fun st ->
      match st.ds_stack with
      | [] -> None
      | stack -> Some (st.ds_tid, List.rev_map (fun os -> os.os_name) stack))
    sts

let open_span_count () =
  List.fold_left
    (fun acc (_, names) -> acc + List.length names)
    0 (sample_stacks ())

let with_span ~name ?(args = []) f =
  if not (Atomic.get enabled_flag) then f ()
  else if not (Atomic.get record_closed) then begin
    (* spine-only (sampler) mode: maintain the open-span stack for
       [sample_stacks] and nothing else — no clock reads, no depth
       walk, no closed-span assembly.  This branch runs on every span
       of a profiled run, so it stays a push and a pop. *)
    let st = Domain.DLS.get key in
    st.ds_stack <-
      { os_name = name; os_t0 = 0.0; os_args = args } :: st.ds_stack;
    let pop () =
      let st = Domain.DLS.get key in
      match st.ds_stack with
      | _ :: rest -> st.ds_stack <- rest
      | [] -> ()
    in
    match f () with
    | v ->
        pop ();
        v
    | exception e ->
        pop ();
        raise e
  end
  else begin
    let st = Domain.DLS.get key in
    let os = { os_name = name; os_t0 = Mclock.now_us (); os_args = args } in
    let depth = List.length st.ds_stack in
    st.ds_stack <- os :: st.ds_stack;
    Fun.protect
      ~finally:(fun () ->
        let dur = Mclock.now_us () -. os.os_t0 in
        (match st.ds_stack with
        | _ :: rest -> st.ds_stack <- rest
        | [] -> ());
        let parent =
          match st.ds_stack with p :: _ -> Some p.os_name | [] -> None
        in
        if Atomic.get record_closed then
          push_span st
            {
              sp_name = name;
              sp_args = os.os_args;
              sp_ts_us = os.os_t0;
              sp_dur_us = dur;
              sp_tid = st.ds_tid;
              sp_parent = parent;
              sp_depth = depth;
            })
      f
  end

(* Attach key=value args to the innermost open span on this domain; used
   to record facts only known at span end (e.g. a channel's solver-call
   count). *)
let set_args kv =
  if Atomic.get enabled_flag then begin
    let st = Domain.DLS.get key in
    match st.ds_stack with
    | os :: _ -> os.os_args <- os.os_args @ kv
    | [] -> ()
  end

(* Collect and clear every domain's closed spans — each span is returned
   exactly once across all drains.  Sorted by start time for a stable,
   readable order. *)
let drain () =
  Mutex.lock registry_mu;
  let sts = !states in
  Mutex.unlock registry_mu;
  let all =
    List.concat_map (fun st -> Atomic.exchange st.ds_spans []) sts
  in
  List.sort
    (fun a b ->
      compare (a.sp_ts_us, a.sp_tid, a.sp_name) (b.sp_ts_us, b.sp_tid, b.sp_name))
    all

(* Chrome trace-event JSON ----------------------------------------------- *)

let args_json args =
  let b = Buffer.create 32 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\"%s\":\"%s\"" (Metrics.json_escape k)
           (Metrics.json_escape v)))
    args;
  Buffer.add_char b '}';
  Buffer.contents b

let to_chrome_json spans =
  let t0 =
    List.fold_left
      (fun acc sp -> Float.min acc sp.sp_ts_us)
      infinity spans
  in
  let t0 = if t0 = infinity then 0.0 else t0 in
  let tids =
    List.sort_uniq compare (List.map (fun sp -> sp.sp_tid) spans)
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let emit s =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_string b s
  in
  List.iter
    (fun tid ->
      emit
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"domain-%d\"}}"
           tid tid))
    tids;
  List.iter
    (fun sp ->
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"gcatch\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":%s}"
           (Metrics.json_escape sp.sp_name)
           (sp.sp_ts_us -. t0)
           sp.sp_dur_us sp.sp_tid (args_json sp.sp_args)))
    spans;
  Buffer.add_string b "]}";
  Buffer.contents b

let write_chrome ~path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_json spans))
