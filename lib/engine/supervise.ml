(* The resilient-analysis supervisor.

   GCatch only scales because it degrades instead of dying: the paper
   bounds path enumeration, budgets the solver per channel, and skips
   scopes that blow up.  This module generalises that posture to *every*
   unit of work the engine runs — a per-file frontend stage, a detector
   pass, a per-function checker walk, a per-channel solve, a cache
   access.  Three pieces:

   - fault boundaries ({!checked}): run a unit, convert any exception
     into a typed outcome plus health counters instead of aborting the
     run — a corpus with one broken file still analyses the rest;
   - global pressure watchdogs: a wall-clock deadline ([--deadline-ms])
     and a heap ceiling ([--max-heap-mb], via [Gc.create_alarm]).  Under
     pressure, units are *skipped at their boundary* and everything
     gathered so far is flushed normally — an orderly partial result
     instead of an OOM kill or an unbounded run;
   - the health ledger: "health.*" counters (attempted / ok / degraded /
     skipped / retried) accumulated in whichever metrics registry the
     unit reports to, surfaced by --json, --profile and the metrics
     dump.

   Diagnostics carry a typed {!Fault} payload so downstream tools can
   distinguish a degraded unit from a real finding; all supervision
   diagnostics are [Warning]s — a degraded unit is not a bug in the
   analysed program, and [--strict] is the switch that turns any of
   them into a hard failure for CI. *)

module D = Diagnostics
module M = Goobs.Metrics
module Log = Goobs.Log

type kind = Degraded | Skipped | Internal_error | Retried

let kind_str = function
  | Degraded -> "degraded"
  | Skipped -> "skipped"
  | Internal_error -> "internal-error"
  | Retried -> "retried"

type fault_info = {
  fi_unit : string; (* "frontend/file2.go", "bmoc.channel chan@f:3", … *)
  fi_kind : kind;
  fi_detail : string;
}

type D.payload += Fault of fault_info

let fault_of (d : D.t) =
  match d.D.payload with Fault f -> Some f | _ -> None

(* Supervision diagnostic: Warning severity by construction (see module
   comment); [pass] names the pass whose unit degraded, "supervise" for
   boundaries that belong to no pass. *)
let diag ?loc ?(pass = "supervise") ~unit_name (k : kind) detail : D.t =
  (* every supervision diagnostic is also a journal event: the ledger of
     degradations survives a later crash even when the diagnostic list
     dies with the process *)
  if Goobs.Journal.enabled () then
    Goobs.Journal.emit ~event:"supervise"
      [
        ("kind", Goobs.Journal.S (kind_str k));
        ("unit", Goobs.Journal.S unit_name);
        ("pass", Goobs.Journal.S pass);
        ("detail", Goobs.Journal.S detail);
      ];
  D.v ~severity:D.Warning ~pass ?loc
    ~payload:(Fault { fi_unit = unit_name; fi_kind = k; fi_detail = detail })
    (Printf.sprintf "%s %s: %s" unit_name (kind_str k) detail)

(* ---------------------------------------------------- health ledger --- *)

let h_attempted = "health.attempted"
let h_ok = "health.ok"
let h_degraded = "health.degraded"
let h_skipped = "health.skipped"
let h_retried = "health.retried"

let health_keys = [ h_attempted; h_ok; h_degraded; h_skipped; h_retried ]

(* The "health.*" slice of a metrics snapshot, with every key present so
   renderers need no defaulting. *)
let health_of (counters : (string * int) list) : (string * int) list =
  List.map
    (fun k -> (k, Option.value (List.assoc_opt k counters) ~default:0))
    health_keys

(* Sum several health snapshots (run = frontend units + every pass's
   units). *)
let health_sum (snaps : (string * int) list list) : (string * int) list =
  List.map
    (fun k ->
      ( k,
        List.fold_left
          (fun acc snap ->
            acc + Option.value (List.assoc_opt k snap) ~default:0)
          0 snaps ))
    health_keys

let health_get (snap : (string * int) list) key =
  Option.value (List.assoc_opt key snap) ~default:0

(* Anything not fully ok: what [--strict] fails on. *)
let health_unclean (snap : (string * int) list) : int =
  health_get snap h_degraded + health_get snap h_skipped
  + health_get snap h_retried

let health_str (snap : (string * int) list) : string =
  Printf.sprintf
    "%d unit(s) attempted: %d ok, %d degraded, %d skipped, %d retried"
    (health_get snap h_attempted)
    (health_get snap h_ok)
    (health_get snap h_degraded)
    (health_get snap h_skipped)
    (health_get snap h_retried)

(* ------------------------------------------------ pressure watchdogs --- *)

(* Deadline: absolute monotonic time, NaN = unset.  Heap: a [Gc] alarm
   checks the major-heap size at the end of every major cycle and trips
   a latch; both are plain atomics so a boundary check is two loads. *)

let deadline_at : float Atomic.t = Atomic.make nan
let heap_tripped : bool Atomic.t = Atomic.make false
let heap_alarm : Gc.alarm option ref = ref None
let heap_mu = Mutex.create ()

let set_deadline_ms ms =
  Atomic.set deadline_at (Clock.now_s () +. (float_of_int ms /. 1000.))

let clear_deadline () = Atomic.set deadline_at nan

(* [Gc.quick_stat] is cheap enough for the per-major-cycle alarm, but
   its [heap_words] is only refreshed by major-GC activity and reads 0
   early in a process; the arming-time check uses the accurate (heap
   walking) [Gc.stat] so an already-exceeded limit trips
   deterministically. *)
let heap_limit_exceeded ?(accurate = false) limit_mb =
  let stat = if accurate then Gc.stat () else Gc.quick_stat () in
  stat.Gc.heap_words * (Sys.word_size / 8) > limit_mb * 1_000_000

let set_max_heap_mb mb =
  Mutex.lock heap_mu;
  (match !heap_alarm with Some a -> Gc.delete_alarm a | None -> ());
  Atomic.set heap_tripped false;
  heap_alarm :=
    Some
      (Gc.create_alarm (fun () ->
           if (not (Atomic.get heap_tripped)) && heap_limit_exceeded mb then begin
             Atomic.set heap_tripped true;
             Log.warn
               ~kv:[ ("limit_mb", string_of_int mb) ]
               "heap watchdog tripped; flushing partial results"
           end));
  Mutex.unlock heap_mu;
  (* an allocation spike between alarms would be missed; check once now
     so a limit already exceeded at arming time trips immediately *)
  if heap_limit_exceeded ~accurate:true mb then Atomic.set heap_tripped true

let clear_max_heap () =
  Mutex.lock heap_mu;
  (match !heap_alarm with Some a -> Gc.delete_alarm a | None -> ());
  heap_alarm := None;
  Atomic.set heap_tripped false;
  Mutex.unlock heap_mu

(* The boundary check: why new work must not start, or [None]. *)
let pressure () : string option =
  if Atomic.get heap_tripped then Some "heap limit reached"
  else
    let d = Atomic.get deadline_at in
    if (not (Float.is_nan d)) && Clock.now_s () > d then
      Some "deadline exceeded"
    else None

(* ------------------------------------------------- health snapshot --- *)

(* Live health state for the /healthz telemetry endpoint: the ledger
   counters from [reg] plus the watchdogs' current verdict.  [ok] is
   false exactly when a pressure watchdog has tripped — degraded or
   skipped units alone leave the process healthy (partial results are
   the design, not a failure), so a scraping monitor alerts on "the run
   is being cut short", not on "one file was broken". *)
let healthz_json ?(reg = M.default) () : bool * string =
  let p = pressure () in
  let ok = p = None in
  let snap = health_of (M.counters_list reg) in
  let v k = health_get snap k in
  let body =
    Printf.sprintf
      "{\"ok\":%b,\"pressure\":%s,\"deadline_armed\":%b,\"heap_armed\":%b,\
       \"attempted\":%d,\"ok_units\":%d,\"degraded\":%d,\"skipped\":%d,\
       \"retried\":%d}"
      ok
      (match p with
      | None -> "null"
      | Some r -> "\"" ^ Goobs.Metrics.json_escape r ^ "\"")
      (not (Float.is_nan (Atomic.get deadline_at)))
      (!heap_alarm <> None) (v h_attempted) (v h_ok) (v h_degraded)
      (v h_skipped) (v h_retried)
  in
  (ok, body)

(* ------------------------------------------------- fault boundaries --- *)

(* One health counter of a boundary, resolved on first use and kept:
   the registry then holds exactly the counters a unit bumped, as it
   would with a lookup per use.  [M.counter] interns, so two domains
   resolving it at once get the same counter. *)
type slot = { s_reg : M.t; s_name : string; s_counter : M.counter option Atomic.t }

let slot reg name = { s_reg = reg; s_name = name; s_counter = Atomic.make None }

let bump_by s n =
  match Atomic.get s.s_counter with
  | Some c -> M.add c n
  | None ->
      let c = M.counter s.s_reg s.s_name in
      Atomic.set s.s_counter (Some c);
      M.add c n

let bump s = bump_by s 1

(* A boundary's health counters: a pass that guards many small units
   (one per function) makes one [boundary] and pays no registry lookup
   per unit. *)
type boundary = {
  b_attempted : slot;
  b_ok : slot;
  b_degraded : slot;
  b_skipped : slot;
}

let boundary (reg : M.t) =
  {
    b_attempted = slot reg h_attempted;
    b_ok = slot reg h_ok;
    b_degraded = slot reg h_degraded;
    b_skipped = slot reg h_skipped;
  }

(* Run one unit of work inside a boundary, after a pre-flight pressure
   check: a unit under pressure is not run at all and counted as
   skipped.  Accounting goes to the boundary's "health.*" counters; the
   caller decides what a degraded unit means (drop it, emit a
   diagnostic, use a fallback).  [unit_name] is only built for the log
   line of a degraded unit.

   [Out_of_memory] and [Stack_overflow] are contained too — by the time
   they reach a boundary the blown-up unit has been abandoned and its
   allocations are garbage, which is precisely the partial-failure story
   this layer exists for. *)
let checked_at (b : boundary) ~(unit_name : unit -> string) (f : unit -> 'a) :
    ('a, [ `Degraded of string | `Skipped of string ]) result =
  bump b.b_attempted;
  match pressure () with
  | Some reason ->
      bump b.b_skipped;
      Error (`Skipped reason)
  | None -> (
      match f () with
      | v ->
          bump b.b_ok;
          Ok v
      | exception e ->
          let detail = Printexc.to_string e in
          bump b.b_degraded;
          Log.warn
            ~kv:[ ("unit", unit_name ()); ("exn", detail) ]
            "unit degraded; analysis continues";
          Error (`Degraded detail))

(* Credit [n] units that ran cleanly elsewhere (their results were
   taken over from an earlier run) to the boundary: [n] attempted and
   [n] ok, as if each had passed through [checked_at].  No counter is
   touched when [n] is 0. *)
let credit (b : boundary) n =
  if n > 0 then begin
    bump_by b.b_attempted n;
    bump_by b.b_ok n
  end

(* [checked_at] for a single unit reporting to [metrics]. *)
let checked ~(metrics : M.t) ~unit_name f =
  checked_at (boundary metrics) ~unit_name:(fun () -> unit_name) f
