(* End-of-run profile report (--profile).

   The BMOC detector records one [channel_sample] per analysed root via
   [note_channel]; the report combines those with per-pass wall times
   (from the engine's pass runs) and the registry's stage counters and
   histograms into a plain-text summary: per-pass and per-stage times,
   the top-N slowest channels with their solver statistics, and
   p50/p95/max for every histogram. *)

type channel_sample = {
  cs_channel : string;
  cs_elapsed_ms : float;
  cs_solver_calls : int;
  cs_sat_conflicts : int;
  cs_sat_decisions : int;
  cs_sat_propagations : int;
  cs_path_events : int;
  cs_timed_out : bool;
}

(* The report's order: slower first, then by channel name. *)
let report_order a b =
  compare (b.cs_elapsed_ms, a.cs_channel) (a.cs_elapsed_ms, b.cs_channel)

(* The samples a report reads.  The report lists only the slowest
   channels, so a store keeps the count of every sample but only the
   [keep] slowest: a long-lived gcatchd notes one sample per analysed
   channel per request.  [slowest] is in reverse report order (fastest
   first), and among equals the earlier sample comes first in report
   order, as a stable sort of every sample would place it; so for any
   [top] up to [keep] the report reads the same as over every sample. *)
type samples = {
  keep : int;
  mutable total : int;
  mutable kept : int;
  mutable slowest : channel_sample list;
}

let samples ~keep () = { keep; total = 0; kept = 0; slowest = [] }

let add t s =
  let rec insert = function
    | e :: rest when report_order e s > 0 -> e :: insert rest
    | l -> s :: l
  in
  t.total <- t.total + 1;
  t.slowest <- insert t.slowest;
  if t.kept < t.keep then t.kept <- t.kept + 1
  else t.slowest <- List.tl t.slowest

(* The process's store, under [mu]. *)
let mu = Mutex.create ()
let store = samples ~keep:64 ()

let note_channel s =
  Mutex.lock mu;
  add store s;
  Mutex.unlock mu;
  (* channel lifecycle in the run journal: one event per analysed root.
     The solver statistics are schedule-independent; elapsed time rides
     in the volatile dur_ms slot that determinism diffs strip. *)
  if Journal.enabled () then
    Journal.emit ~event:"channel.done" ~dur_ms:s.cs_elapsed_ms
      [
        ("channel", Journal.S s.cs_channel);
        ("solver_calls", Journal.I s.cs_solver_calls);
        ("path_events", Journal.I s.cs_path_events);
        ("timed_out", Journal.B s.cs_timed_out);
      ]

(* The kept samples in report order, and the count of all. *)
let snapshot t =
  Mutex.lock mu;
  let r = (List.rev t.slowest, t.total) in
  Mutex.unlock mu;
  r

let channels () = fst (snapshot store)

let reset () =
  Mutex.lock mu;
  store.total <- 0;
  store.kept <- 0;
  store.slowest <- [];
  Mutex.unlock mu

(* [top] at most the store's [keep] (64 for the process's store). *)
let report ?(top = 10) ?(samples = store) (reg : Metrics.t)
    (pass_times : (string * float) list) : string =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "== gcatch profile ==";
  if pass_times <> [] then begin
    line "per-pass wall time:";
    List.iter
      (fun (name, s) -> line "  %-24s %8.1f ms" name (1000.0 *. s))
      pass_times
  end;
  let stage_hists =
    List.filter
      (fun n -> String.length n > 6 && String.sub n 0 6 = "stage.")
      (Metrics.histogram_names reg)
  in
  if stage_hists <> [] then begin
    line "per-stage wall time:";
    List.iter
      (fun n ->
        let h = Metrics.histogram reg n in
        line "  %-24s %8.1f ms  (%d run(s))" n (Metrics.h_sum h)
          (Metrics.h_count h))
      stage_hists
  end;
  let slowest, n = snapshot samples in
  if slowest <> [] then begin
    let shown = if n < top then n else top in
    line "top %d slowest channels (of %d):" shown n;
    List.iteri
      (fun i c ->
        if i < top then
          line
            "  %8.1f ms  %-32s solver_calls=%d conflicts=%d decisions=%d \
             propagations=%d path_events=%d%s"
            c.cs_elapsed_ms c.cs_channel c.cs_solver_calls c.cs_sat_conflicts
            c.cs_sat_decisions c.cs_sat_propagations c.cs_path_events
            (if c.cs_timed_out then "  [timed out]" else ""))
      slowest
  end
  else line "top 0 slowest channels (of 0):";
  (* solve-cache effectiveness, when the registry carries the counters
     (they live in the process-wide registry the CLI reports from) *)
  (let counters = Metrics.counters_list reg in
   let c n = Option.value (List.assoc_opt n counters) ~default:0 in
   let hits = c "bmoc.solve_cache_hit" and misses = c "bmoc.solve_cache_miss" in
   if hits + misses > 0 then
     line
       "solve cache: %d hit(s) / %d miss(es) (%.0f%% hit rate, %d from disk, \
        %d stored)"
       hits misses
       (100.0 *. float_of_int hits /. float_of_int (hits + misses))
       (c "bmoc.solve_cache_disk_hit")
       (c "bmoc.solve_cache_store"));
  (* domain pool: items dispatched across the run, from the
     "sched.tasks_spawned" counter the pool maintains in the process-wide
     registry.  A --jobs 1 run dispatches nothing, so this section is
     diagnostic, never part of determinism comparisons. *)
  (let spawned =
     Option.value
       (List.assoc_opt "sched.tasks_spawned" (Metrics.counters_list reg))
       ~default:0
   in
   if spawned > 0 then begin
     line "scheduler:";
     line "  %d item(s) dispatched" spawned
   end);
  (* analysis health: the supervision layer's unit ledger ("health.*"
     counters; the key names are fixed by Goengine.Supervise, which sits
     above this library) *)
  (let counters = Metrics.counters_list reg in
   let c n = Option.value (List.assoc_opt n counters) ~default:0 in
   let attempted = c "health.attempted" in
   if attempted > 0 then begin
     line "analysis health:";
     line
       "  %d unit(s) attempted: %d ok, %d degraded, %d skipped, %d retried"
       attempted (c "health.ok") (c "health.degraded") (c "health.skipped")
       (c "health.retried");
     let errs = c "store.read_error" + c "store.write_error" in
     if errs > 0 then line "  %d cache I/O error(s) (best-effort)" errs
   end);
  if Sampler.total_samples () > 0 then
    Buffer.add_string b (Sampler.report ~top ());
  let hists = Metrics.histogram_names reg in
  if hists <> [] then begin
    line "histograms (p50 / p95 / max):";
    List.iter
      (fun n ->
        let h = Metrics.histogram reg n in
        if Metrics.h_count h > 0 then
          line "  %-28s %10.1f %10.1f %10.1f  (n=%d)" n
            (Metrics.percentile h 0.5)
            (Metrics.percentile h 0.95)
            (Metrics.h_max h) (Metrics.h_count h))
      hists
  end;
  Buffer.contents b
