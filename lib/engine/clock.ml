(* Monotonic time source for all pipeline and pass timers.

   [Unix.gettimeofday] is wall-clock time: NTP slews and manual clock
   adjustments show up as negative or wildly wrong elapsed times in
   long-running analyses.  Every timer in the engine reads
   CLOCK_MONOTONIC instead, via the bechamel binding that is already
   part of the build. *)

let now_ns () : int64 = Monotonic_clock.now ()

let now_s () : float = Int64.to_float (now_ns ()) /. 1e9

(* Seconds elapsed since an earlier [now_s] reading. *)
let elapsed_since (t0 : float) : float = now_s () -. t0
