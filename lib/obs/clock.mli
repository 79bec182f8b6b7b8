(** Monotonic process clock.

    Backed by [clock_gettime(CLOCK_MONOTONIC)], which is immune to wall
    clock steps (NTP slews, manual adjustment): durations computed from it
    are always non-negative. All timing in the repository — bench figure
    timings, span durations, latency histograms — goes through this module
    rather than [Unix.gettimeofday]. *)

val now_ns : unit -> int64
(** Nanoseconds on the monotonic clock. Only differences are meaningful;
    the epoch is unspecified (boot time on Linux). Allocation-free. *)

val seconds_between : int64 -> int64 -> float
(** [seconds_between t0 t1] is [(t1 - t0)] in seconds, clamped to [0.]
    (the clamp is defensive; the monotonic clock cannot run backwards). *)

val elapsed_s : int64 -> float
(** [elapsed_s t0] is [seconds_between t0 (now_ns ())]. *)

val ns_of_s : float -> int64
(** Seconds to nanoseconds, saturating at ±2{^62} ns (about 146 years) so
    that [Int64.add (now_ns ()) (ns_of_s s)] cannot overflow for any [s],
    however large; NaN maps to [0L]. *)
