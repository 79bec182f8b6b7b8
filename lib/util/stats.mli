(** Small descriptive-statistics helpers for experiment output.

    The paper reports means over 20 runs with standard deviations ~1% of the
    mean; these helpers compute exactly those summaries. *)

val mean : float array -> float
(** Arithmetic mean; 0 for an empty array. *)

val stdev : float array -> float
(** Sample standard deviation (n-1 denominator); 0 if fewer than 2 values. *)

val min_max : float array -> float * float
(** Smallest and largest value. Raises [Invalid_argument] on empty input. *)

val median : float array -> float
(** Median (average of middle two for even length). Raises on empty input. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [0,100], linear interpolation between order
    statistics. Raises on empty input or [p] outside the range. *)

val mean_ci95 : float array -> float * float
(** Mean and the half-width of a normal-approximation 95% confidence
    interval (1.96·stdev/√n); half-width 0 for fewer than 2 samples. *)

type summary = {
  mean : float;
  stdev : float;
  min : float;
  max : float;
  count : int;
}

val summarize : float array -> summary
(** All of the above in one pass-friendly record. Raises on empty input. *)
