(** Process-wide metrics registry: named counters, gauges and fixed-bucket
    histograms.

    Every metric is [Atomic]-backed, so instrumented code may run on any
    domain of the shared pool; concurrent increments are never lost. The
    registry itself is keyed by name and idempotent: calling {!counter}
    twice with one name returns the same counter, so instrumentation
    points can be declared at module-load time anywhere in the tree.

    {2 Cost model}

    Recording is guarded by a single process-wide flag. When disabled
    (the default), {!incr}, {!add}, {!set} and {!observe} cost one atomic
    load and one branch — nothing is written, so hot paths pay no
    contention. Hot loops should still batch: accumulate into locals and
    flush once per solve/sweep (as {!Dcn_graph.Dijkstra} and the FPTAS
    do), keeping even the enabled path off the per-iteration budget.

    Instrumentation is observational only: no metric feeds back into any
    computation, so results are bit-identical with recording on or off. *)

val set_enabled : bool -> unit
(** Turn recording on or off (default off). *)

val enabled : unit -> bool

(** {1 Instruments} *)

type counter
(** Monotone integer count (events, items processed, nanoseconds). *)

type gauge
(** A float "last value wins" cell. *)

type histogram
(** Fixed-bucket distribution with a running sum. Bucket semantics: for
    bounds [b_0 < b_1 < ... < b_{k-1}], bucket [0] counts values in
    [(-inf, b_0)], bucket [i] (for [1 <= i <= k-1]) counts values in
    [[b_{i-1}, b_i)] — lower bound inclusive, upper bound exclusive —
    and the overflow bucket [k] counts values in [[b_{k-1}, +inf)]. *)

val counter : string -> counter
(** Find or create the counter with this name. Raises [Invalid_argument]
    if the name is already registered as a different metric kind. *)

val gauge : string -> gauge

val histogram : ?bounds:float array -> string -> histogram
(** [bounds] must be strictly increasing and non-empty; the default is an
    exponential grid of latency buckets from 1µs to 30s (suitable for
    durations in seconds). If the name is already registered, the existing
    histogram is returned and [bounds] is ignored. *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit

(** {1 Snapshots} *)

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { bounds : float array; counts : int array; sum : float }

type snapshot = (string * value) list
(** Sorted by metric name. *)

val snapshot : unit -> snapshot
(** Current value of every registered metric (including zero ones). *)

val diff : before:snapshot -> after:snapshot -> snapshot
(** Per-metric delta [after - before]: counters subtract, histogram counts
    and sums subtract, gauges keep their [after] value. Entries with a
    zero delta (and gauges whose value did not change) are dropped, so a
    diff is a compact rollup of what one region of the program did. *)

val merge : snapshot -> snapshot -> snapshot
(** Union of two snapshots: counters and histograms add (histograms must
    share bounds — the second operand wins otherwise), gauges take the
    second operand. [merge before (diff ~before ~after) = after] up to
    dropped all-zero entries. *)

(** {1 Percentile summaries} *)

val bucket_index : float array -> float -> int
(** Index of the bucket a value falls in, under the semantics documented
    at {!histogram}: the first [i] with [v < bounds.(i)], or
    [Array.length bounds] for the overflow bucket. Exposed so callers
    (e.g. the serving load generator) can fill local count arrays with
    exactly the registry's bucketing and feed them to
    {!histogram_quantile}. *)

val histogram_quantile : bounds:float array -> counts:int array -> float -> float
(** [histogram_quantile ~bounds ~counts q] (with [0 <= q <= 1], else
    [Invalid_argument]) estimates the [q]-quantile of the recorded
    distribution as the {e upper edge} of the bucket containing the
    rank-⌈q·n⌉ observation (n = total count). Returns [nan] when the
    histogram is empty and [infinity] when the rank falls in the overflow
    bucket. Because lower bounds are inclusive, a distribution
    concentrated on the bucket boundaries is summarized exactly: observing
    [bounds.(i)] yields quantile [bounds.(i+1)]-free answers — the
    estimate equals the smallest bound strictly greater than the true
    quantile value. *)

val value_quantile : value -> float -> float option
(** {!histogram_quantile} applied to a snapshot entry; [None] for
    counters and gauges. *)

val find : snapshot -> string -> value option

val counter_value : snapshot -> string -> int
(** The counter's value in the snapshot, [0] if absent. *)

val json : snapshot -> Json.t
(** The snapshot as [{"counters": {...}, "gauges": {...}, "histograms":
    {...}}]; histogram entries carry [bounds], [counts], [sum], [count]
    and the bucketed [p50]/[p95]/[p99] summaries ([null] when empty or in
    the overflow bucket, as is a non-finite gauge or sum). Names are
    sorted, so equal snapshots render byte-identically. *)

val to_json : ?meta:(string * Json.t) list -> snapshot -> string
(** {!json}'s three sections as a {!Json.pretty} document, floats exact.
    [meta] prepends extra top-level fields — e.g.
    [solver_version]/[uptime_ns] on the daemon's [/metrics] response;
    readers of the three sections ignore them. *)

val write : path:string -> snapshot -> unit
(** [to_json] through {!Json.atomic_write}. *)

val reset : unit -> unit
(** Zero every registered metric (counters, gauges, histogram counts and
    sums). Intended for tests. *)
