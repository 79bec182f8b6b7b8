(** Cross-process metrics decoding.

    {!Dcn_obs.Metrics.to_json} renders a snapshot; this module parses
    that rendering back into a {!Dcn_obs.Metrics.snapshot}, so a
    coordinator polling a worker's [GET /metrics] can apply the local
    snapshot algebra — [diff] before/after polls for a per-worker delta,
    [merge] across the fleet — to remote telemetry. Meta fields outside
    the [counters]/[gauges]/[histograms] sections ([solver_version],
    [uptime_ns]) and the derived histogram summaries ([count],
    [p50]/[p95]/[p99]) are ignored; bounds survive only to [%.6g]
    precision, which shifts quantile edges invisibly but never counts or
    merge arithmetic. *)

val snapshot_of_json :
  Dcn_obs.Json.t -> (Dcn_obs.Metrics.snapshot, string) result
(** Decode a parsed metrics document. Entries are returned sorted by
    name, matching {!Dcn_obs.Metrics.snapshot} order. *)

val snapshot_of_body :
  string -> (Dcn_obs.Metrics.snapshot, string) result
(** {!Dcn_obs.Json.parse} then {!snapshot_of_json}. *)
