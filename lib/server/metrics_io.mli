(** Cross-process metrics decoding.

    {!Dcn_obs.Metrics.to_json} renders a snapshot; this module parses
    that rendering back into a {!Dcn_obs.Metrics.snapshot}, so a
    coordinator polling a worker's [GET /metrics] can apply the local
    snapshot algebra — [diff] before/after polls for a per-worker delta,
    [merge] across the fleet — to remote telemetry. Meta fields outside
    the [counters]/[gauges]/[histograms] sections ([solver_version],
    [uptime_ns]) and the derived histogram summaries ([count],
    [p50]/[p95]/[p99]) are ignored.

    Precision: the document renders every float exactly, so finite
    gauges, histogram sums and bounds decode bit for bit, and a diff or
    merge of decoded snapshots equals the same operation on the
    originals. A non-finite gauge or sum renders as [null] and decodes
    as [nan]. *)

val snapshot_of_body :
  string -> (Dcn_obs.Metrics.snapshot, string) result
(** Parse and decode a metrics document. Entries are returned sorted by
    name, matching {!Dcn_obs.Metrics.snapshot} order. *)
