(** The coordinator: expand a grid, skip what the store already holds,
    execute the rest serially or across a worker fleet, stream results
    into the store, and record an auditable manifest.

    The store is the source of truth: a unit whose digest is present
    (entries self-validate on read) is complete regardless of who
    computed it. Both modes dispatch through the one {!Scheduler.run}
    call; serial mode is a one-member fleet driving the full server
    dispatch stack in-process, so serial and distributed runs produce
    byte-identical stores — the property the CI smoke job asserts with
    [diff -r] — and count the same [sched.*] decisions.

    Telemetry is strictly observational: the trace id rides in the
    [x-dcn-trace] header (never the body, so digests are unchanged), and
    no metric, span or event feeds back into any computation, so the
    store stays byte-identical with telemetry on or off, at any worker
    count. *)

type exec =
  | Serial
      (** A one-member fleet: in-process {!Dcn_serve.Server.handle},
          capacity 1 (one unit at a time, in id order), no health probe.
          A non-200 answer fails the unit at once — in-process failures
          are deterministic, so it is never retried. *)
  | Fleet of Worker.endpoint list
      (** Scheduler dispatch over [dcn_served] workers. Each endpoint is
          admitted via [/healthz]; a solver-version mismatch fails the
          run (digests are only comparable across identical versions). *)

type source = From_cache | Computed of string  (** Worker name. *)

type outcome = {
  o_unit : Grid.unit_;
  o_body : string;  (** The 200 response body (also the store payload). *)
  o_source : source;
  o_attempts : int;  (** 0 for cache replays. *)
  o_hedged : bool;
  o_seconds : float;
      (** Wall time of the winning attempt; for cache replays, the
          manifest-recorded original time when available, else 0. *)
}

type worker_info = {
  wi_pid : int option;  (** The daemon's pid, when the caller spawned it. *)
  wi_log : string option;  (** Its log file, for the summary. *)
}

(** What to observe, all off by default ({!no_telemetry}). *)
type telemetry = {
  t_trace : string option;
      (** Write a merged Perfetto trace here: the coordinator's dispatch
          spans plus every worker's drained [GET /trace] buffer, one
          process track per participant, flow arrows from each dispatch
          to its remote solve. Spawned fleets should enable the workers'
          [--trace-buffer]. *)
  t_event_log : string option;
      (** Append one JSON line per scheduler decision (dispatch, retry
          backoff, hedge, first-result-wins discard, eviction,
          re-admission, health probe) plus run_start/cache_replay/
          run_end markers; see {!Dcn_obs.Event_log}. *)
  t_worker_info : (string * worker_info) list;
      (** Worker name ({!Worker.name}) → spawn-time identity, folded
          into the summary's per-worker stats. *)
}

val no_telemetry : telemetry

(** Per-worker rollup from the worker's own [/metrics] registry: the
    delta between admission and completion, so a shared long-lived
    daemon reports only this run's work (plus anything concurrent). *)
type worker_stat = {
  ws_worker : string;
  ws_pid : int option;
  ws_log : string option;
  ws_units : int;  (** Units this worker completed (scheduler view). *)
  ws_solves : int;  (** [serve.solve.requests] delta. *)
  ws_cache_hits : int;  (** [store.hits] delta. *)
  ws_cache_misses : int;  (** [store.misses] delta. *)
  ws_solve_p50_s : float option;
      (** Bucketed quantiles of [fptas.solve_s]; [None] when the worker
          recorded no solves or the rank fell in the overflow bucket. *)
  ws_solve_p95_s : float option;
  ws_solve_p99_s : float option;
  ws_queue_p95_s : float option;  (** [pool.queue_wait_s] p95. *)
}

type summary = {
  total : int;
  from_cache : int;
  computed : int;
  per_worker : (string * int) list;  (** (worker, completed units). *)
  dispatched : int;
  retried : int;
  hedged : int;
  discarded : int;  (** Hedge losers dropped (first-result-wins). *)
  evicted : int;
  readmitted : int;
  failed : (string * string) list;  (** (unit label, error). *)
  wall_s : float;
  trace_id : string option;
      (** The run's trace id (minted when any telemetry is on) — the
          ["trace"] arg on every span of this run, local and remote. *)
  worker_stats : worker_stat list;
}

val summary_to_json : summary -> string
(** Renders every field, plus a ["sched"] object holding the decision
    counts (dispatched/retried/hedged/discarded/evicted/readmitted/
    completed/failed) — the same numbers the [sched.*] counters track
    and the event log records line by line, so the three views
    reconcile. *)

val run :
  ?scheduler:Scheduler.config ->
  ?unit_timeout_s:float ->
  ?probe_timeout_s:float ->
  ?resume:bool ->
  ?telemetry:telemetry ->
  ?on_outcome:(outcome -> unit) ->
  store:Dcn_store.Store.t ->
  grid:Grid.t ->
  exec ->
  (outcome list * summary, string) result
(** Run the grid to completion. [unit_timeout_s] (default 300) is
    injected into each dispatched request (the worker 504s at the same
    deadline the client stops waiting; excluded from digests, so
    byte-identity holds). [resume] loads the manifest's unit records
    for timing/warnings — completion itself is always re-verified
    against the store, and a recorded unit whose entry is missing or
    corrupt is recomputed with a stderr warning, never trusted.
    [telemetry] (default {!no_telemetry}) adds the merged trace, the
    structured event log and per-worker metrics deltas; serial runs observe the in-process pipeline with a single
    ["serial"] worker track. [on_outcome] streams results as they land
    (serialized; called from worker threads). Outcomes are returned
    sorted by unit id. [Error] is orchestration-level (a grid point
    whose topology cannot be built, unreachable/mismatched fleet, all
    workers lost); per-unit failures land in
    [summary.failed]. The summary is also written as the [summary.json]
    manifest artifact. *)
