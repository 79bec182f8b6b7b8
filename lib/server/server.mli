(** The solve server: the request → response half of [dcn_served].

    This module owns no sockets. The event-loop engine
    ({!Dcn_engine.Engine}) owns the transport — accept, keep-alive
    parsing, batching, the hot cache, load shedding, drain — and calls
    {!handle} for every endpoint except [POST /solve], whose resolved
    requests it passes to {!solve_resolved}. Every response body is
    rendered here.

    Endpoints:
    - [POST /solve] — JSON request ({!Request.of_json} schema) to JSON
      response with the certified throughput interval. Identical
      concurrent requests coalesce onto one solver run and receive
      byte-identical bodies; optimal-routing results land in the shared
      result store ({!Dcn_store}) when one is installed.
    - [GET /healthz] — liveness probe, carrying the worker facts a sweep
      coordinator needs: [solver_version] (digests only compare across
      identical versions), [jobs] (handler capacity) and [draining].
    - [GET /metrics] — {!Dcn_obs.Metrics} registry snapshot as JSON
      (solver counters, store hits/misses, request latency histogram with
      p50/p95/p99), prefixed with [solver_version] and [uptime_ns] meta
      fields. A coordinator polls it before and after a sweep and diffs
      the parsed snapshots ({!Metrics_io}) for a per-worker delta.
    - [GET /trace] — this process's buffered trace events as a JSON
      envelope ([solver_version], [uptime_ns], [pid], [enabled],
      [events]). [?epoch_ns=N] renders timestamps relative to the
      caller's epoch (see {!Dcn_obs.Trace.epoch_ns}); [?drain=1] empties
      the buffers as they are read, so a long-lived daemon can be
      collected repeatedly without re-sending or accumulating history.
      Requires the daemon to run with [trace_buffer] (or a trace file)
      or the buffers are simply empty.

    Distributed tracing: a [POST /solve] carrying an
    [x-dcn-trace: trace_id/unit_id/flow_id] header runs its solve under
    {!Dcn_obs.Context.with_ids}, so the solve span and every nested
    FPTAS/Dijkstra/cache span carries the coordinator's ids, and emits a
    flow-in event binding the coordinator's dispatch arrow to the remote
    solve span. The header is not part of the request body, hence — like
    [timeout_s] — excluded from the digest: telemetry never changes
    result identity.

    Deadlines are measured from accept time and enforced at FPTAS phase
    boundaries ({!Dcn_flow.Mcmf_fptas.with_cancel}); an exceeded deadline
    is a 504, and riders of a coalesced solve share the leader's fate. *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; see [port_file]. *)
  default_timeout_s : float option;
      (** Deadline for requests that do not set ["timeout_s"]; [None]
          means no deadline. *)
  max_body_bytes : int;
  port_file : string option;
      (** Atomically write the bound port here once listening — the only
          race-free way to use [port = 0]. *)
  metrics_file : string option;  (** Metrics snapshot written at drain. *)
  trace_file : string option;
      (** Chrome-trace span file written at drain; enables tracing. *)
  trace_buffer : bool;
      (** Enable tracing without a drain-time file, for collection over
          [GET /trace] (a coordinator merging fleet traces). *)
  access_log : string option;
      (** Append one {!Dcn_obs.Event_log} JSON line per request: method,
          path, status, wall ms, and for solves the digest and a
          led/coalesced role. *)
  log_tag : string option;
      (** Prefix every daemon log line with ["[tag pid=N] "] so
          interleaved fleet logs stay attributable. *)
}

val default_config : config
(** 127.0.0.1:8080, 300 s default deadline, 8 MiB bodies, no files. *)

type t

val create : config -> t
(** Server state without sockets — {!handle} on a [t] exercises the full
    dispatch/coalescing/deadline logic in-process, which is how the unit
    tests drive it. *)

val handle : t -> accept_ns:int64 -> Http.request -> Http.response
(** Handle one request. [accept_ns] is the monotonic accept timestamp;
    deadlines count from it, so queue wait is part of the budget. *)

val coalesce_pending : t -> int
(** In-flight coalesced solves (see {!Coalesce.pending}); tests use it to
    rendezvous a duplicate with its leader. *)

(** {2 Building blocks for the engine}

    The engine resolves and batches solves itself, then joins this
    module's dispatch pipeline piece by piece, which is what keeps its
    solve bodies byte-identical to {!handle}'s. *)

type served = {
  resp : Http.response;
  sv_digest : string option;  (** Solve digest, when the body resolved. *)
  sv_role : string option;
      (** Access-log role: ["led"] / ["coalesced"] from solves; the
          engine adds its own (["hot"], ["bound"]). *)
}

val plain : Http.response -> served
(** A [served] with no digest and no role. *)

val error_response :
  ?headers:(string * string) list -> int -> string -> Http.response
(** The canonical [{"error": ...}] JSON error body. *)

val answer_head :
  digest:string ->
  req:Request.t ->
  resolved:Request.resolved ->
  (string * Dcn_obs.Json.t) list
(** The members every [/solve] answer body opens with, whichever tier
    produced it: [digest], [topology], [switches], [servers],
    [commodities], [traffic], [routing], [eps], [gap]. *)

val solve_resolved :
  t ->
  accept_ns:int64 ->
  ?trace_ids:string * int * int ->
  digest:string ->
  Request.t ->
  Request.resolved ->
  served
(** The full solve path for an already-resolved request: deadline from
    [accept_ns], digest coalescing, cooperative cancellation, exact
    response-body rendering, result-store write-through. [trace_ids] is
    the parsed [x-dcn-trace] header ({!parse_trace_header}). *)

val account : t -> accept_ns:int64 -> meth:string -> path:string -> served -> Http.response
(** Per-request accounting (latency histogram, status-class counters,
    access-log line); returns [served.resp]. {!handle} calls this
    itself — only the engine's solve dispatch, which goes around
    {!handle}, needs it. *)

val note_request : t -> solve:bool -> unit
(** Count one incoming request (and one solve request) in the serve
    metrics, as {!handle} does on entry. *)

val reject : t -> [ `Capacity | `Draining ] -> Http.response
(** The canonical 429/503 admission rejection, counted in the rejection
    metrics. *)

val parse_trace_header : Http.request -> (string * int * int) option
(** Parse [x-dcn-trace: trace_id/unit_id/flow_id]; [None] when absent or
    malformed. *)

val set_draining : t -> bool -> unit
(** Mark the server as draining: [/healthz] reports [draining: true] and
    orchestrators stop dispatching here. OR'd with the pool's own drain
    flag. *)

val is_draining : t -> bool

val flush_sinks : config -> unit
(** Write the metrics snapshot and trace file, when configured. *)

val close_logs : t -> unit
(** Close the access log, when configured; the last step of the
    engine's shutdown. *)
