(** One [dcn_served] worker endpoint, over the existing HTTP/JSON
    protocol: URL parsing, the [/healthz] decoding a coordinator admits
    workers on, and the [/solve] call with the error classification the
    scheduler's retry policy keys on. *)

type endpoint = { host : string; port : int }

val name : endpoint -> string
(** ["host:port"] — the worker's identity in manifests and summaries. *)

val parse_url : string -> (endpoint, string) result
(** Accepts [HOST:PORT] or [http://HOST:PORT] (optional trailing
    slash). *)

type health = {
  ok : bool;  (** ["status"] was ["ok"]. *)
  solver_version : string;
      (** Must equal the coordinator's {!Core.Digest_key.solver_version}
          — digests are only comparable across identical versions. *)
  jobs : int;  (** Handler capacity; sizes the dispatch window. *)
  draining : bool;
}

val healthz : ?timeout_s:float -> endpoint -> (health, string) result
(** [GET /healthz], decoded. Default timeout 2 s. *)

val alive : ?timeout_s:float -> endpoint -> bool
(** Healthy and not draining; the scheduler's eviction/re-admission
    probe. *)

val solve :
  ?timeout_s:float ->
  ?trace:string ->
  endpoint ->
  body:string ->
  (string, Scheduler.error_class) result
(** [POST /solve]. [Ok] carries the 200 body; transport errors and
    408/429/5xx are {!Scheduler.Retry}, other 4xx {!Scheduler.Fatal}.
    [timeout_s] bounds connect and each read/write. [trace] — a
    [trace_id/unit_id/flow_id] triple — is sent as the [x-dcn-trace]
    header, so the worker's solve spans inherit the coordinator's ids;
    it is a header, not body, hence excluded from the digest. *)

val metrics :
  ?timeout_s:float -> endpoint -> (Dcn_obs.Metrics.snapshot, string) result
(** [GET /metrics], decoded through {!Dcn_serve.Metrics_io} into the
    local snapshot algebra (diff/merge-ready). Default timeout 5 s. *)

val trace_dump :
  ?timeout_s:float ->
  ?epoch_ns:int64 ->
  ?drain:bool ->
  endpoint ->
  (int * string, string) result
(** [GET /trace]: the worker's pid (its process track id) and the raw
    events fragment, read by {!Dcn_obs.Trace.of_envelope}. [epoch_ns]
    asks the worker to render timestamps relative to the caller's trace
    epoch ({!Dcn_obs.Trace.epoch_ns}), aligning both processes' events on
    one timeline (same-host monotonic clocks share a zero). [drain]
    empties the worker's buffers as they are read. Default timeout
    10 s. *)
