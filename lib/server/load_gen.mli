(** Deterministic load generator for the solve server.

    Request [i] carries body [i mod V] (round robin over the variants),
    so the request mix is a pure function of [(requests, bodies)] — the
    CI smoke test predicts the server's exact cache-miss count from it.
    Open-loop when [qps > 0] (request [i] released at [t0 + i/qps],
    avoiding coordinated omission), closed-loop when [qps = 0].
    Percentiles use the same fixed-bucket machinery as the server's
    histograms ({!Dcn_obs.Metrics.bucket_index},
    {!Dcn_obs.Metrics.histogram_quantile}).

    Every worker thread holds one persistent HTTP/1.1 keep-alive
    connection ({!Http.conn}) reused across its requests; the report's
    [connects]/[reuse_rate] expose how well reuse held (a server that
    closes per response — or mid-burst — shows up as a low rate, not an
    error). *)

type row = { status : int; latency_s : float; body : string }
(** [status = 0] means the connection itself failed. *)

type report = {
  total : int;
  by_status : (int * int) list;  (** Sorted (status, count); 0 = conn error. *)
  p50 : float;
  p95 : float;
  p99 : float;
  max_s : float;
  duplicates_identical : bool;
      (** Within each (variant, serving tier) pair, all 2xx bodies were
          byte-identical. Bound-tier bodies (marked ["tier": "bound"])
          are compared against each other, not against full answers. *)
  elapsed_s : float;
  connects : int;  (** TCP connections established across all workers. *)
  reuse_rate : float;
      (** [1 - connects/requests]: 0 when every request dialed fresh,
          approaching 1 under perfect keep-alive. *)
  bound_responses : int;  (** 2xx bodies carrying ["tier": "bound"]. *)
  rps : float;  (** [total / elapsed_s]. *)
}

val run :
  host:string ->
  port:int ->
  bodies:string array ->
  requests:int ->
  concurrency:int ->
  qps:float ->
  unit ->
  report * row array
(** Fire [requests] POSTs at [/solve] from [concurrency] worker threads;
    returns the report and the per-request rows (slot [i] is request
    [i]). Each worker holds one persistent connection and waits for each
    response before sending its next request. Raises [Invalid_argument]
    on an empty [bodies] or [requests < 1]. *)

val print_report : report -> unit
