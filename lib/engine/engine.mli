(** The serving engine: [dcn_served]'s transport.

    A single thread multiplexes a non-blocking listener and keep-alive
    HTTP/1.1 connections over {!Poller} (poll(2) readiness), parsing
    incrementally ({!Reqstream}, pipelining included) and answering
    pipelined requests strictly in per-connection arrival order. Solve
    requests are queued, grouped by {!Dcn_serve.Request.topology_key}
    and dispatched to the shared domain pool as topology-batched jobs —
    one topology build (and, on the bound tier, one BFS tree per source)
    amortized across each batch. In front of the solver sit the hot LRU
    body cache ({!Lru}) and, under backlog pressure, the certified
    bound tier ({!Shed}); full FPTAS service resumes as the backlog
    clears.

    Response bodies are rendered by {!Dcn_serve.Server}: GET endpoints
    dispatch through {!Dcn_serve.Server.handle} verbatim and solves
    through {!Dcn_serve.Server.solve_resolved}, so a body served over
    the wire is byte-identical to the in-process one (the LRU returns
    previously rendered bodies unchanged; the bound tier is off unless
    configured).

    Graceful drain: on SIGTERM/SIGINT (or [stop]) the loop marks the
    server draining ([/healthz] says so), keeps answering read-only
    endpoints and in-flight work, 503s new solves, and exits once queues
    and output buffers flush (30 s cap), then retires the pool and
    flushes the observability sinks. *)

type config = {
  base : Dcn_serve.Server.config;
  shed_queue : int;
      (** Backlog high watermark: batches dispatched while more than
          this many jobs remain queued behind them are answered at the
          bound tier. [0] disables shedding. Recovery at half the
          watermark (hysteresis). *)
}
(** The transport's own bounds are constants: 1024 open connections
    (accepts beyond answer 429 and close), kept-alive connections closed
    after 30 s idle, a 4096-entry / 64 MiB hot cache, batches of at most
    8 jobs. *)

val serve : ?stop:bool Atomic.t -> ?on_port:(int -> unit) -> config -> unit
(** Run the loop until SIGTERM/SIGINT — or, when [stop] is given, until
    it becomes true (no signal handlers are installed then, which is how
    tests run an engine in a background thread). [on_port] is called
    with the bound port once listening (in addition to the config's
    [port_file]). *)
