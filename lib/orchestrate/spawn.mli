(** Local worker fleets: spawn [dcn_served] daemons on ephemeral ports.

    Each worker runs with [--port 0 --port-file <scratch>/workerN.port];
    the daemon publishes its bound port atomically, so {!endpoint}'s
    poll-until-parse is race-free. stdout/stderr land in a per-worker
    log file, quoted in errors when a worker dies before readiness. *)

type proc = {
  pid : int;
  index : int;
  port_file : string;
  log_file : string;
  mutable reaped : bool;  (** Exit status already collected. *)
}

val find_exe : unit -> string option
(** The daemon binary: [$DCN_SERVED_EXE] if set (and present), else
    [dcn_served(.exe)] next to the calling executable, else [../bin]
    relative to it — the dune build layout. *)

val start :
  ?trace_buffer:bool ->
  ?extra_args:string list ->
  exe:string ->
  scratch_dir:string ->
  index:int ->
  jobs:int ->
  cache_dir:string option ->
  unit ->
  proc
(** Fork one daemon. [cache_dir] should be the coordinator's store root:
    sharing it is what makes a distributed run's store byte-identical to
    a serial run's. [None] passes [--no-cache]. Every worker runs with
    [--log-tag workerN], so its log lines carry its identity and pid.
    [trace_buffer] (default false) starts the daemon with tracing
    buffered for [GET /trace] collection. [extra_args] are appended
    verbatim — daemon flags such as [--engine epoll] or
    [--shed-queue]. *)

val endpoint : ?wait_s:float -> proc -> (Worker.endpoint, string) result
(** Poll the port file (50 ms ticks, default 30 s budget) until the
    daemon publishes its port; fails early — with the log tail — if the
    process exits first. *)

val endpoints : proc list -> (Worker.endpoint list, string) result
(** {!endpoint} of every worker, in order; the first failure wins. *)

val running : proc -> bool
(** Liveness via [waitpid WNOHANG]; collects the status of an exited
    worker as a side effect. *)

val kill : proc -> unit
(** SIGKILL, no grace — the chaos path (tests kill a worker mid-sweep to
    exercise retry). Errors (already gone) are ignored. *)

val stop : ?grace_s:float -> proc list -> unit
(** SIGTERM everyone (the daemon drains in-flight requests and exits),
    wait up to [grace_s] (default 10 s) each, then SIGKILL stragglers.
    Idempotent with {!kill}. *)
