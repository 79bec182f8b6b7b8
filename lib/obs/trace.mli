(** Span tracer emitting Chrome trace-event JSON.

    The output of {!write} loads directly in [chrome://tracing] and
    {{:https://ui.perfetto.dev}Perfetto}: one track (tid) per domain that
    emitted events, complete ("X") events for spans, instant ("i") events
    for point occurrences such as cache hits and dual-bound checks, and
    flow ("s"/"f") events linking a dispatch on one process to the solve
    it triggered on another.

    Events are buffered per domain as structured records (domain-local
    sinks, one short mutex hold per event), so tracing adds no
    cross-domain contention to the pool's hot path and no rendering cost
    at record time. {!serialize} renders a buffer relative to any
    requested epoch, which is what makes cross-process merging work: the
    monotonic clock is shared by every process on one machine, so a
    coordinator asks each worker to render against the {e coordinator's}
    {!epoch_ns} and splices the fragments into one timeline. (Workers on
    remote hosts have unrelated clocks; their tracks still merge but are
    not time-aligned.)

    While a {!Context.with_ids} identity is installed, every recorded
    event additionally carries ["trace"] and ["unit"] args, so remote
    solve spans are attributable to the coordinator run and grid unit
    that caused them.

    Tracing is observational only: spans never feed back into the traced
    computation, so results are bit-identical with tracing on or off, at
    any worker count. When disabled (the default), {!begin_span} and
    {!instant} cost one atomic load and one branch. *)

val set_enabled : bool -> unit
(** Turn event capture on or off (default off). *)

val enabled : unit -> bool

val domain_tid : unit -> int
(** Stable per-domain track id (dense, assigned on first use; the first
    domain to emit — normally the main domain — gets [0]). Usable even
    when tracing is disabled, e.g. to label per-domain metrics. *)

val epoch_ns : unit -> int64
(** This process's trace epoch: the monotonic-clock reading captured at
    tracer initialization, against which {!write} renders timestamps. A
    coordinator passes its own epoch to a worker's [GET /trace] so the
    worker's events render on the coordinator's timeline. *)

val new_trace_id : unit -> string
(** Mint a run-level trace id, unique across processes and calls
    (pid + monotonic time + sequence; no global randomness). Contains no
    ['/'], so it can be carried in an [x-dcn-trace] header as
    [trace_id/unit_id/flow_id]. *)

(** {1 Events} *)

type span
(** An open span: name, category and start timestamp. Begin and end must
    happen on the same domain (true of every use in this repository —
    spans delimit work that a single task executes). *)

val begin_span : cat:string -> string -> span

val end_span : ?args:(string * Json.t) list -> span -> unit
(** Emits the complete event; [args] typically carries results computed
    during the span (phase counts, achieved gap). A span begun while
    tracing was disabled is dropped silently. *)

val with_span : cat:string -> ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** [with_span ~cat name f] wraps [f ()] in a span; exceptions propagate
    unchanged (the span is still closed). *)

val instant : cat:string -> ?args:(string * Json.t) list -> string -> unit
(** Thread-scoped instant event. *)

val flow_out : cat:string -> id:int -> ?args:(string * Json.t) list -> string -> unit
(** Flow start ("s"): emit inside the span that hands work off (e.g. a
    coordinator's dispatch span). Viewers draw an arrow from here to the
    {!flow_in} carrying the same [id]. *)

val flow_in : cat:string -> id:int -> ?args:(string * Json.t) list -> string -> unit
(** Flow finish ("f", binding to the enclosing slice): emit inside the
    span that receives the work (e.g. a worker's solve span). *)

(** {1 Output} *)

val serialize : ?epoch_ns:int64 -> ?drain:bool -> unit -> string
(** Render every buffered event as comma-and-newline-separated JSON
    objects — a fragment ready to splice into a ["traceEvents"] array —
    with thread-name/sort-index metadata for each track that carries
    events, timestamps relative to [epoch_ns] (default: this process's
    {!epoch_ns}). With [drain] (default false), buffers are atomically
    emptied as they are read, so repeated collection from a long-lived
    daemon neither re-sends nor unboundedly accumulates old events.
    Returns [""] when nothing is buffered. *)

val write : ?clear:bool -> string -> unit
(** Write every buffered event to the given path as a Chrome trace JSON
    object ([{"traceEvents": [...]}]) with process- and thread-name
    metadata. By default buffers are kept: a later [write] after more
    work supersedes the file with a longer trace. With [~clear:true] the
    buffers are drained (long-lived daemons flushing periodically should
    clear, or each flush re-writes — and re-accumulates — the full
    history). *)

val reset : unit -> unit
(** Drop all buffered events (sinks and track ids survive). *)
