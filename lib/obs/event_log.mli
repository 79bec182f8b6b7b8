(** Structured event log: timestamped JSON lines, atomically appended.

    Each call to {!log} writes exactly one line —
    [{"ts_ms": <float>, "ev": "<kind>", <fields...>}] — with a single
    [write(2)] under [O_APPEND], the same discipline as the store
    manifest: short appends are effectively atomic even across processes
    sharing the file, and a crash mid-write leaves at most one torn
    final line, which {!read_lines} drops. Writing never raises; an
    event log must not be able to take down the run it observes.

    [ts_ms] is milliseconds of monotonic time since the log's epoch
    (default: the moment of {!create}; pass [?t0_ns] — e.g.
    {!Trace.epoch_ns} — to align event timestamps with a trace's
    timeline). *)

type t

val create : ?t0_ns:int64 -> string -> t
(** Open (creating parent directories and the file as needed, appending
    if it exists) an event log at the given path. *)

val path : t -> string

val log : t -> ev:string -> (string * Json.t) list -> unit
(** Append one event line; the fields render through
    {!Json.add_members}. Thread-safe; never raises. *)

val close : t -> unit

val read_lines : string -> string list
(** All complete (newline-terminated, non-blank) lines of an event-log
    file; a torn final fragment is dropped. Returns [[]] if the file
    does not exist. Lines are returned raw; {!Json.parse}
    reads them. *)
