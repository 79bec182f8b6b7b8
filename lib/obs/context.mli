(** Domain-local context naming and identifying the work currently
    executing: a label stack set by experiment drivers, plus an optional
    distributed-trace identity (run trace id + unit id) installed by the
    serving layer around remote solves.

    Lower layers (per-sample spans, progress lines, the tracer) read the
    context to tag what they emit without threading names through every
    call. The context is domain-local: labels and ids set inside one pool
    task never leak into tasks running on other domains. Code that fans
    work out to the pool should capture {!capture} {e before} submitting
    and bake it into the task closures; the pool wraps every task in
    {!with_captured}, so both labels and trace ids follow work across
    domains. *)

val with_label : string -> (unit -> 'a) -> 'a
(** Push the label for the duration of the callback (exception-safe). *)

val get : unit -> string option
(** Innermost label on the calling domain, if any. *)

val with_ids : trace:string -> unit_id:int -> (unit -> 'a) -> 'a
(** Install a distributed-trace identity for the duration of the
    callback (exception-safe). The tracer stamps every event recorded
    while an identity is installed with ["trace"] and ["unit"] args, so
    a worker's FPTAS/Dijkstra/cache spans carry the coordinator's ids. *)

val ids : unit -> (string * int) option
(** The calling domain's current trace identity, if any. *)

type saved
(** A captured context, ready to transplant onto another domain. *)

val capture : unit -> saved
(** The calling domain's current context. Cheap (one domain-local read). *)

val with_captured : saved -> (unit -> 'a) -> 'a
(** Install a captured context for the duration of the callback,
    restoring the domain's own context afterwards (exception-safe). *)

val install : saved -> unit
(** Make a captured context the calling domain's own. {!with_captured}
    is [capture], [install], the callback and [install] of the captured
    original; a caller that cannot raise between the two installs (the
    pool, which catches every task's exception) pairs them itself and
    allocates no closure. *)
