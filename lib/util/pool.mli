(** Process-wide fixed-size domain pool with a shared work queue.

    All parallel constructs in the repository ({!Parallel.map},
    {!Parallel.map_array}, and through them the run-level parallelism of
    the experiment layer) dispatch onto this single pool, so nested
    parallelism composes instead of oversubscribing the machine with
    per-call [Domain.spawn].

    Total concurrency is [workers () + 1]: the pool's worker domains plus
    the submitting thread, which always executes tasks of its own batch.
    Because submitters drain their own batches, nested {!run} calls cannot
    deadlock — a batch whose tasks have all been claimed is being executed
    by threads that are guaranteed to make progress.

    Determinism: the pool only schedules; tasks receive their index and
    must derive any randomness from it (as every experiment in this
    repository does via seeded [Random.State]). Results are therefore
    independent of the worker count. *)

val set_workers : int -> unit
(** [set_workers n] sets the number of worker domains to [n] ([n >= 0]).
    [0] disables the pool: {!run} degrades to a serial loop. Workers are
    spawned lazily on the next {!run} that needs them; shrinking takes
    effect as soon as the excess workers finish their current task. The
    default is [Domain.recommended_domain_count () - 1]. Calling it after
    {!shutdown} re-opens the pool (useful in tests; a draining daemon
    should not). Shrinking to [0] while {!submit}ted tasks are still
    queued can strand them — resize before detached work is in flight. *)

val workers : unit -> int
(** Current worker-domain target. *)

val enabled : unit -> bool
(** [workers () > 0]. *)

val run : total:int -> (int -> unit) -> unit
(** [run ~total f] executes [f 0 .. f (total-1)], each exactly once, using
    the pool's workers plus the calling thread; returns when all are done.
    Tasks must be independent and must not share unsynchronized mutable
    state. If several tasks raise, the exception of the smallest task index
    is re-raised after the batch completes (matching what a serial loop
    would surface first); unlike a serial loop, later tasks still run. *)

val run_with :
  total:int -> (int -> unit) -> caller:((unit -> bool) -> unit) -> unit
(** [run_with ~total f ~caller] is {!run} with work of the caller's own
    alongside the batch: once the batch is queued, [caller help] runs on
    the calling thread, where [help ()] claims one unclaimed task of the
    batch, runs it and returns [true], or returns [false] when every task
    has been claimed. Tasks are claimed in index order. When [caller]
    returns, the calling thread runs the tasks still unclaimed and waits
    for the rest; [run] is [run_with ~caller:ignore].

    [caller] may wait for a task's effects (the FPTAS routes a source as
    soon as the task building its tree is done), but only for a task some
    thread has claimed, that is after [help ()] returned [false] or after
    running it itself. Such a task is being executed, so the wait ends.

    With the pool disabled or [total <= 1], [help] runs the next task in
    index order on the caller, and an exception from a task propagates
    through [caller] at once, as from a plain loop. Otherwise a failing
    task's exception (the smallest index's) is re-raised once the batch
    completes, and an exception from [caller] is re-raised after the
    batch completes if no task failed. *)

(** {1 Detached tasks and graceful drain}

    The serving layer ({!Dcn_serve.Server}) feeds its accept loop into the
    pool: each connection becomes one detached task, and shutdown drains
    them before the process exits. *)

val submit : (unit -> unit) -> bool
(** [submit f] enqueues [f] as a single detached task, executed by a
    worker domain as soon as one is free; the caller does not wait.
    Detached tasks are claimed in submission order, always after any
    in-flight {!run} batch. Returns [false] — and does not run [f] — once
    {!shutdown} has begun. With the pool disabled ([workers () = 0]), [f]
    runs synchronously on the caller before [submit] returns [true].
    Exceptions escaping [f] are printed to stderr and dropped: detached
    tasks must handle their own errors. *)

val draining : unit -> bool
(** True once {!shutdown} has begun: subsequent {!submit}s are rejected. *)

val shutdown : unit -> unit
(** Stop accepting detached tasks ({!submit} returns [false] from this
    point on), wait until every previously submitted task has completed,
    then retire and join the worker domains. {!run} still works afterwards
    (serially, until {!set_workers} re-opens the pool). A second call is a
    no-op. *)
