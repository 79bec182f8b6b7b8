(* Shared fixed-size domain pool.

   One process-wide pool of worker domains executes batches of independent
   tasks. Submitters always participate in their own batch, so parallelism
   composes: a figure-level task that submits a run-level batch drains that
   batch itself even when every worker is busy, which makes nested [run]
   calls deadlock-free by construction (waiting only ever happens on tasks
   that some thread is actively executing). [run_with] lets the submitter
   do its own work between the tasks it claims, waiting only on tasks
   another thread has already claimed.

   Claiming is lock-free (an [Atomic] cursor per batch); the mutex only
   guards the batch queue, worker lifecycle and condition variables. Tasks
   are expected to be coarse, a fraction of a millisecond or more (the
   finest are the FPTAS's dual-sweep chunks, a few shortest-path trees
   each), so the per-completion broadcast is negligible. *)

module Metrics = Dcn_obs.Metrics
module Trace = Dcn_obs.Trace

(* Scheduling observability. Queue wait is measured from batch submission
   to task start (the submitter's own drain included — its tasks waited
   behind the ones already running); busy time is credited to the
   executing domain so per-domain busy fractions can be read off the
   metrics file. All of it is skipped behind one branch when both metrics
   and tracing are disabled. *)
let m_tasks = Metrics.counter "pool.tasks"
let m_batches = Metrics.counter "pool.batches"
let m_queue_wait_s = Metrics.histogram "pool.queue_wait_s"
let m_task_run_s = Metrics.histogram "pool.task_run_s"

let busy_counter () =
  Metrics.counter (Printf.sprintf "pool.domain%d.busy_ns" (Trace.domain_tid ()))

type batch = {
  total : int;
  run : int -> unit;  (* must not raise; [submit] wraps the user task *)
  next : int Atomic.t;  (* next unclaimed task index *)
  completed : int Atomic.t;
}

let mutex = Mutex.create ()

(* Signaled when work arrives or the worker target shrinks. *)
let work_available = Condition.create ()

(* Signaled on every task completion by a worker; batch owners wait here. *)
let task_done = Condition.create ()

(* Newest-first: workers prefer inner (nested) batches, whose completion
   unblocks the outer tasks that submitted them. Async single-task batches
   from [submit] are appended at the tail instead, so detached work (e.g.
   server request handlers) is claimed FIFO and never starves a nested
   batch some thread is waiting on. *)
let batches : batch list ref = ref [] [@@dcn.guarded_by "mutex"]

(* Drain/shutdown state for detached tasks. [async_outstanding] counts
   [submit]ted tasks not yet finished; [shutting_down] makes further
   submissions fail fast. Both guarded by [mutex]. *)
let shutting_down = ref false [@@dcn.guarded_by "mutex"]
let async_outstanding = ref 0 [@@dcn.guarded_by "mutex"]

let default_workers = max 0 (Domain.recommended_domain_count () - 1)
let target = ref default_workers [@@dcn.guarded_by "mutex"]
let live = ref 0 [@@dcn.guarded_by "mutex"]

let handles : unit Domain.t list ref = ref [] [@@dcn.guarded_by "mutex"]

let set_workers n =
  if n < 0 then invalid_arg "Pool.set_workers: negative worker count";
  Mutex.lock mutex;
  target := n;
  (* Re-open a pool that was shut down: the daemon never resizes after
     [shutdown], but tests (and any embedder that drains between runs)
     compose better when a later [set_workers] restores service. *)
  shutting_down := false;
  if !live > n then Condition.broadcast work_available;
  Mutex.unlock mutex

let workers () = !target
[@@dcn.lint
  "lockset: deliberately unlocked read — a momentarily stale worker count \
   only informs sizing heuristics, never correctness"]

let enabled () = !target > 0
[@@dcn.lint
  "lockset: deliberately unlocked read — callers use it as a fast-path \
   hint and [run]/[submit] re-check under the mutex"]

(* The worker's path from claim to completion allocates nothing, so a
   worker running many short tasks (the FPTAS's dual-sweep chunks) leaves
   its minor heap, and so the process's resident memory, untouched. Only
   pruning, once per exhausted batch, builds a new list. *)
let exhausted b = Atomic.get b.next >= b.total

let prune_exhausted () =
  if List.exists exhausted !batches then
    batches := List.filter (fun b -> not (exhausted b)) !batches

let complete b =
  ignore (Atomic.fetch_and_add b.completed 1);
  Mutex.lock mutex;
  Condition.broadcast task_done;
  Mutex.unlock mutex

(* Must hold [mutex]. Claim one task from the newest batch that still has
   unclaimed work and run it, releasing [mutex]; [false], still holding
   it, when there is none. *)
let rec claim_and_run = function
  | [] -> false
  | b :: rest ->
      let i = Atomic.fetch_and_add b.next 1 in
      if i < b.total then begin
        Mutex.unlock mutex;
        b.run i;
        complete b;
        true
      end
      else claim_and_run rest

let rec worker_loop () =
  Mutex.lock mutex;
  let rec decide () =
    if !live > !target then begin
      live := !live - 1;
      Mutex.unlock mutex
    end
    else begin
      prune_exhausted ();
      if claim_and_run !batches then worker_loop ()
      else begin
        Condition.wait work_available mutex;
        decide ()
      end
    end
  in
  decide ()

(* Must hold [mutex]. *)
let ensure_workers () =
  while !live < !target do
    live := !live + 1;
    handles := Domain.spawn worker_loop :: !handles
  done

(* Join all workers at exit so the runtime never shuts down under a live
   domain blocked in [Condition.wait]. *)
let () =
  at_exit (fun () ->
      Mutex.lock mutex;
      target := 0;
      Condition.broadcast work_available;
      (* Snapshot under the mutex (as [shutdown] does): reading [handles]
         after unlocking raced a concurrent [ensure_workers]. *)
      let hs = !handles in
      handles := [];
      Mutex.unlock mutex;
      List.iter Domain.join hs)

let run_with ~total f ~caller =
  if total < 0 then invalid_arg "Pool.run_with: negative task count";
  if (not (enabled ())) || total <= 1 then begin
    (* Serial: [help] runs the next task in index order, and whatever
       the caller left runs after it; an exception propagates at once,
       as from a plain loop. *)
    let next = ref 0 in
    let help () =
      if !next < total then begin
        let i = !next in
        next := i + 1;
        f i;
        true
      end
      else false
    in
    caller help;
    while help () do
      ()
    done
  end
  else begin
    (* Deterministic exception propagation: remember the failure with the
       smallest task index, matching what a serial loop would raise
       first. *)
    let first_exn : (int * exn * Printexc.raw_backtrace) option ref =
      ref None
    in
    let record i e bt =
      Mutex.lock mutex;
      (match !first_exn with
      | Some (j, _, _) when j <= i -> ()
      | _ -> first_exn := Some (i, e, bt));
      Mutex.unlock mutex
    in
    let submit_ns =
      if Metrics.enabled () || Trace.enabled () then Dcn_obs.Clock.now_ns ()
      else 0L
    in
    (* The submitter's context labels (e.g. the current figure name)
       follow its tasks onto whichever domain executes them. *)
    let ctx = Dcn_obs.Context.capture () in
    (* Nothing raises between the two installs, so the executing
       domain's own context is restored without a closure. *)
    let task i =
      let own = Dcn_obs.Context.capture () in
      Dcn_obs.Context.install ctx;
      (try f i with e -> record i e (Printexc.get_raw_backtrace ()))
      [@dcn.lint
        "catch-all: not swallowed — the smallest-index failure is \
         re-raised with its backtrace by the batch owner after the \
         batch drains, matching serial-loop semantics"];
      Dcn_obs.Context.install own
    in
    let run_one i =
      if not (Metrics.enabled () || Trace.enabled ()) then task i
      else begin
        let t0 = Dcn_obs.Clock.now_ns () in
        if Metrics.enabled () then begin
          Metrics.incr m_tasks;
          Metrics.observe m_queue_wait_s
            (Dcn_obs.Clock.seconds_between submit_ns t0)
        end;
        let sp = Trace.begin_span ~cat:"pool" "task" in
        task i;
        Trace.end_span sp ~args:[ ("index", Dcn_obs.Json.Int i) ];
        if Metrics.enabled () then begin
          let t1 = Dcn_obs.Clock.now_ns () in
          Metrics.observe m_task_run_s (Dcn_obs.Clock.seconds_between t0 t1);
          Metrics.add (busy_counter ()) (Int64.to_int (Int64.sub t1 t0))
        end
      end
    in
    Metrics.incr m_batches;
    let b =
      { total; run = run_one; next = Atomic.make 0; completed = Atomic.make 0 }
    in
    Mutex.lock mutex;
    batches := b :: !batches;
    ensure_workers ();
    Condition.broadcast work_available;
    Mutex.unlock mutex;
    (* Participate: the submitter claims from its own batch only, so it
       is never diverted to long-running foreign work. *)
    let help () =
      let i = Atomic.fetch_and_add b.next 1 in
      if i < b.total then begin
        run_one i;
        ignore (Atomic.fetch_and_add b.completed 1);
        true
      end
      else false
    in
    let complete_batch () =
      while help () do
        ()
      done;
      Mutex.lock mutex;
      while Atomic.get b.completed < total do
        Condition.wait task_done mutex
      done;
      prune_exhausted ();
      Mutex.unlock mutex;
      match !first_exn with
      | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    in
    (* A caller that raises still waits for the batch, whose tasks may
       write into its state; a task's failure is raised first. *)
    match caller help with
    | () -> complete_batch ()
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        complete_batch ();
        Printexc.raise_with_backtrace e bt
  end

let run ~total f = run_with ~total f ~caller:ignore

(* ---- detached tasks and graceful drain ---------------------------- *)

let m_submitted = Metrics.counter "pool.submitted"

let submit f =
  let task () =
    (* Detached tasks have nobody to re-raise into; a task that leaks an
       exception is a bug in the caller, surfaced on stderr rather than
       silently killing a worker domain. *)
    (try f ()
     with e ->
       Printf.eprintf "Pool.submit: task raised %s\n%!" (Printexc.to_string e))
    [@dcn.lint
      "catch-all: detached tasks have no waiter to re-raise into; leaks \
       are reported on stderr instead of killing a worker domain"];
    Mutex.lock mutex;
    async_outstanding := !async_outstanding - 1;
    Condition.broadcast task_done;
    Mutex.unlock mutex
  in
  Mutex.lock mutex;
  if !shutting_down then begin
    Mutex.unlock mutex;
    false
  end
  else if !target = 0 then begin
    (* Pool disabled: degrade to synchronous execution on the caller, the
       same serial fallback [run] uses. *)
    async_outstanding := !async_outstanding + 1;
    Mutex.unlock mutex;
    Metrics.incr m_submitted;
    task ();
    true
  end
  else begin
    async_outstanding := !async_outstanding + 1;
    Metrics.incr m_submitted;
    let ctx = Dcn_obs.Context.capture () in
    let b =
      {
        total = 1;
        run = (fun _ -> Dcn_obs.Context.with_captured ctx task);
        next = Atomic.make 0;
        completed = Atomic.make 0;
      }
    in
    (* Tail append: FIFO among detached tasks, and always behind nested
       [run] batches (which some thread is actively waiting on). The list
       is short — bounded by the embedder's admission control. *)
    batches := !batches @ [ b ];
    ensure_workers ();
    Condition.broadcast work_available;
    Mutex.unlock mutex;
    true
  end

let draining () = !shutting_down
[@@dcn.lint
  "lockset: deliberately unlocked read — admission control may observe \
   the flag one task late; [submit] re-checks under the mutex"]

let shutdown () =
  Mutex.lock mutex;
  shutting_down := true;
  while !async_outstanding > 0 do
    Condition.wait task_done mutex
  done;
  (* Retire the worker domains so the process can exit without live
     domains blocked in [Condition.wait]; a second call finds no
     outstanding tasks and no handles and returns immediately. *)
  target := 0;
  Condition.broadcast work_available;
  let hs = !handles in
  handles := [];
  Mutex.unlock mutex;
  List.iter Domain.join hs
