(** The dispatch engine: digest-keyed work units over an abstract worker
    fleet, with retries, exponential backoff, straggler hedging, and
    health-driven eviction/re-admission.

    Transport-agnostic: workers are any ['w] and the transport a plain
    blocking function, so the policy is unit-testable with in-process
    fakes; production plugs in {!Worker.solve} and {!Worker.alive}.

    Dispatch preference for an idle worker thread: lowest-id pending
    unit the worker has not tried, then lowest-id pending unit it has
    (a unit whose last failure was on this worker is skipped while any
    other live worker exists); once the queue drains, the oldest
    in-flight unit older than [hedge_after_s] is re-issued on a second
    worker — first result wins, the duplicate is discarded (safe:
    responses are byte-identical by digest). *)

type error_class =
  | Fatal of string
      (** The request itself is bad (e.g. HTTP 4xx): fail the unit now,
          no worker would answer differently. Not held against the
          worker. *)
  | Retry of string
      (** Transport/server trouble (refused, reset, timeout, 5xx): back
          off and re-dispatch, preferably elsewhere; counts toward the
          worker's eviction. *)

type config = {
  max_attempts : int;  (** Failed attempts before the unit fails. *)
  backoff_base_s : float;
      (** Backoff after the k-th failure is
          [min backoff_max_s (backoff_base_s * 2^(k-1))]. *)
  backoff_max_s : float;
  hedge_after_s : float option;
      (** Age before an in-flight unit may be hedged; [None] disables
          hedging. *)
  evict_after : int;
      (** Consecutive [Retry] failures before a worker is evicted. *)
  health_period_s : float;  (** Probe cadence of the health thread. *)
  poll_s : float;  (** Idle/backoff polling tick. *)
}

val default_config : config
(** 4 attempts, 50 ms base / 2 s cap backoff, hedge after 1 s, evict
    after 3, 1 s health period, 20 ms poll. *)

(** One typed event per scheduler decision, delivered to [?on_event] in
    decision order, outside the scheduler lock (a blocking listener —
    an event-log append — can never stall dispatch).
    [worker] is an index into the [workers] array throughout. *)
type event =
  | Dispatch of {
      unit_id : int;
      label : string;
      worker : int;
      attempt : int;  (** 1-based dispatch count for this unit. *)
      hedged : bool;
    }
  | Complete of {
      unit_id : int;
      label : string;
      worker : int;
      attempts : int;
      hedged : bool;
      seconds : float;
    }
  | Discard of { unit_id : int; label : string; worker : int; seconds : float }
      (** A hedge loser's bytes arrived after its twin won
          (first-result-wins). *)
  | Backoff of {
      unit_id : int;
      label : string;
      worker : int;
      failures : int;
      backoff_s : float;
      error : string;
    }
  | Unit_failed of { unit_id : int; label : string; worker : int; error : string }
  | Evict of { worker : int }
  | Readmit of { worker : int }
  | Probe of { worker : int; ok : bool }

type 'w result_ = {
  r_unit : Grid.unit_;
  r_body : string;  (** The winning 200 response body. *)
  r_worker : 'w;
  r_attempts : int;  (** Dispatches of this unit, winners and losers. *)
  r_hedged : bool;  (** The winning attempt was a hedge. *)
  r_seconds : float;  (** Wall time of the winning attempt. *)
}

type stats = {
  dispatched : int;
  retried : int;
  hedged : int;
  discarded : int;  (** Hedge losers whose results were dropped. *)
  evicted : int;
  readmitted : int;
  per_worker : int array;  (** Completions, indexed like [workers]. *)
}

type 'w outcome = {
  results : 'w result_ list;  (** Sorted by unit id. *)
  failed : (Grid.unit_ * string) list;  (** Units that exhausted policy. *)
  stats : stats;
}

val run :
  ?config:config ->
  workers:'w array ->
  capacity:(int -> 'w -> int) ->
  transport:('w -> Grid.unit_ -> (string, error_class) result) ->
  ?health:('w -> bool) ->
  ?on_event:(event -> unit) ->
  ?on_result:('w result_ -> unit) ->
  Grid.unit_ list ->
  ('w outcome, string) result
(** Run every unit to completion or policy exhaustion. Spawns
    [max 1 (capacity i w)] threads per worker (match the worker's
    handler count) plus, when [health] is given, one probe thread that
    evicts failing workers and re-admits recovering ones. [transport]
    and [health] run outside the scheduler lock and must return rather
    than raise. [on_event] receives every scheduler decision, in order,
    outside the lock; it may be called concurrently from different
    worker threads, so listeners synchronize internally (as
    {!Dcn_obs.Event_log.log} does). [on_result] fires
    once per unit, on the winning attempt's thread, as results land
    (streaming). [Error] only for scheduler-level aborts (every worker
    evicted with no health probe); per-unit failures are reported in
    [failed]. Also bumps the [sched.*] metrics counters (dispatched,
    retried, hedged, discarded, evicted, readmitted, completed, failed,
    probes). *)
