(* The dispatch engine: work units over an abstract worker fleet.

   Transport-agnostic on purpose — workers are any 'w and the transport
   is a plain function — so the retry/hedge/eviction policy is unit
   testable with in-process fakes, while production plugs in the HTTP
   client (Worker.solve) and the /healthz probe.

   Concurrency model: capacity(i) threads per worker (matching the
   worker's handler count, so its solve queue stays shallow) plus one
   health thread, all sharing one mutex-guarded state table. The
   blocking transport call runs outside the lock. OCaml's stdlib
   Condition has no timed wait, so waiting states (empty eligible set,
   backoff gates, eviction) poll with Thread.delay at [poll_s].

   Policy, in dispatch order for an idle worker thread:
   - lowest-id pending unit this worker has NOT yet tried (spreads
     retries across the fleet);
   - else lowest-id pending unit it has tried (better than idling);
   - a unit whose LAST failure was on this worker is skipped while any
     other live worker exists — "re-dispatch to a different worker";
   - else, once the pending queue is drained, hedge: re-issue the
     oldest in-flight unit (the slowest straggler) if it has run longer
     than [hedge_after_s], has fewer than two live attempts, and is not
     already running here. First result wins; the loser's bytes are
     discarded (they are identical by digest anyway).

   Failures: a Retry error backs the unit off exponentially
   (base * 2^(failures-1), capped) and counts against the worker —
   [evict_after] consecutive transport failures evict it. A Fatal error
   (the request itself is bad; no worker will answer differently) fails
   the unit immediately. Eviction is reversible: the health thread
   probes every worker each [health_period_s] and re-admits one whose
   probe succeeds again. If every worker is evicted and there is no
   health probe to re-admit any, the run aborts instead of spinning.

   Observability: every decision the policy takes is surfaced twice —
   as a [sched.*] counter and as a typed {!event} delivered to
   [?on_event]. Events are collected under the lock but delivered
   OUTSIDE it (same discipline as [?on_result]), so a listener that
   blocks — an event-log write, a status repaint — can never deadlock
   or stall the dispatch path. *)

module Metrics = Dcn_obs.Metrics
module Clock = Dcn_obs.Clock

let m_dispatched = Metrics.counter "sched.dispatched"
let m_retried = Metrics.counter "sched.retried"
let m_hedged = Metrics.counter "sched.hedged"
let m_discarded = Metrics.counter "sched.discarded"
let m_evicted = Metrics.counter "sched.evicted"
let m_readmitted = Metrics.counter "sched.readmitted"
let m_completed = Metrics.counter "sched.completed"
let m_failed = Metrics.counter "sched.failed"
let m_probes = Metrics.counter "sched.probes"

type error_class = Fatal of string | Retry of string

type config = {
  max_attempts : int;
  backoff_base_s : float;
  backoff_max_s : float;
  hedge_after_s : float option;
  evict_after : int;
  health_period_s : float;
  poll_s : float;
}

let default_config =
  {
    max_attempts = 4;
    backoff_base_s = 0.05;
    backoff_max_s = 2.0;
    hedge_after_s = Some 1.0;
    evict_after = 3;
    health_period_s = 1.0;
    poll_s = 0.02;
  }

type event =
  | Dispatch of {
      unit_id : int;
      label : string;
      worker : int;
      attempt : int;
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
  r_body : string;
  r_worker : 'w;
  r_attempts : int;
  r_hedged : bool;
  r_seconds : float;
}

type stats = {
  dispatched : int;
  retried : int;
  hedged : int;
  discarded : int;
  evicted : int;
  readmitted : int;
  per_worker : int array;
}

type 'w outcome = {
  results : 'w result_ list;
  failed : (Grid.unit_ * string) list;
  stats : stats;
}

(* ---- internal state, all guarded by one mutex ---- *)

type status = Pending | Done | Failed of string

type ustate = {
  u : Grid.unit_;
  mutable status : status;
  mutable attempts : int;  (* dispatches started *)
  mutable failures : int;  (* attempts that came back in error *)
  mutable not_before_ns : int64;  (* backoff gate *)
  mutable running_on : int list;  (* worker indexes with a live attempt *)
  mutable tried : int list;  (* every worker index that ever ran it *)
  mutable last_failed_on : int;  (* -1 = never failed *)
  mutable inflight_since_ns : int64;  (* start of the oldest live attempt *)
}

type wstate = {
  mutable evicted : bool;
  mutable consecutive_failures : int;
  mutable completed : int;
}

type counters = {
  mutable c_dispatched : int;
  mutable c_retried : int;
  mutable c_hedged : int;
  mutable c_discarded : int;
  mutable c_evicted : int;
  mutable c_readmitted : int;
}

let ns_of_s s = Int64.of_float (s *. 1e9)

let run ?(config = default_config) ~workers ~capacity ~transport ?health
    ?on_event ?on_result units =
  let n = Array.length workers in
  if n = 0 then invalid_arg "Scheduler.run: no workers";
  if config.max_attempts < 1 then invalid_arg "Scheduler.run: max_attempts < 1";
  let us =
    Array.of_list
      (List.map
         (fun u ->
           {
             u;
             status = Pending;
             attempts = 0;
             failures = 0;
             not_before_ns = 0L;
             running_on = [];
             tried = [];
             last_failed_on = -1;
             inflight_since_ns = 0L;
           })
         units)
  in
  let ws =
    Array.init n (fun _ ->
        { evicted = false; consecutive_failures = 0; completed = 0 })
  in
  let c =
    { c_dispatched = 0; c_retried = 0; c_hedged = 0; c_discarded = 0;
      c_evicted = 0; c_readmitted = 0 }
  in
  let m = Mutex.create () in
  (* Scheduler table: every mutable cell below is touched by worker and
     health threads; [m] is the single lock. *)
  let remaining = ref (Array.length us) [@@dcn.guarded_by "m"] in
  let results = ref [] [@@dcn.guarded_by "m"] in
  let abort = ref None [@@dcn.guarded_by "m"] in
  (* Events queue up under the lock (into the caller's per-region list)
     and flush to the listener after unlock, preserving order. *)
  let flush_events evq =
    match on_event with
    | None -> ()
    | Some f -> List.iter f (List.rev evq)
  in
  (* under lock *)
  let finished () = !remaining = 0 || Option.is_some !abort in
  let other_live widx =
    let found = ref false in
    Array.iteri (fun i w -> if i <> widx && not w.evicted then found := true) ws;
    !found
  in
  let evict ~evq widx =
    if not ws.(widx).evicted then begin
      ws.(widx).evicted <- true;
      c.c_evicted <- c.c_evicted + 1;
      Metrics.incr m_evicted;
      evq := Evict { worker = widx } :: !evq;
      if
        Option.is_none health
        && Array.for_all (fun w -> w.evicted) ws
        && Option.is_none !abort
      then
        abort :=
          Some "every worker is evicted and no health probe can re-admit one"
    end
  in
  let pick widx now =
    (* Lowest id wins within each preference class; [us] is in id order,
       so the first hit per class is the winner. *)
    let untried = ref None and tried_here = ref None in
    Array.iter
      (fun st ->
        match st.status with
        | Done | Failed _ -> ()
        | Pending ->
            if st.running_on = [] && Int64.compare st.not_before_ns now <= 0
            then begin
              let avoid = st.last_failed_on = widx && other_live widx in
              if not avoid then
                if not (List.mem widx st.tried) then begin
                  if Option.is_none !untried then untried := Some st
                end
                else if Option.is_none !tried_here then tried_here := Some st
            end)
      us;
    match (!untried, !tried_here) with
    | Some st, Some _ | Some st, None -> Some (st, false)
    | None, Some st -> Some (st, false)
    | None, None -> (
        (* Queue drained: hedge the slowest straggler. *)
        match config.hedge_after_s with
        | None -> None
        | Some h ->
            let h_ns = ns_of_s h in
            let cand = ref None in
            Array.iter
              (fun st ->
                match st.status with
                | Done | Failed _ -> ()
                | Pending ->
                    if
                      st.running_on <> []
                      && List.length st.running_on < 2
                      && (not (List.mem widx st.running_on))
                      && (not (List.mem widx st.tried))
                      && Int64.compare (Int64.sub now st.inflight_since_ns) h_ns
                         > 0
                    then
                      match !cand with
                      | Some c0
                        when Int64.compare c0.inflight_since_ns
                               st.inflight_since_ns <= 0 ->
                          ()
                      | Some _ | None -> cand := Some st)
              us;
            Option.map (fun st -> (st, true)) !cand)
  in
  (* Under lock. Returns the result to report outside the lock, or None
     when a hedge twin already won — the duplicate bytes are discarded. *)
  let settle_ok ~evq st widx ~hedged ~seconds body =
    match st.status with
    | Done ->
        Metrics.incr m_discarded;
        c.c_discarded <- c.c_discarded + 1;
        evq :=
          Discard
            { unit_id = st.u.Grid.id; label = st.u.Grid.label; worker = widx;
              seconds }
          :: !evq;
        None
    | (Pending | Failed _) as before ->
        (match before with
        | Pending -> remaining := !remaining - 1
        | Done | Failed _ -> ());
        st.status <- Done;
        ws.(widx).completed <- ws.(widx).completed + 1;
        ws.(widx).consecutive_failures <- 0;
        Metrics.incr m_completed;
        let r =
          {
            r_unit = st.u;
            r_body = body;
            r_worker = workers.(widx);
            r_attempts = st.attempts;
            r_hedged = hedged;
            r_seconds = seconds;
          }
        in
        results := r :: !results;
        evq :=
          Complete
            { unit_id = st.u.Grid.id; label = st.u.Grid.label; worker = widx;
              attempts = st.attempts; hedged; seconds }
          :: !evq;
        Some r
  in
  let settle_err ~evq st widx err =
    match st.status with
    | Done | Failed _ -> ()  (* late duplicate; the unit is settled *)
    | Pending -> (
        st.failures <- st.failures + 1;
        st.last_failed_on <- widx;
        let fail msg =
          st.status <- Failed msg;
          remaining := !remaining - 1;
          Metrics.incr m_failed;
          evq :=
            Unit_failed
              { unit_id = st.u.Grid.id; label = st.u.Grid.label; worker = widx;
                error = msg }
            :: !evq
        in
        match err with
        | Fatal msg ->
            (* The request itself is bad — no worker would answer
               differently; not held against this worker. *)
            fail msg
        | Retry msg ->
            ws.(widx).consecutive_failures <-
              ws.(widx).consecutive_failures + 1;
            if ws.(widx).consecutive_failures >= config.evict_after then
              evict ~evq widx;
            if st.failures >= config.max_attempts && st.running_on = [] then
              fail
                (Printf.sprintf "gave up after %d attempts; last error: %s"
                   st.failures msg)
            else begin
              c.c_retried <- c.c_retried + 1;
              Metrics.incr m_retried;
              let backoff =
                Float.min config.backoff_max_s
                  (config.backoff_base_s
                  *. (2.0 ** float_of_int (st.failures - 1)))
              in
              st.not_before_ns <- Int64.add (Clock.now_ns ()) (ns_of_s backoff);
              evq :=
                Backoff
                  { unit_id = st.u.Grid.id; label = st.u.Grid.label;
                    worker = widx; failures = st.failures; backoff_s = backoff;
                    error = msg }
                :: !evq
            end)
  in
  let worker_loop widx () =
    let rec loop () =
      Mutex.lock m;
      if finished () then Mutex.unlock m
      else if ws.(widx).evicted then begin
        Mutex.unlock m;
        Thread.delay config.poll_s;
        loop ()
      end
      else begin
        let now = Clock.now_ns () in
        match pick widx now with
        | None ->
            Mutex.unlock m;
            Thread.delay config.poll_s;
            loop ()
        | Some (st, hedged) ->
            st.attempts <- st.attempts + 1;
            if st.running_on = [] then st.inflight_since_ns <- now;
            st.running_on <- widx :: st.running_on;
            if not (List.mem widx st.tried) then st.tried <- widx :: st.tried;
            c.c_dispatched <- c.c_dispatched + 1;
            Metrics.incr m_dispatched;
            if hedged then begin
              c.c_hedged <- c.c_hedged + 1;
              Metrics.incr m_hedged
            end;
            let attempt = st.attempts in
            Mutex.unlock m;
            flush_events
              [
                Dispatch
                  { unit_id = st.u.Grid.id; label = st.u.Grid.label;
                    worker = widx; attempt; hedged };
              ];
            let t0 = Clock.now_ns () in
            (* The blocking call; must return Error, not raise (the HTTP
               transport guarantees this). *)
            let answer = transport workers.(widx) st.u in
            let seconds = Clock.elapsed_s t0 in
            Mutex.lock m;
            st.running_on <- List.filter (fun i -> i <> widx) st.running_on;
            let evq = ref [] in
            let report =
              match answer with
              | Ok body -> settle_ok ~evq st widx ~hedged ~seconds body
              | Error err ->
                  settle_err ~evq st widx err;
                  None
            in
            Mutex.unlock m;
            flush_events !evq;
            (match report with
            | Some r -> (
                match on_result with Some f -> f r | None -> ())
            | None -> ());
            loop ()
      end
    in
    loop ()
  in
  let health_loop probe () =
    let period = Float.max config.poll_s config.health_period_s in
    let done_now () =
      Mutex.lock m;
      let fin = finished () in
      Mutex.unlock m;
      fin
    in
    let rec loop () =
      if not (done_now ()) then begin
        Array.iteri
          (fun i w ->
            (* The probe blocks (bounded by its own timeout): outside the
               lock. *)
            let ok = probe w in
            Metrics.incr m_probes;
            let evq = ref [ Probe { worker = i; ok } ] in
            Mutex.lock m;
            if ok && ws.(i).evicted then begin
              ws.(i).evicted <- false;
              ws.(i).consecutive_failures <- 0;
              c.c_readmitted <- c.c_readmitted + 1;
              Metrics.incr m_readmitted;
              evq := Readmit { worker = i } :: !evq
            end
            else if (not ok) && not ws.(i).evicted then evict ~evq i;
            Mutex.unlock m;
            flush_events !evq)
          workers;
        (* Sleep in poll-sized ticks so completion ends the thread
           promptly. *)
        let rec nap left =
          if left > 0.0 && not (done_now ()) then begin
            Thread.delay (Float.min left config.poll_s);
            nap (left -. config.poll_s)
          end
        in
        nap period;
        loop ()
      end
    in
    loop ()
  in
  let zero_stats () =
    {
      dispatched = c.c_dispatched;
      retried = c.c_retried;
      hedged = c.c_hedged;
      discarded = c.c_discarded;
      evicted = c.c_evicted;
      readmitted = c.c_readmitted;
      per_worker = Array.map (fun w -> w.completed) ws;
    }
  in
  if Array.length us = 0 then
    Ok { results = []; failed = []; stats = zero_stats () }
  else begin
    let threads = ref [] in
    Array.iteri
      (fun i w ->
        for _slot = 1 to max 1 (capacity i w) do
          threads := Thread.create (worker_loop i) () :: !threads
        done)
      workers;
    (match health with
    | Some probe -> threads := Thread.create (health_loop probe) () :: !threads
    | None -> ());
    List.iter Thread.join !threads;
    match
      (!abort
      [@dcn.lint
        "lockset: every worker and health thread has been joined; this \
         thread is the only one left, so the unlocked read cannot race"])
    with
    | Some msg -> Error msg
    | None ->
        let failed =
          Array.to_list us
          |> List.filter_map (fun st ->
                 match st.status with
                 | Failed msg -> Some (st.u, msg)
                 | Pending | Done -> None)
        in
        let ordered =
          List.sort
            (fun a b -> Int.compare a.r_unit.Grid.id b.r_unit.Grid.id)
            (!results
            [@dcn.lint
              "lockset: read after every worker thread has been joined; no \
               concurrent writer remains"])
        in
        Ok { results = ordered; failed; stats = zero_stats () }
  end
