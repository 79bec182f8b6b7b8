(* The coordinator: a grid, a store, and an execution mode.

   Every work unit is digest-keyed, and the store is the source of
   truth: a unit whose digest is already present (self-validating entry;
   Store.find re-reads and checks the header) is complete — whether it
   was computed by a previous run of this coordinator, a serial run, or
   some worker's own cache — and is replayed without any dispatch. The
   manifest under runs/<digest-of-unit-digests>/ adds the audit trail
   (grid config, per-unit worker assignment and timing, summary) and the
   resume warning path: a unit the manifest records as done but whose
   store entry is missing or corrupt is loudly recomputed, never
   silently trusted.

   Serial mode drives the full server dispatch stack in-process
   (Server.handle — no sockets), so serial and distributed runs execute
   the same code path end to end and their stores come out
   byte-identical; that equality is what the CI smoke job asserts.

   Distributed mode admits each endpoint via /healthz, hard-failing on a
   solver-version mismatch (digests are only comparable across identical
   versions), sizes per-worker concurrency from the advertised handler
   count, and hands the units to the Scheduler with the HTTP transport.
   The per-unit timeout is injected into the request body (so the worker
   itself gives up with a 504 at the same deadline the client stops
   waiting) — the timeout is excluded from the digest and the response,
   so byte-identity is preserved.

   Telemetry (all of it optional, all observational): the run mints a
   trace id carried to workers in the x-dcn-trace header (a header, not
   body, so digests are untouched), per-worker trace buffers are drained
   over GET /trace and merged with the coordinator's spans into one
   Perfetto timeline, per-worker /metrics deltas land in the summary,
   and every scheduler decision goes to the structured event log and the
   live status line. None of it feeds back into any computation, so the
   store stays byte-identical with telemetry on or off. *)

module Store = Dcn_store.Store
module Manifest = Dcn_store.Manifest
module Clock = Dcn_obs.Clock
module Json = Dcn_obs.Json
module Trace = Dcn_obs.Trace
module Context = Dcn_obs.Context
module Metrics = Dcn_obs.Metrics
module E = Dcn_obs.Event_log
module Request = Dcn_serve.Request
module Server = Dcn_serve.Server
module Http = Dcn_serve.Http

type exec = Serial | Fleet of Worker.endpoint list

type source = From_cache | Computed of string

type outcome = {
  o_unit : Grid.unit_;
  o_body : string;
  o_source : source;
  o_attempts : int;
  o_hedged : bool;
  o_seconds : float;
}

type worker_info = { wi_pid : int option; wi_log : string option }

type telemetry = {
  t_trace : string option;
  t_event_log : string option;
  t_status : bool;
  t_worker_info : (string * worker_info) list;
}

let no_telemetry =
  { t_trace = None; t_event_log = None; t_status = false; t_worker_info = [] }

type worker_stat = {
  ws_worker : string;
  ws_pid : int option;
  ws_log : string option;
  ws_units : int;
  ws_solves : int;
  ws_cache_hits : int;
  ws_cache_misses : int;
  ws_solve_p50_s : float option;
  ws_solve_p95_s : float option;
  ws_solve_p99_s : float option;
  ws_queue_p95_s : float option;
}

type summary = {
  total : int;
  from_cache : int;
  computed : int;
  per_worker : (string * int) list;
  dispatched : int;
  retried : int;
  hedged : int;
  discarded : int;
  evicted : int;
  readmitted : int;
  failed : (string * string) list;
  wall_s : float;
  trace_id : string option;
  worker_stats : worker_stat list;
}

let serial_worker = "serial"

let summary_to_json s =
  let opt some = function Some x -> some x | None -> Json.Null in
  let num x = Json.Num x in
  Json.pretty
    [
      ("total", Json.Int s.total);
      ("from_cache", Json.Int s.from_cache);
      ("computed", Json.Int s.computed);
      ("dispatched", Json.Int s.dispatched);
      ("retried", Json.Int s.retried);
      ("hedged", Json.Int s.hedged);
      ("discarded", Json.Int s.discarded);
      ("evicted", Json.Int s.evicted);
      ("readmitted", Json.Int s.readmitted);
      ("wall_s", num s.wall_s);
      ("trace_id", opt (fun t -> Json.Str t) s.trace_id);
      (* The same decision counts the sched.* metrics counters track and
         the event log records line by line — the reconciliation
         surface. *)
      ( "sched",
        Json.Obj
          [
            ("dispatched", Json.Int s.dispatched);
            ("retried", Json.Int s.retried);
            ("hedged", Json.Int s.hedged);
            ("discarded", Json.Int s.discarded);
            ("evicted", Json.Int s.evicted);
            ("readmitted", Json.Int s.readmitted);
            ("completed", Json.Int s.computed);
            ("failed", Json.Int (List.length s.failed));
          ] );
      ( "per_worker",
        Json.Arr
          (List.map
             (fun (worker, units) ->
               Json.Obj [ ("worker", Json.Str worker); ("units", Json.Int units) ])
             s.per_worker) );
      ( "workers",
        Json.Arr
          (List.map
             (fun ws ->
               Json.Obj
                 [
                   ("worker", Json.Str ws.ws_worker);
                   ("pid", opt (fun p -> Json.Int p) ws.ws_pid);
                   ("log", opt (fun l -> Json.Str l) ws.ws_log);
                   ("units", Json.Int ws.ws_units);
                   ("solves", Json.Int ws.ws_solves);
                   ("cache_hits", Json.Int ws.ws_cache_hits);
                   ("cache_misses", Json.Int ws.ws_cache_misses);
                   ("solve_p50_s", opt num ws.ws_solve_p50_s);
                   ("solve_p95_s", opt num ws.ws_solve_p95_s);
                   ("solve_p99_s", opt num ws.ws_solve_p99_s);
                   ("queue_p95_s", opt num ws.ws_queue_p95_s);
                 ])
             s.worker_stats) );
      ( "failed",
        Json.Arr
          (List.map
             (fun (unit_label, error) ->
               Json.Obj [ ("unit", Json.Str unit_label); ("error", Json.Str error) ])
             s.failed) );
    ]

(* One event-log line per scheduler decision; workers appear by name,
   not index, so the log is readable without the workers array. *)
let sched_event_fields names ev =
  let w i =
    ( "worker",
      Json.Str
        (if i >= 0 && i < Array.length names then names.(i)
         else string_of_int i) )
  in
  match (ev : Scheduler.event) with
  | Scheduler.Dispatch { unit_id; label; worker; attempt; hedged } ->
      ( "dispatch",
        [
          ("unit", Json.Int unit_id);
          ("label", Json.Str label);
          w worker;
          ("attempt", Json.Int attempt);
          ("hedged", Json.Bool hedged);
        ] )
  | Scheduler.Complete { unit_id; label; worker; attempts; hedged; seconds } ->
      ( "complete",
        [
          ("unit", Json.Int unit_id);
          ("label", Json.Str label);
          w worker;
          ("attempts", Json.Int attempts);
          ("hedged", Json.Bool hedged);
          ("seconds", Json.Num seconds);
        ] )
  | Scheduler.Discard { unit_id; label; worker; seconds } ->
      ( "discard",
        [
          ("unit", Json.Int unit_id);
          ("label", Json.Str label);
          w worker;
          ("seconds", Json.Num seconds);
        ] )
  | Scheduler.Backoff { unit_id; label; worker; failures; backoff_s; error } ->
      ( "backoff",
        [
          ("unit", Json.Int unit_id);
          ("label", Json.Str label);
          w worker;
          ("failures", Json.Int failures);
          ("backoff_s", Json.Num backoff_s);
          ("error", Json.Str error);
        ] )
  | Scheduler.Unit_failed { unit_id; label; worker; error } ->
      ( "unit_failed",
        [
          ("unit", Json.Int unit_id);
          ("label", Json.Str label);
          w worker;
          ("error", Json.Str error);
        ] )
  | Scheduler.Evict { worker } -> ("evict", [ w worker ])
  | Scheduler.Readmit { worker } -> ("readmit", [ w worker ])
  | Scheduler.Probe { worker; ok } -> ("probe", [ w worker; ("ok", Json.Bool ok) ])

let quantile_of snap name q =
  match Metrics.find snap name with
  | None -> None
  | Some v -> (
      match Metrics.value_quantile v q with
      | Some x when Float.is_finite x -> Some x
      | Some _ | None -> None)

let stat_of_delta ~worker ~pid ~log ~units delta =
  let count name =
    match delta with Some d -> Metrics.counter_value d name | None -> 0
  in
  let quant name q = Option.bind delta (fun d -> quantile_of d name q) in
  {
    ws_worker = worker;
    ws_pid = pid;
    ws_log = log;
    ws_units = units;
    ws_solves = count "serve.solve.requests";
    ws_cache_hits = count "store.hits";
    ws_cache_misses = count "store.misses";
    ws_solve_p50_s = quant "fptas.solve_s" 0.50;
    ws_solve_p95_s = quant "fptas.solve_s" 0.95;
    ws_solve_p99_s = quant "fptas.solve_s" 0.99;
    ws_queue_p95_s = quant "pool.queue_wait_s" 0.95;
  }

(* /healthz admission: reachable, healthy, and running the coordinator's
   exact solver version. Returns (endpoint, advertised jobs) pairs. *)
let admit_fleet ~probe_timeout_s endpoints =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest -> (
        match Worker.healthz ~timeout_s:probe_timeout_s e with
        | Error msg ->
            Error (Printf.sprintf "worker %s: %s" (Worker.name e) msg)
        | Ok h ->
            if not h.Worker.ok then
              Error (Printf.sprintf "worker %s: unhealthy" (Worker.name e))
            else if h.Worker.solver_version <> Core.Digest_key.solver_version
            then
              Error
                (Printf.sprintf
                   "worker %s runs solver version %S, this coordinator %S: \
                    results would not be comparable; refusing the fleet"
                   (Worker.name e) h.Worker.solver_version
                   Core.Digest_key.solver_version)
            else go ((e, max 1 h.Worker.jobs) :: acc) rest)
  in
  go [] endpoints

let run ?(scheduler = Scheduler.default_config) ?(unit_timeout_s = 300.0)
    ?(probe_timeout_s = 2.0) ?(resume = false) ?(telemetry = no_telemetry)
    ?on_outcome ~store ~grid exec =
  let t0 = Clock.now_ns () in
  let units = Grid.expand grid in
  let worker_names =
    match exec with
    | Serial -> [| serial_worker |]
    | Fleet endpoints -> Array.of_list (List.map Worker.name endpoints)
  in
  if telemetry.t_trace <> None then Trace.set_enabled true;
  let trace_id =
    if
      telemetry.t_trace <> None
      || telemetry.t_event_log <> None
      || telemetry.t_status
    then Some (Trace.new_trace_id ())
    else None
  in
  let elog =
    Option.map
      (fun path -> E.create ~t0_ns:(Trace.epoch_ns ()) path)
      telemetry.t_event_log
  in
  let status =
    if telemetry.t_status then
      Some (Status.create ~total:(List.length units) ~workers:worker_names ())
    else None
  in
  let fire ev =
    Option.iter (fun s -> Status.event s ev) status;
    Option.iter
      (fun l ->
        let name, fields = sched_event_fields worker_names ev in
        E.log l ~ev:name fields)
      elog
  in
  let on_event =
    match (status, elog) with None, None -> None | _ -> Some fire
  in
  Option.iter
    (fun l ->
      E.log l ~ev:"run_start"
        [
          ("trace_id", Json.Str (Option.value ~default:"" trace_id));
          ("units", Json.Int (List.length units));
          ("workers", Json.Int (Array.length worker_names));
        ])
    elog;
  (* Flow-binding ids pair each dispatch span's flow-out with the remote
     solve span's flow-in; unique per dispatch, including hedges. *)
  let flow_seq = Atomic.make 1 in
  let trace_header u =
    match trace_id with
    | None -> None
    | Some tid ->
        let flow = Atomic.fetch_and_add flow_seq 1 in
        Some (flow, Printf.sprintf "%s/%d/%d" tid u.Grid.id flow)
  in
  let dir = Manifest.dir ~store ~fingerprint:(Grid.fingerprint units) in
  Manifest.write_artifact ~dir ~name:"grid.json" (Grid.to_json grid);
  let emit =
    match on_outcome with
    | None -> fun (_ : outcome) -> ()
    | Some f ->
        (* Streaming callbacks fire from scheduler worker threads;
           serialize them so the caller can print without interleaving. *)
        let pm = Mutex.create () in
        fun o ->
          Mutex.lock pm;
          Fun.protect ~finally:(fun () -> Mutex.unlock pm) (fun () -> f o)
  in
  let recorded = Hashtbl.create 64 in
  if resume then
    List.iter
      (fun r -> Hashtbl.replace recorded r.Manifest.u_target r)
      (Manifest.load_units ~dir ());
  (* Resume/skip: the store lookup IS the digest re-verification — the
     entry is re-read and its header validated; a corrupt entry degrades
     to a miss and is recomputed. The manifest only contributes recorded
     timing and the warning when its record has no backing entry. *)
  let cached, todo =
    List.partition_map
      (fun u ->
        match Store.find store u.Grid.digest with
        | Some body ->
            let seconds =
              match Hashtbl.find_opt recorded u.Grid.label with
              | Some r when r.Manifest.u_digest = u.Grid.digest ->
                  r.Manifest.u_seconds
              | Some _ | None -> 0.0
            in
            Left
              {
                o_unit = u;
                o_body = body;
                o_source = From_cache;
                o_attempts = 0;
                o_hedged = false;
                o_seconds = seconds;
              }
        | None ->
            if resume && Hashtbl.mem recorded u.Grid.label then
              Printf.eprintf
                "orchestrate: manifest records %s as done but the store entry \
                 is missing or corrupt; recomputing\n\
                 %!"
                u.Grid.label;
            Right u)
      units
  in
  List.iter
    (fun o ->
      Option.iter Status.cache_hit status;
      Option.iter
        (fun l ->
          E.log l ~ev:"cache_replay"
            [
              ("unit", Json.Int o.o_unit.Grid.id);
              ("label", Json.Str o.o_unit.Grid.label);
            ])
        elog;
      emit o)
    cached;
  let publish ~worker u body seconds =
    Store.add store u.Grid.digest body;
    Manifest.mark_unit ~dir
      {
        Manifest.u_target = u.Grid.label;
        u_digest = u.Grid.digest;
        u_worker = worker;
        u_seconds = seconds;
      }
  in
  let computed_result =
    match exec with
    | Serial ->
        (* The full dispatch stack in-process: same code path as a
           worker, no sockets. Solve_cache consults the process-shared
           store, so point it at ours for the duration. *)
        let previous_shared = Store.shared () in
        Store.set_shared (Some store);
        Fun.protect
          ~finally:(fun () -> Store.set_shared previous_shared)
          (fun () ->
            let server =
              Server.create
                { Server.default_config with Server.default_timeout_s = None }
            in
            let metrics_before = Metrics.snapshot () in
            let outcomes = ref [] and failures = ref [] in
            List.iter
              (fun u ->
                fire
                  (Scheduler.Dispatch
                     {
                       unit_id = u.Grid.id;
                       label = u.Grid.label;
                       worker = 0;
                       attempt = 1;
                       hedged = false;
                     });
                let t1 = Clock.now_ns () in
                let handle headers =
                  Server.handle server ~accept_ns:t1
                    {
                      Http.meth = "POST";
                      target = "/solve";
                      headers;
                      body = u.Grid.body;
                    }
                in
                let resp =
                  match trace_header u with
                  | None -> handle []
                  | Some (flow, header) ->
                      Context.with_ids
                        ~trace:(Option.get trace_id)
                        ~unit_id:u.Grid.id
                        (fun () ->
                          Trace.with_span ~cat:"orch"
                            ("dispatch " ^ u.Grid.label)
                            (fun () ->
                              Trace.flow_out ~cat:"orch" ~id:flow
                                ("u" ^ string_of_int u.Grid.id);
                              handle [ ("x-dcn-trace", header) ]))
                in
                let seconds = Clock.elapsed_s t1 in
                if resp.Http.status = 200 then begin
                  publish ~worker:serial_worker u resp.Http.body seconds;
                  fire
                    (Scheduler.Complete
                       {
                         unit_id = u.Grid.id;
                         label = u.Grid.label;
                         worker = 0;
                         attempts = 1;
                         hedged = false;
                         seconds;
                       });
                  let o =
                    {
                      o_unit = u;
                      o_body = resp.Http.body;
                      o_source = Computed serial_worker;
                      o_attempts = 1;
                      o_hedged = false;
                      o_seconds = seconds;
                    }
                  in
                  emit o;
                  outcomes := o :: !outcomes
                end
                else begin
                  let error =
                    Printf.sprintf "HTTP %d: %s" resp.Http.status
                      (String.trim resp.Http.body)
                  in
                  fire
                    (Scheduler.Unit_failed
                       {
                         unit_id = u.Grid.id;
                         label = u.Grid.label;
                         worker = 0;
                         error;
                       });
                  failures := (u.Grid.label, error) :: !failures
                end)
              todo;
            let delta =
              Metrics.diff ~before:metrics_before ~after:(Metrics.snapshot ())
            in
            let ws =
              stat_of_delta ~worker:serial_worker ~pid:(Some (Unix.getpid ()))
                ~log:None
                ~units:(List.length !outcomes)
                (Some delta)
            in
            Ok
              ( List.rev !outcomes,
                List.rev !failures,
                [ (serial_worker, List.length !outcomes) ],
                None,
                [ ws ],
                [] ))
    | Fleet endpoints -> (
        match admit_fleet ~probe_timeout_s endpoints with
        | Error msg -> Error msg
        | Ok admitted -> (
            let weighted = Array.of_list admitted in
            let workers = Array.map fst weighted in
            let metrics_before =
              Array.map (fun e -> Result.to_option (Worker.metrics e)) workers
            in
            let transport e (u : Grid.unit_) =
              (* Inject the per-unit deadline into the body: the worker
                 504s at the same deadline the client stops waiting.
                 Digest and response both exclude the timeout, so
                 byte-identity with serial runs is preserved. *)
              let body =
                Request.to_body
                  { u.Grid.request with Request.timeout_s = Some unit_timeout_s }
              in
              (* The client-side bound is looser than the server's: the
                 server should answer 504 first, which classifies as
                 Retry with the server's message. *)
              let solve ?trace () =
                Worker.solve ~timeout_s:(unit_timeout_s +. 10.0) ?trace e ~body
              in
              match trace_header u with
              | None -> solve ()
              | Some (flow, header) ->
                  Context.with_ids
                    ~trace:(Option.get trace_id)
                    ~unit_id:u.Grid.id
                    (fun () ->
                      Trace.with_span ~cat:"orch"
                        ~args:[ ("worker", Json.Str (Worker.name e)) ]
                        ("dispatch " ^ u.Grid.label)
                        (fun () ->
                          Trace.flow_out ~cat:"orch" ~id:flow
                            ("u" ^ string_of_int u.Grid.id);
                          solve ~trace:header ()))
            in
            let on_result (r : Worker.endpoint Scheduler.result_) =
              let worker = Worker.name r.Scheduler.r_worker in
              publish ~worker r.Scheduler.r_unit r.Scheduler.r_body
                r.Scheduler.r_seconds;
              emit
                {
                  o_unit = r.Scheduler.r_unit;
                  o_body = r.Scheduler.r_body;
                  o_source = Computed worker;
                  o_attempts = r.Scheduler.r_attempts;
                  o_hedged = r.Scheduler.r_hedged;
                  o_seconds = r.Scheduler.r_seconds;
                }
            in
            match
              Scheduler.run ~config:scheduler ~workers
                ~capacity:(fun i _ -> snd weighted.(i))
                ~transport
                ~health:(Worker.alive ~timeout_s:probe_timeout_s)
                ?on_event ~on_result todo
            with
            | Error msg -> Error msg
            | Ok out ->
                let outcomes =
                  List.map
                    (fun (r : Worker.endpoint Scheduler.result_) ->
                      {
                        o_unit = r.Scheduler.r_unit;
                        o_body = r.Scheduler.r_body;
                        o_source = Computed (Worker.name r.Scheduler.r_worker);
                        o_attempts = r.Scheduler.r_attempts;
                        o_hedged = r.Scheduler.r_hedged;
                        o_seconds = r.Scheduler.r_seconds;
                      })
                    out.Scheduler.results
                in
                let per_worker =
                  Array.to_list
                    (Array.mapi
                       (fun i e ->
                         (Worker.name e, out.Scheduler.stats.Scheduler.per_worker.(i)))
                       workers)
                in
                let failed =
                  List.map
                    (fun (u, msg) -> (u.Grid.label, msg))
                    out.Scheduler.failed
                in
                let worker_stats =
                  Array.to_list
                    (Array.mapi
                       (fun i e ->
                         let name = Worker.name e in
                         let info =
                           Option.value
                             ~default:{ wi_pid = None; wi_log = None }
                             (List.assoc_opt name telemetry.t_worker_info)
                         in
                         let delta =
                           match
                             ( metrics_before.(i),
                               Result.to_option (Worker.metrics e) )
                           with
                           | Some before, Some after ->
                               Some (Metrics.diff ~before ~after)
                           | _ -> None
                         in
                         stat_of_delta ~worker:name ~pid:info.wi_pid
                           ~log:info.wi_log
                           ~units:out.Scheduler.stats.Scheduler.per_worker.(i)
                           delta)
                       workers)
                in
                let dumps =
                  if telemetry.t_trace = None then []
                  else
                    List.filter_map
                      (fun e ->
                        match
                          Worker.trace_dump ~epoch_ns:(Trace.epoch_ns ())
                            ~drain:true e
                        with
                        | Ok (pid, events) ->
                            Some
                              ( pid,
                                Printf.sprintf "%s pid=%d" (Worker.name e) pid,
                                events )
                        | Error msg ->
                            Printf.eprintf
                              "orchestrate: trace collection from %s failed: \
                               %s\n\
                               %!"
                              (Worker.name e) msg;
                            None)
                      endpoints
                in
                Ok
                  ( outcomes,
                    failed,
                    per_worker,
                    Some out.Scheduler.stats,
                    worker_stats,
                    dumps )))
  in
  match computed_result with
  | Error msg ->
      Option.iter
        (fun l ->
          E.log l ~ev:"run_abort" [ ("error", Json.Str msg) ];
          E.close l)
        elog;
      Option.iter Status.finish status;
      Error msg
  | Ok (computed, failed, per_worker, stats, worker_stats, dumps) ->
      let all =
        List.sort
          (fun a b -> Int.compare a.o_unit.Grid.id b.o_unit.Grid.id)
          (cached @ computed)
      in
      let dispatched, retried, hedged, discarded, evicted, readmitted =
        match stats with
        | None ->
            (List.length computed + List.length failed, 0, 0, 0, 0, 0)
        | Some (s : Scheduler.stats) ->
            ( s.Scheduler.dispatched,
              s.Scheduler.retried,
              s.Scheduler.hedged,
              s.Scheduler.discarded,
              s.Scheduler.evicted,
              s.Scheduler.readmitted )
      in
      let summary =
        {
          total = List.length units;
          from_cache = List.length cached;
          computed = List.length computed;
          per_worker;
          dispatched;
          retried;
          hedged;
          discarded;
          evicted;
          readmitted;
          failed;
          wall_s = Clock.elapsed_s t0;
          trace_id;
          worker_stats;
        }
      in
      (* One Chrome trace: the coordinator's buffered spans, then each
         worker's fragment (already rendered against the coordinator's
         epoch), one process track per participant keyed by real pid and
         named so Perfetto's track list reads as the fleet. *)
      Option.iter
        (fun path ->
          Trace.write_processes ~path
            ((Unix.getpid (), "coordinator", Trace.serialize ()) :: dumps))
        telemetry.t_trace;
      Option.iter
        (fun l ->
          E.log l ~ev:"run_end"
            [
              ("computed", Json.Int summary.computed);
              ("from_cache", Json.Int summary.from_cache);
              ("failed", Json.Int (List.length failed));
              ("wall_s", Json.Num summary.wall_s);
            ];
          E.close l)
        elog;
      Option.iter Status.finish status;
      Manifest.write_artifact ~dir ~name:"summary.json"
        (summary_to_json summary);
      Ok (all, summary)
