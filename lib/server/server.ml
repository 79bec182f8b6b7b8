(* The solve server: the request -> response half of dcn_served.

   This module owns no sockets. The event-loop engine (Dcn_engine.Engine)
   accepts connections, parses requests and schedules solves; it hands
   GET endpoints to [handle] and resolved solves to [solve_resolved], so
   every response body is rendered here, and [create] + [handle] drive
   the whole dispatch path in-process for the tests.

   Request identity: the body resolves to a Request.digest; concurrent
   requests with the same digest coalesce (Coalesce) so the solver runs
   once and every duplicate gets the leader's rendered body,
   byte-identically. Optimal-routing solves go through Solve_cache, so
   the coalesced result also lands in the content-addressed store and
   later identical requests replay it from disk.

   Deadlines: measured from accept time (queue wait counts — a request
   that waited 9 of its 10 seconds in the engine's queue gets 1 second
   of solve), enforced cooperatively at FPTAS phase boundaries via
   Mcmf_fptas.with_cancel. Riders on a coalesced solve share the
   leader's fate, including its cancellation. *)

module Metrics = Dcn_obs.Metrics
module Clock = Dcn_obs.Clock
module Trace = Dcn_obs.Trace
module Context = Dcn_obs.Context
module Json = Dcn_obs.Json
module Event_log = Dcn_obs.Event_log

type config = {
  host : string;
  port : int;  (* 0 = ephemeral; the bound port goes to port_file *)
  default_timeout_s : float option;
  max_body_bytes : int;
  port_file : string option;
  metrics_file : string option;
  trace_file : string option;
  trace_buffer : bool;
  access_log : string option;
  log_tag : string option;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 8080;
    default_timeout_s = Some 300.0;
    max_body_bytes = 8 * 1024 * 1024;
    port_file = None;
    metrics_file = None;
    trace_file = None;
    trace_buffer = false;
    access_log = None;
    log_tag = None;
  }

type t = {
  config : config;
  coalesce : string Coalesce.t;  (* digest -> rendered 200 body *)
  started_ns : int64;
  access : Event_log.t option;
  (* Draining as reported by /healthz: the pool's own flag OR'd with this
     one, which the engine sets the moment it stops admitting solves. *)
  draining : bool Atomic.t;
}

let create config =
  {
    config;
    coalesce = Coalesce.create ();
    started_ns = Clock.now_ns ();
    access = Option.map (fun path -> Event_log.create path) config.access_log;
    draining = Atomic.make false;
  }

let set_draining t v = Atomic.set t.draining v
let is_draining t = Core.Pool.draining () || Atomic.get t.draining

let coalesce_pending t = Coalesce.pending t.coalesce

(* ---- metrics ---- *)

let m_requests = Metrics.counter "serve.requests"
let m_solves = Metrics.counter "serve.solve.requests"
let m_led = Metrics.counter "serve.solve.led"
let m_coalesced = Metrics.counter "serve.solve.coalesced"
let m_rejected_capacity = Metrics.counter "serve.rejected.capacity"
let m_rejected_draining = Metrics.counter "serve.rejected.draining"
let m_2xx = Metrics.counter "serve.status.2xx"
let m_4xx = Metrics.counter "serve.status.4xx"
let m_5xx = Metrics.counter "serve.status.5xx"
let m_request_s = Metrics.histogram "serve.request_s"

(* ---- response rendering ---- *)

let json_headers = [ ("Content-Type", "application/json") ]

let error_body msg = Json.to_string (Json.Obj [ ("error", Json.Str msg) ]) ^ "\n"

let error_response ?(headers = []) status msg =
  Http.response ~headers:(json_headers @ headers) status (error_body msg)

(* The members every [/solve] answer opens with, whichever tier produced
   it, so clients parse one schema. Floats render exactly
   ({!Json.pretty}), not at %.6g: clients replaying a body must see the
   very bits the solver certified. *)
let answer_head ~digest ~(req : Request.t) ~(resolved : Request.resolved) =
  let topo = resolved.Request.topo in
  [
    ("digest", Json.Str digest);
    ("topology", Json.Str topo.Core.Topology.name);
    ("switches", Json.Int (Core.Graph.n topo.Core.Topology.graph));
    ("servers", Json.Int (Core.Topology.num_servers topo));
    ("commodities", Json.Int (Array.length resolved.Request.commodities));
    ("traffic", Json.Str (Core.Cli.traffic_to_string req.Request.traffic));
    ("routing", Json.Str (Request.routing_to_string req.Request.routing));
    ("eps", Json.Num req.Request.eps);
    ("gap", Json.Num req.Request.gap);
  ]

let solve_body ~digest ~req ~resolved ~lambda ~bounds:(lo, hi) =
  Json.pretty
    (answer_head ~digest ~req ~resolved
    @ [
        ("tier", Json.Str "fptas");
        ("lambda", Json.Num lambda);
        ("lambda_lower", Json.Num lo);
        ("lambda_upper", Json.Num hi);
      ])

(* ---- the solve itself ---- *)

let compute_solve (req : Request.t) (resolved : Request.resolved) =
  let g = resolved.Request.topo.Core.Topology.graph in
  let cs = resolved.Request.commodities in
  let params = Request.params req in
  match req.Request.routing with
  | Request.Optimal ->
      (* Through the result store: a cold solve both terminates the
         coalescing window and seeds the cache. *)
      let thr =
        Core.Solve_cache.throughput ~solver:(Core.Throughput.Fptas params) g cs
      in
      (thr.Core.Throughput.lambda, thr.Core.Throughput.lambda_bounds)
  | (Request.Ksp _ | Request.Ecmp _ | Request.Vlb _) as routing ->
      (* Path-restricted answers stay out of the result store (their
         result is an FPTAS result, which [Codec] could encode): perfbench
         serve counts [store.misses] as exactly the cold optimal requests.
         They still coalesce. *)
      let rcs =
        match routing with
        | Request.Ksp k -> Core.Mcmf_paths.of_k_shortest g ~k cs
        | Request.Ecmp limit -> Core.Mcmf_paths.of_ecmp g ~limit cs
        | Request.Vlb n ->
            (* Stream [seed; 2]: independent of the generator ([seed]) and
               traffic ([seed; 1]) streams. *)
            let st = Random.State.make [| req.Request.seed; 2 |] in
            Core.Vlb.restrict st g ~intermediates:n cs
        | Request.Optimal -> assert false
      in
      let r = Core.Mcmf_paths.solve ~params g rcs in
      ( Core.Gk_loop.midpoint r,
        (r.Core.Mcmf_paths.lambda_lower, r.Core.Mcmf_paths.lambda_upper) )

let with_deadline deadline f =
  match deadline with
  | None -> f ()
  | Some d -> Core.Mcmf_fptas.with_cancel (fun () -> Clock.now_ns () > d) f

(* ---- dispatch ---- *)

(* What the access log wants to know about a handled request beyond the
   response itself: the solve digest (when the body resolved to one) and
   whether this request led the coalesced solve or rode on a leader. *)
type served = {
  resp : Http.response;
  sv_digest : string option;
  sv_role : string option;  (* "led" | "coalesced" *)
}

let plain resp = { resp; sv_digest = None; sv_role = None }

(* The coordinator's dispatch identity rides in one header —
   [x-dcn-trace: trace_id/unit_id/flow_id] — and is deliberately not part
   of the request body, so it is excluded from the digest the same way
   [timeout_s] is: telemetry must never change what result bytes a
   request maps to. *)
let parse_trace_header (req : Http.request) =
  match Http.header "x-dcn-trace" req with
  | None -> None
  | Some v -> (
      match String.split_on_char '/' v with
      | [ trace; unit_id; flow ] when trace <> "" -> (
          match (int_of_string_opt unit_id, int_of_string_opt flow) with
          | Some u, Some f -> Some (trace, u, f)
          | _ -> None)
      | _ -> None)

(* A solve's deadline counts from [accept_ns]: the request's [timeout_s],
   else the server default. Both tiers call this before any work, so a
   request whose deadline passed in the queue is a 504 from either. *)
let deadline t ~accept_ns ~digest (req : Request.t) =
  match (req.Request.timeout_s, t.config.default_timeout_s) with
  | Some s, _ | None, Some s ->
      let d = Int64.add accept_ns (Clock.ns_of_s s) in
      if Clock.now_ns () > d then
        Error
          {
            resp =
              error_response 504 "deadline exceeded before the solve started";
            sv_digest = Some digest;
            sv_role = None;
          }
      else Ok (Some d)
  | None, None -> Ok None

(* The coalesced solve for an already-resolved request. Exported: the
   engine resolves requests itself (amortizing topology construction
   across a batch) and then joins this coalescing/deadline/rendering
   path, which is what keeps its bodies byte-identical to [handle]'s. *)
let solve_resolved t ~accept_ns ?trace_ids ~digest (req : Request.t)
    (resolved : Request.resolved) =
  match deadline t ~accept_ns ~digest req with
  | Error expired -> expired
  | Ok deadline ->
      let with_digest sv_role resp =
        { resp; sv_digest = Some digest; sv_role }
      in
      let outcome =
        Coalesce.run t.coalesce ~key:digest (fun () ->
            Metrics.incr m_led;
            let solve () =
              Trace.with_span ~cat:"serve" ("solve " ^ digest)
                (fun () ->
                  (match trace_ids with
                  | Some (_, u, flow) ->
                      (* Receiving end of the coordinator's dispatch
                         arrow; binds to this solve span. *)
                      Trace.flow_in ~cat:"orch" ~id:flow
                        ("u" ^ string_of_int u)
                  | None -> ());
                  with_deadline deadline (fun () ->
                      let lambda, bounds = compute_solve req resolved in
                      solve_body ~digest ~req ~resolved ~lambda ~bounds))
            in
            match trace_ids with
            | Some (trace, u, _) ->
                (* Everything recorded under here — the solve span,
                   nested FPTAS/Dijkstra/cache spans, pool tasks
                   (the pool transplants the context) — carries the
                   coordinator's trace/unit ids. *)
                Context.with_ids ~trace ~unit_id:u solve
            | None -> solve ())
      in
      if not outcome.Coalesce.led then Metrics.incr m_coalesced;
      let role = Some (if outcome.Coalesce.led then "led" else "coalesced") in
      match outcome.Coalesce.value with
      | Ok body ->
          with_digest role (Http.response ~headers:json_headers 200 body)
      | Error Core.Mcmf_fptas.Cancelled ->
          with_digest role (error_response 504 "deadline exceeded")
      | Error (Invalid_argument msg | Failure msg) ->
          with_digest role (error_response 400 msg)
      | Error e -> with_digest role (error_response 500 (Printexc.to_string e))

let handle_solve t ~accept_ns (httpreq : Http.request) =
  Metrics.incr m_solves;
  match Request.of_body httpreq.Http.body with
  | Error msg -> plain (error_response 400 msg)
  | Ok req -> (
      match Request.resolve req with
      | exception (Invalid_argument msg | Failure msg | Sys_error msg) ->
          plain (error_response 400 msg)
      | resolved ->
          let digest = Request.digest req resolved in
          let trace_ids = parse_trace_header httpreq in
          solve_resolved t ~accept_ns ?trace_ids ~digest req resolved)

let uptime_ns t = Int64.sub (Clock.now_ns ()) t.started_ns

let trace_response t params =
  let drain =
    match List.assoc_opt "drain" params with
    | Some v -> v = "1" || v = "true"
    | None -> false
  in
  let epoch_ns =
    match List.assoc_opt "epoch_ns" params with
    | Some s -> Int64.of_string_opt s
    | None -> None
  in
  Http.response ~headers:json_headers 200
    (Trace.envelope
       ~meta:
         [
           ("solver_version", Json.Str Core.Digest_key.solver_version);
           ("uptime_ns", Json.Int (Int64.to_int (uptime_ns t)));
         ]
       (Trace.serialize ?epoch_ns ~drain ()))

(* Per-request accounting shared by [handle] and the engine's own solve
   dispatch: latency histogram, status-class counters, one access-log
   line. Returns the response so dispatch tails straight into it. *)
let account t ~accept_ns ~meth ~path (served : served) =
  let resp = served.resp in
  let wall_s = Clock.elapsed_s accept_ns in
  Metrics.observe m_request_s wall_s;
  Metrics.incr
    (if resp.Http.status < 400 then m_2xx
     else if resp.Http.status < 500 then m_4xx
     else m_5xx);
  (match t.access with
  | Some log ->
      Event_log.log log ~ev:"request"
        ([
           ("method", Json.Str meth);
           ("path", Json.Str path);
           ("status", Json.Int resp.Http.status);
           ("wall_ms", Json.Num (wall_s *. 1e3));
         ]
        @ (match served.sv_digest with
          | Some d -> [ ("digest", Json.Str d) ]
          | None -> [])
        @
        match served.sv_role with
        | Some r -> [ ("role", Json.Str r) ]
        | None -> [])
  | None -> ());
  resp

let note_request ~solve =
  Metrics.incr m_requests;
  if solve then Metrics.incr m_solves

let reject kind =
  match kind with
  | `Capacity ->
      Metrics.incr m_rejected_capacity;
      error_response ~headers:[ ("Retry-After", "1") ] 429 "server at capacity"
  | `Draining ->
      Metrics.incr m_rejected_draining;
      error_response ~headers:[ ("Retry-After", "1") ] 503 "server is draining"

let handle t ~accept_ns (req : Http.request) =
  Metrics.incr m_requests;
  let path, params = Http.split_target req.Http.target in
  let served =
    match (req.Http.meth, path) with
    | "GET", "/healthz" ->
        (* Enough for a coordinator to admit this worker without further
           probes: the solver version (digests are only comparable across
           identical versions, so a mismatched worker must be rejected),
           the handler capacity to size its dispatch window, and the
           drain state. *)
        plain
          (Http.response ~headers:json_headers 200
             (Json.to_string
                (Json.Obj
                   [
                     ("status", Json.Str "ok");
                     ("solver_version", Json.Str Core.Digest_key.solver_version);
                     ("jobs", Json.Int (max 1 (Core.Pool.workers ())));
                     ("draining", Json.Bool (is_draining t));
                   ])
             ^ "\n"))
    | "GET", "/metrics" ->
        plain
          (Http.response ~headers:json_headers 200
             (Metrics.to_json
                ~meta:
                  [
                    ("solver_version", Json.Str Core.Digest_key.solver_version);
                    ("uptime_ns", Json.Int (Int64.to_int (uptime_ns t)));
                  ]
                (Metrics.snapshot ())))
    | "GET", "/trace" -> plain (trace_response t params)
    | "POST", "/solve" -> handle_solve t ~accept_ns req
    | _, ("/healthz" | "/metrics" | "/trace" | "/solve") ->
        plain
          (error_response 405
             (Printf.sprintf "%s does not accept %s" path req.Http.meth))
    | _, target -> plain (error_response 404 (Printf.sprintf "no such endpoint %s" target))
  in
  account t ~accept_ns ~meth:req.Http.meth ~path served

(* ---- lifecycle ---- *)

let close_logs t = Option.iter Event_log.close t.access

let flush_sinks config =
  (match config.metrics_file with
  | Some path -> Metrics.write ~path (Metrics.snapshot ())
  | None -> ());
  match config.trace_file with Some path -> Trace.write path | None -> ()
