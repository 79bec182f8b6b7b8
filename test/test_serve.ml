(* Tests for the serving layer: JSON parsing, response serialization,
   typed request decoding, the request-digest identity property,
   single-flight coalescing, and the server's dispatch / deadline /
   byte-identity behavior — all in-process via Server.handle, no sockets
   (test_engine drives the engine over real ones, and the CI smoke jobs
   the real daemon). Request parsing is Reqstream's, tested in
   test_engine. *)

module J = Dcn_obs.Json
module Http = Dcn_serve.Http
module Request = Dcn_serve.Request
module Coalesce = Dcn_serve.Coalesce
module Server = Dcn_serve.Server
module Metrics_io = Dcn_serve.Metrics_io
module Metrics = Dcn_obs.Metrics
module Trace = Dcn_obs.Trace
module Event_log = Dcn_obs.Event_log
module Clock = Dcn_obs.Clock

let with_metrics f =
  Metrics.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())

let with_trace f =
  Trace.set_enabled true;
  Trace.reset ();
  Fun.protect f ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())

(* ---- JSON parsing ---- *)

let test_json_parse_basics () =
  match J.parse {| {"a": [1, -2.5e1, "x\ny", true, null], "b": {"c": "A"}} |} with
  | Error msg -> Alcotest.fail msg
  | Ok v ->
      (match J.member "a" v with
      | Some (J.Arr [ one; neg; s; t; n ]) ->
          Alcotest.(check (option int)) "int" (Some 1) (J.to_int_opt one);
          Alcotest.(check (option (float 0.0))) "exp float" (Some (-25.0))
            (J.to_float_opt neg);
          Alcotest.(check (option string)) "escaped string" (Some "x\ny")
            (J.to_string_opt s);
          Alcotest.(check (option bool)) "true" (Some true) (J.to_bool_opt t);
          Alcotest.(check bool) "null" true (n = J.Null);
          Alcotest.(check bool) "numbers parse as Num" true
            (match one with J.Num _ -> true | _ -> false)
      | _ -> Alcotest.fail "array shape");
      Alcotest.(check (option int)) "Int as int" (Some 7) (J.to_int_opt (J.Int 7));
      Alcotest.(check (option (float 0.0))) "Int as float" (Some 7.0)
        (J.to_float_opt (J.Int 7));
      Alcotest.(check (option string)) "unicode escape" (Some "A")
        (Option.bind (J.member "b" v) (fun b ->
             Option.bind (J.member "c" b) J.to_string_opt))

let test_json_parse_rejects () =
  let rejects s =
    match J.parse s with
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
    | Error _ -> ()
  in
  List.iter rejects
    [ "{"; "[1,]"; "{\"a\": 1} trailing"; "\"unterminated"; "{'single': 1}";
      "nul"; "{\"a\" 1}"; "\"bad \\q escape\""; "1e999"; "[-1e999]" ]

(* ---- response serialization ---- *)

(* The engine writes keep-alive responses without a Connection header
   and closing ones with [Connection: close]; nothing else differs. *)
let test_http_response_wire_format () =
  let resp = Http.response ~headers:[ ("X-T", "1") ] 200 "hello" in
  let head = "HTTP/1.1 200 OK\r\nX-T: 1\r\nContent-Length: 5\r\n" in
  Alcotest.(check string) "close"
    (head ^ "Connection: close\r\n\r\nhello")
    (Http.serialize_response ~keep_alive:false resp);
  Alcotest.(check string) "keep-alive" (head ^ "\r\nhello")
    (Http.serialize_response ~keep_alive:true resp);
  (* 431 has a reason phrase on the wire. *)
  Alcotest.(check string) "431 reason"
    "HTTP/1.1 431 Request Header Fields Too Large\r\n\
     Content-Length: 1\r\nConnection: close\r\n\r\nx"
    (Http.serialize_response (Http.response 431 "x"))

(* ---- client response framing ---- *)

(* A loopback peer that answers its i-th connection with the i-th canned
   response, after reading the request head, and then closes it. *)
let canned_peer responses =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen sock 8;
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> Alcotest.fail "not an inet socket"
  in
  let serve () =
    List.iter
      (fun resp ->
        let fd, _ = Unix.accept sock in
        let buf = Bytes.create 4096 in
        let head = Buffer.create 256 in
        let rec read_head () =
          let n = Unix.read fd buf 0 (Bytes.length buf) in
          Buffer.add_subbytes head buf 0 n;
          let h = Buffer.contents head in
          let l = String.length h in
          if n > 0 && not (l >= 4 && String.sub h (l - 4) 4 = "\r\n\r\n") then
            read_head ()
        in
        read_head ();
        (try ignore (Unix.write_substring fd resp 0 (String.length resp))
         with Unix.Unix_error _ -> ());
        Unix.close fd)
      responses;
    Unix.close sock
  in
  (port, Thread.create serve ())

let test_http_hostile_content_length () =
  let hostile =
    [
      "HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\nbody";
      "HTTP/1.1 200 OK\r\nContent-Length: 99999999999999999\r\n\r\npartial";
      "HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\nbody";
    ]
  in
  let good = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok" in
  let port, peer =
    canned_peer (hostile @ List.concat_map (fun h -> [ h; good ]) hostile)
  in
  let expect_error what = function
    | Ok (status, body) ->
        Alcotest.fail (Printf.sprintf "%s: accepted %d %S" what status body)
    | Error _ -> ()
  in
  List.iter
    (fun h ->
      expect_error ("client_request: " ^ h)
        (Http.client_request ~host:"127.0.0.1" ~port ~meth:"GET" ~target:"/x"
           ~timeout_s:5.0 ()))
    hostile;
  let c = Http.conn_create ~host:"127.0.0.1" ~port ~timeout_s:5.0 () in
  List.iter
    (fun h ->
      expect_error ("conn_request: " ^ h)
        (Http.conn_request c ~meth:"GET" ~target:"/x" ());
      Alcotest.(check (result (pair int string) string))
        "conn works on its next request" (Ok (200, "ok"))
        (Http.conn_request c ~meth:"GET" ~target:"/x" ()))
    hostile;
  Http.conn_close c;
  Thread.join peer

(* ---- request decoding ---- *)

let test_request_defaults () =
  match Request.of_body "{\"topology\": \"rrg:12,6,3\"}" with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
      Alcotest.(check int) "seed" 1 r.Request.seed;
      Alcotest.(check (float 0.0)) "eps" 0.05 r.Request.eps;
      Alcotest.(check (float 0.0)) "gap" 0.05 r.Request.gap;
      Alcotest.(check bool) "routing optimal" true (r.Request.routing = Request.Optimal);
      Alcotest.(check bool) "no timeout" true (Option.is_none r.Request.timeout_s)

let test_request_rejects () =
  let rejects body =
    match Request.of_body body with
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %s" body)
    | Error _ -> ()
  in
  List.iter rejects
    [
      "{}";  (* no topology *)
      "not json";
      "{\"topology\": \"nosuch:1\"}";
      "{\"topology\": \"rrg:12,6,3\", \"eps\": 1.5}";
      "{\"topology\": \"rrg:12,6,3\", \"eps\": 0}";
      "{\"topology\": \"rrg:12,6,3\", \"routing\": \"teleport\"}";
      "{\"topology\": \"rrg:12,6,3\", \"routing\": \"ksp:0\"}";
      "{\"topology\": \"rrg:12,6,3\", \"timeout_s\": -1}";
      "{\"topology\": {\"wrong\": \"key\"}}";
    ]

let test_routing_roundtrip () =
  List.iter
    (fun r ->
      match Request.parse_routing (Request.routing_to_string r) with
      | Ok r' -> Alcotest.(check bool) "round-trips" true (r = r')
      | Error msg -> Alcotest.fail msg)
    [ Request.Optimal; Request.Ksp 8; Request.Ecmp 64; Request.Vlb 5 ];
  (* Bare ecmp gets the default limit. *)
  Alcotest.(check bool) "bare ecmp" true
    (Request.parse_routing "ecmp" = Ok (Request.Ecmp 64))

(* ---- digest identity (the coalescing/cache key) ---- *)

let base_request =
  {
    Request.topology = Request.Spec (Core.Cli.Rrg (12, 6, 3));
    seed = 1;
    traffic = Core.Cli.Perm;
    eps = 0.1;
    gap = 0.1;
    routing = Request.Optimal;
    timeout_s = None;
  }

let digest_of r = Request.digest r (Request.resolve r)

(* Requests differing only in a result-relevant field must digest
   differently; the timeout must not participate. Randomized over a grid
   of valid base requests. *)
let prop_digest_distinguishes =
  QCheck.Test.make ~name:"digest distinguishes result-relevant fields" ~count:25
    QCheck.(
      quad (int_range 1 5) (int_range 0 2) (int_range 0 2) (int_range 0 3))
    (fun (seed, traffic_i, eps_i, routing_i) ->
      let traffic =
        [| Core.Cli.Perm; Core.Cli.A2a; Core.Cli.Chunky 0.3 |].(traffic_i)
      in
      let eps = [| 0.05; 0.1; 0.2 |].(eps_i) in
      let routing =
        [| Request.Optimal; Request.Ksp 4; Request.Ecmp 16; Request.Vlb 3 |].(routing_i)
      in
      let base = { base_request with Request.seed; traffic; eps; routing } in
      let d0 = digest_of base in
      let mutants =
        [
          { base with Request.eps = base.Request.eps /. 2.0 };
          { base with Request.gap = base.Request.gap /. 2.0 };
          { base with Request.seed = base.Request.seed + 1 };
          {
            base with
            Request.routing =
              (if base.Request.routing = Request.Optimal then Request.Ksp 4
               else Request.Optimal);
          };
        ]
      in
      List.for_all (fun m -> digest_of m <> d0) mutants
      (* the version tag invalidates, the timeout does not participate *)
      && Request.digest ~solver_version:"test-vNext" base (Request.resolve base)
         <> d0
      && digest_of { base with Request.timeout_s = Some 42.0 } = d0)

let test_digest_spec_inline_agree () =
  (* A spec and the inline text of the topology it builds are the same
     request: identity is by resolved content, not by spelling. *)
  let resolved = Request.resolve base_request in
  let inline =
    {
      base_request with
      Request.topology =
        Request.Inline (Core.Topology_io.to_string resolved.Request.topo);
    }
  in
  Alcotest.(check string) "same digest"
    (Request.digest base_request resolved)
    (Request.digest inline (Request.resolve inline));
  Alcotest.(check int) "digest width" Core.Digest_key.hex_length
    (String.length (Request.digest base_request resolved))

(* ---- coalescing ---- *)

let test_coalesce_single_flight () =
  let c : string Coalesce.t = Coalesce.create () in
  let gate = Semaphore.Counting.make 0 in
  let calls = Atomic.make 0 in
  let compute () =
    Semaphore.Counting.acquire gate;
    Printf.sprintf "body-%d" (Atomic.fetch_and_add calls 1)
  in
  let outcomes = Array.make 3 None in
  let participant i =
    Thread.create (fun () -> outcomes.(i) <- Some (Coalesce.run c ~key:"k" compute))
  in
  let leader = participant 0 () in
  (* Leader is parked on the gate; riders that arrive now must join it. *)
  while Coalesce.pending c = 0 do
    Thread.yield ()
  done;
  let riders = [ participant 1 (); participant 2 () ] in
  Thread.delay 0.05;
  (* Release enough for everyone: only a single-flight leader acquires. *)
  for _ = 1 to 3 do
    Semaphore.Counting.release gate
  done;
  List.iter Thread.join (leader :: riders);
  let values =
    Array.to_list outcomes
    |> List.map (function
         | Some { Coalesce.value = Ok v; _ } -> v
         | _ -> Alcotest.fail "participant failed")
  in
  Alcotest.(check (list string)) "all byte-identical"
    [ "body-0"; "body-0"; "body-0" ] values;
  Alcotest.(check int) "computed once" 1 (Atomic.get calls);
  let leaders =
    Array.to_list outcomes
    |> List.filter (function Some { Coalesce.led = true; _ } -> true | _ -> false)
    |> List.length
  in
  Alcotest.(check int) "exactly one leader" 1 leaders;
  Alcotest.(check int) "window closed" 0 (Coalesce.pending c)

let test_coalesce_propagates_exceptions () =
  let c : string Coalesce.t = Coalesce.create () in
  let gate = Semaphore.Counting.make 0 in
  let boom () =
    Semaphore.Counting.acquire gate;
    failwith "boom"
  in
  let out = Array.make 2 None in
  let t0 = Thread.create (fun () -> out.(0) <- Some (Coalesce.run c ~key:"k" boom)) () in
  while Coalesce.pending c = 0 do
    Thread.yield ()
  done;
  let t1 = Thread.create (fun () -> out.(1) <- Some (Coalesce.run c ~key:"k" boom)) () in
  Thread.delay 0.02;
  Semaphore.Counting.release gate;
  Semaphore.Counting.release gate;
  Thread.join t0;
  Thread.join t1;
  Array.iter
    (function
      | Some { Coalesce.value = Error (Failure msg); _ } ->
          Alcotest.(check string) "leader's exception" "boom" msg
      | _ -> Alcotest.fail "both participants must see the leader's exception")
    out;
  (* The key is reusable after the failure. *)
  let again = Coalesce.run c ~key:"k" (fun () -> "fresh") in
  Alcotest.(check bool) "fresh computation" true (again.Coalesce.value = Ok "fresh")

(* ---- server dispatch (in-process, no sockets) ---- *)

let mkreq ?(meth = "POST") ?(target = "/solve") ?(headers = []) body =
  { Http.meth; target; headers; body }

let handle srv req = Server.handle srv ~accept_ns:(Clock.now_ns ()) req

let no_timeout_config = { Server.default_config with Server.default_timeout_s = None }

let solve_body = "{\"topology\": \"rrg:12,6,3\", \"eps\": 0.2, \"gap\": 0.2}"

let test_server_healthz_and_404 () =
  let srv = Server.create no_timeout_config in
  let health = handle srv (mkreq ~meth:"GET" ~target:"/healthz" "") in
  Alcotest.(check int) "healthz" 200 health.Http.status;
  (* The body advertises what a coordinator admits workers on: the exact
     solver version (digest comparability) and the handler capacity. *)
  (match J.parse health.Http.body with
  | Error msg -> Alcotest.fail ("healthz body: " ^ msg)
  | Ok v ->
      Alcotest.(check (option string)) "solver version advertised"
        (Some Dcn_store.Digest_key.solver_version)
        (Option.bind (J.member "solver_version" v) J.to_string_opt);
      Alcotest.(check bool) "jobs at least 1" true
        (match Option.bind (J.member "jobs" v) J.to_int_opt with
        | Some jobs -> jobs >= 1
        | None -> false);
      Alcotest.(check (option bool)) "not draining" (Some false)
        (Option.bind (J.member "draining" v) J.to_bool_opt));
  Alcotest.(check int) "unknown endpoint" 404
    (handle srv (mkreq ~meth:"GET" ~target:"/nope" "")).Http.status;
  Alcotest.(check int) "GET /solve" 405
    (handle srv (mkreq ~meth:"GET" ~target:"/solve" "")).Http.status

let test_server_bad_requests () =
  let srv = Server.create no_timeout_config in
  let status body = (handle srv (mkreq body)).Http.status in
  Alcotest.(check int) "invalid JSON" 400 (status "nope");
  Alcotest.(check int) "missing topology" 400 (status "{}");
  (* Decodes fine, fails at resolution (invalid generator arguments). *)
  Alcotest.(check int) "semantically invalid spec" 400
    (status "{\"topology\": \"rrg:4,100,50\"}")

let test_server_solve_ok () =
  let srv = Server.create no_timeout_config in
  let resp = handle srv (mkreq solve_body) in
  Alcotest.(check int) "200" 200 resp.Http.status;
  match J.parse resp.Http.body with
  | Error msg -> Alcotest.fail ("response body must be JSON: " ^ msg)
  | Ok v ->
      let num name =
        match Option.bind (J.member name v) J.to_float_opt with
        | Some x -> x
        | None -> Alcotest.fail ("missing numeric field " ^ name)
      in
      let lo = num "lambda_lower" and hi = num "lambda_upper" in
      Alcotest.(check bool) "certified interval ordered" true
        (0.0 < lo && lo <= hi);
      Alcotest.(check bool) "lambda inside interval" true
        (lo <= num "lambda" && num "lambda" <= hi);
      Alcotest.(check (option int)) "digest width"
        (Some Core.Digest_key.hex_length)
        (Option.map String.length
           (Option.bind (J.member "digest" v) J.to_string_opt));
      (* Sequential repeat (no store installed): the solver recomputes and
         must render the very same bytes. *)
      let again = handle srv (mkreq solve_body) in
      Alcotest.(check string) "recompute is byte-identical" resp.Http.body
        again.Http.body

let test_server_routing_modes () =
  let srv = Server.create no_timeout_config in
  List.iter
    (fun routing ->
      let body =
        Printf.sprintf
          "{\"topology\": \"rrg:12,6,3\", \"eps\": 0.2, \"gap\": 0.2, \"routing\": \"%s\"}"
          routing
      in
      let resp = handle srv (mkreq body) in
      Alcotest.(check int) (routing ^ " solves") 200 resp.Http.status)
    [ "ksp:4"; "ecmp:16"; "vlb:3" ]

(* ---- golden response bodies ---- *)

(* test/golden/serve holds the daemon's bodies for [topobench client
   rrg:20,8,5 --eps 0.1 --gap 0.1 --seed S --routing M]; CI diffs the
   wire bodies, cold and from the hot cache, against the same files.
   In-process rendering must produce the very same bytes. *)
let test_server_golden_bodies () =
  let srv = Server.create no_timeout_config in
  List.iter
    (fun seed ->
      List.iter
        (fun (routing, name) ->
          let body =
            Request.to_body
              {
                base_request with
                Request.topology = Request.Spec (Core.Cli.Rrg (20, 8, 5));
                seed;
                routing;
              }
          in
          let file = Printf.sprintf "golden/serve/s%d-%s.json" seed name in
          let resp = handle srv (mkreq body) in
          Alcotest.(check int) (file ^ " status") 200 resp.Http.status;
          Alcotest.(check string) file
            (In_channel.with_open_bin file In_channel.input_all)
            resp.Http.body)
        [ (Request.Optimal, "optimal"); (Request.Ksp 4, "ksp_4") ])
    [ 1; 2; 3 ]

let test_server_deadline_preflight () =
  let srv =
    Server.create { Server.default_config with Server.default_timeout_s = Some 0.5 }
  in
  (* Accepted 10 simulated seconds ago: the budget is gone before the
     solve starts. *)
  let stale = Int64.sub (Clock.now_ns ()) 10_000_000_000L in
  let resp = Server.handle srv ~accept_ns:stale (mkreq solve_body) in
  Alcotest.(check int) "504 before solving" 504 resp.Http.status

(* A timeout too large for an int64 of nanoseconds saturates to "no
   practical deadline"; one that overflows a double is not JSON we
   accept. *)
let test_server_huge_timeout () =
  let srv = Server.create no_timeout_config in
  let status timeout =
    (handle srv
       (mkreq
          (Printf.sprintf
             "{\"topology\":\"rrg:20,8,5\",\"eps\":0.1,\"gap\":0.1,\"timeout_s\":%s}"
             timeout)))
      .Http.status
  in
  Alcotest.(check int) "1e999 is rejected" 400 (status "1e999");
  Alcotest.(check int) "1e10 solves" 200 (status "1e10")

let test_server_deadline_cancels_solve () =
  let srv = Server.create no_timeout_config in
  (* A solve that needs well over 50ms, with a 50ms budget: cancellation
     fires at an FPTAS phase boundary mid-run. *)
  let body =
    "{\"topology\": \"rrg:40,15,10\", \"eps\": 0.03, \"gap\": 0.03, \"timeout_s\": 0.05}"
  in
  let resp = handle srv (mkreq body) in
  Alcotest.(check int) "504 mid-solve" 504 resp.Http.status

let test_server_coalesces_concurrent_duplicates () =
  with_metrics (fun () ->
      let srv = Server.create no_timeout_config in
      (* Slow enough (seconds) that the rider reliably arrives while the
         leader's solve is in flight. *)
      let body = "{\"topology\": \"rrg:40,15,10\", \"eps\": 0.03, \"gap\": 0.03}" in
      let before = Metrics.snapshot () in
      let responses = Array.make 2 None in
      let participant i =
        Thread.create (fun () -> responses.(i) <- Some (handle srv (mkreq body)))
      in
      let leader = participant 0 () in
      let deadline = Int64.add (Clock.now_ns ()) 30_000_000_000L in
      while Server.coalesce_pending srv = 0 && Clock.now_ns () < deadline do
        Thread.yield ()
      done;
      Alcotest.(check int) "leader registered" 1 (Server.coalesce_pending srv);
      let rider = participant 1 () in
      Thread.join leader;
      Thread.join rider;
      let bodies =
        Array.to_list responses
        |> List.map (function
             | Some r ->
                 Alcotest.(check int) "200" 200 r.Http.status;
                 r.Http.body
             | None -> Alcotest.fail "participant did not finish")
      in
      (match bodies with
      | [ a; b ] -> Alcotest.(check string) "byte-identical bodies" a b
      | _ -> assert false);
      let d = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
      Alcotest.(check int) "solver led once" 1
        (Metrics.counter_value d "serve.solve.led");
      Alcotest.(check int) "one coalesced rider" 1
        (Metrics.counter_value d "serve.solve.coalesced"))

let test_server_metrics_endpoint () =
  with_metrics (fun () ->
      let srv = Server.create no_timeout_config in
      ignore (handle srv (mkreq ~meth:"GET" ~target:"/healthz" ""));
      let resp = handle srv (mkreq ~meth:"GET" ~target:"/metrics" "") in
      Alcotest.(check int) "200" 200 resp.Http.status;
      Alcotest.(check (option string)) "json content type"
        (Some "application/json")
        (List.assoc_opt "Content-Type" resp.Http.headers);
      match J.parse resp.Http.body with
      | Error msg -> Alcotest.fail ("/metrics must be JSON: " ^ msg)
      | Ok v ->
          Alcotest.(check bool) "request counter present" true
            (Option.bind (J.member "counters" v) (J.member "serve.requests")
            <> None);
          (* Envelope meta, so a coordinator can attribute and age the
             registry it polled. *)
          Alcotest.(check (option string)) "solver_version meta"
            (Some Dcn_store.Digest_key.solver_version)
            (Option.bind (J.member "solver_version" v) J.to_string_opt);
          Alcotest.(check bool) "uptime_ns meta non-negative" true
            (match Option.bind (J.member "uptime_ns" v) J.to_float_opt with
            | Some ns -> ns >= 0.0
            | None -> false))

(* ---- GET /trace: the fleet-trace collection endpoint ---- *)

let test_server_trace_endpoint () =
  with_trace (fun () ->
      let srv = Server.create no_timeout_config in
      (* A solve carrying the coordinator's identity: the solve span (and
         everything nested under it) must be tagged with the trace/unit
         ids, and a flow-in must bind the dispatch arrow. *)
      let resp =
        handle srv
          (mkreq ~headers:[ ("x-dcn-trace", "run-xyz/5/99") ] solve_body)
      in
      Alcotest.(check int) "solve 200" 200 resp.Http.status;
      let dump = handle srv (mkreq ~meth:"GET" ~target:"/trace?drain=1" "") in
      Alcotest.(check int) "trace 200" 200 dump.Http.status;
      Alcotest.(check (option string)) "json content type"
        (Some "application/json")
        (List.assoc_opt "Content-Type" dump.Http.headers);
      (match J.parse dump.Http.body with
      | Error msg -> Alcotest.fail ("/trace must be JSON: " ^ msg)
      | Ok v ->
          Alcotest.(check (option string)) "solver_version"
            (Some Dcn_store.Digest_key.solver_version)
            (Option.bind (J.member "solver_version" v) J.to_string_opt);
          Alcotest.(check (option int)) "pid" (Some (Unix.getpid ()))
            (Option.bind (J.member "pid" v) J.to_int_opt);
          Alcotest.(check (option bool)) "enabled" (Some true)
            (Option.bind (J.member "enabled" v) J.to_bool_opt);
          let events =
            match J.member "events" v with
            | Some (J.Arr evs) -> evs
            | _ -> Alcotest.fail "events must be an array"
          in
          let str m e = Option.bind (J.member m e) J.to_string_opt in
          let solve_spans =
            List.filter
              (fun e ->
                str "ph" e = Some "X"
                && str "cat" e = Some "serve"
                && (match str "name" e with
                   | Some n ->
                       String.length n >= 6 && String.sub n 0 6 = "solve "
                   | None -> false))
              events
          in
          (match solve_spans with
          | [ span ] ->
              let args =
                match J.member "args" span with
                | Some a -> a
                | None -> Alcotest.fail "solve span has no args"
              in
              Alcotest.(check (option string)) "span carries the trace id"
                (Some "run-xyz")
                (Option.bind (J.member "trace" args) J.to_string_opt);
              Alcotest.(check (option int)) "span carries the unit id" (Some 5)
                (Option.bind (J.member "unit" args) J.to_int_opt)
          | l ->
              Alcotest.fail
                (Printf.sprintf "%d solve spans in dump" (List.length l)));
          let flow_ins =
            List.filter
              (fun e ->
                str "ph" e = Some "f"
                && Option.bind (J.member "id" e) J.to_int_opt = Some 99)
              events
          in
          Alcotest.(check int) "dispatch flow bound once" 1
            (List.length flow_ins));
      (* drain=1 emptied the buffers: a second dump reports no events. *)
      let again = handle srv (mkreq ~meth:"GET" ~target:"/trace" "") in
      match J.parse again.Http.body with
      | Error msg -> Alcotest.fail ("second /trace must be JSON: " ^ msg)
      | Ok v -> (
          match J.member "events" v with
          | Some (J.Arr []) -> ()
          | Some (J.Arr evs) ->
              Alcotest.fail
                (Printf.sprintf "%d events survived the drain" (List.length evs))
          | _ -> Alcotest.fail "events must be an array"))

(* ---- access log ---- *)

let test_server_access_log () =
  let path = Filename.temp_file "dcn_serve_access" ".jsonl" in
  Sys.remove path;
  let srv =
    Server.create { no_timeout_config with Server.access_log = Some path }
  in
  ignore (handle srv (mkreq ~meth:"GET" ~target:"/healthz" ""));
  ignore (handle srv (mkreq solve_body));
  let lines = Event_log.read_lines path in
  Alcotest.(check int) "one line per request" 2 (List.length lines);
  let parsed =
    List.map
      (fun line ->
        match J.parse line with
        | Ok v -> v
        | Error msg -> Alcotest.fail ("access line must be JSON: " ^ msg))
      lines
  in
  (match parsed with
  | [ health; solve ] ->
      let str m e = Option.bind (J.member m e) J.to_string_opt in
      Alcotest.(check (option string)) "ev" (Some "request") (str "ev" health);
      Alcotest.(check (option string)) "healthz path" (Some "/healthz")
        (str "path" health);
      Alcotest.(check bool) "healthz has no digest" true
        (J.member "digest" health = None);
      Alcotest.(check (option string)) "solve path" (Some "/solve")
        (str "path" solve);
      Alcotest.(check (option int)) "solve status" (Some 200)
        (Option.bind (J.member "status" solve) J.to_int_opt);
      Alcotest.(check (option int)) "digest width"
        (Some Core.Digest_key.hex_length)
        (Option.map String.length (str "digest" solve));
      (* Uncontended request: this process led its own solve. *)
      Alcotest.(check (option string)) "role" (Some "led") (str "role" solve);
      Alcotest.(check bool) "wall time recorded" true
        (match Option.bind (J.member "wall_ms" solve) J.to_float_opt with
        | Some ms -> ms >= 0.0
        | None -> false)
  | _ -> assert false);
  Sys.remove path

(* ---- Metrics_io: the cross-process snapshot decoder ---- *)

let test_metrics_io_roundtrip_merge () =
  with_metrics (fun () ->
      (* Short decimal values first; the unrounded input below covers
         values no short rendering reproduces. *)
      let c = Metrics.counter "io.rt.counter" in
      let g = Metrics.gauge "io.rt.gauge" in
      let h =
        Metrics.histogram ~bounds:[| 0.001; 0.01; 0.1; 1.0 |] "io.rt.hist"
      in
      Metrics.add c 7;
      Metrics.set g 1.5;
      Metrics.observe h 0.01;
      Metrics.observe h 0.5;
      let a = Metrics.snapshot () in
      Metrics.add c 35;
      Metrics.set g 2.25;
      Metrics.observe h 0.001;
      Metrics.observe h 2.0;
      let b = Metrics.diff ~before:a ~after:(Metrics.snapshot ()) in
      let reparse snap =
        match Metrics_io.snapshot_of_body (Metrics.to_json snap) with
        | Ok s -> s
        | Error msg -> Alcotest.fail ("snapshot_of_body: " ^ msg)
      in
      (* Decode round-trip is exact on controlled values... *)
      Alcotest.(check string) "snapshot round-trips through JSON"
        (Metrics.to_json a)
        (Metrics.to_json (reparse a));
      (* ...and merging two decoded snapshots equals merging the
         originals — the coordinator's aggregation path: each worker's
         registry crosses the wire as JSON, then merges locally. *)
      Alcotest.(check string) "merge commutes with the wire format"
        (Metrics.to_json (Metrics.merge a b))
        (Metrics.to_json (Metrics.merge (reparse a) (reparse b)));
      (* Unrounded values: every finite float must come back bit for bit
         (sums feed merge arithmetic), and an infinite gauge, rendered as
         null, must decode as nan without failing the snapshot. *)
      let fine = Metrics.histogram "io.rt.fine" in
      for i = 1 to 1000 do
        Metrics.observe fine (0.0012345678 *. float_of_int i)
      done;
      Metrics.set (Metrics.gauge "io.rt.fine_gauge") 1234.56789;
      Metrics.set (Metrics.gauge "io.rt.inf") Float.infinity;
      let c = Metrics.snapshot () in
      let back = reparse c in
      let bits name snap =
        match Metrics.find snap name with
        | Some (Metrics.Gauge_v x) -> [| Int64.bits_of_float x |]
        | Some (Metrics.Histogram_v { bounds; sum; _ }) ->
            Array.map Int64.bits_of_float (Array.append [| sum |] bounds)
        | Some (Metrics.Counter_v _) | None -> Alcotest.fail (name ^ " missing")
      in
      List.iter
        (fun name ->
          Alcotest.(check (array int64)) (name ^ " bit-exact") (bits name c)
            (bits name back))
        [ "io.rt.fine"; "io.rt.fine_gauge"; "io.rt.hist" ];
      (match Metrics.find back "io.rt.inf" with
      | Some (Metrics.Gauge_v x) ->
          Alcotest.(check bool) "infinite gauge decodes as nan" true
            (Float.is_nan x)
      | Some (Metrics.Counter_v _ | Metrics.Histogram_v _) | None ->
          Alcotest.fail "infinite gauge missing");
      Alcotest.(check int) "counter survives" 42
        (Metrics.counter_value back "io.rt.counter");
      (* Decoder rejections: histograms must be structurally sound. *)
      match
        Metrics_io.snapshot_of_body
          "{\"counters\": {}, \"gauges\": {}, \"histograms\": {\"bad\": \
           {\"bounds\": [1.0], \"counts\": [1, 2, 3], \"sum\": 0}}}"
      with
      | Ok _ -> Alcotest.fail "mismatched counts length must be rejected"
      | Error _ -> ())

(* Read-only endpoints keep answering while the server drains: the flag
   flips healthz (so orchestrators stop dispatching) and new solves are
   rejected 503, but the probe itself still works. *)
let test_server_draining_flag () =
  let srv = Server.create no_timeout_config in
  let contains s sub =
    let sl = String.length sub and tl = String.length s in
    let rec go i = i + sl <= tl && (String.sub s i sl = sub || go (i + 1)) in
    go 0
  in
  Server.set_draining srv true;
  Alcotest.(check bool) "is_draining" true (Server.is_draining srv);
  let h = handle srv (mkreq ~meth:"GET" ~target:"/healthz" "") in
  Alcotest.(check int) "healthz still 200" 200 h.Http.status;
  Alcotest.(check bool) "healthz reports draining" true
    (contains h.Http.body "\"draining\": true");
  let m = handle srv (mkreq ~meth:"GET" ~target:"/metrics" "") in
  Alcotest.(check int) "metrics still 200" 200 m.Http.status;
  let r = Server.reject srv `Draining in
  Alcotest.(check int) "new solves 503" 503 r.Http.status;
  Server.set_draining srv false;
  let h = handle srv (mkreq ~meth:"GET" ~target:"/healthz" "") in
  Alcotest.(check bool) "flag clears" true
    (contains h.Http.body "\"draining\": false")

let suite =
  ( "serve",
    [
      Alcotest.test_case "json parse basics" `Quick test_json_parse_basics;
      Alcotest.test_case "json parse rejects" `Quick test_json_parse_rejects;
      Alcotest.test_case "http clients reject hostile Content-Length" `Quick
        test_http_hostile_content_length;
      Alcotest.test_case "http response wire format" `Quick
        test_http_response_wire_format;
      Alcotest.test_case "request defaults" `Quick test_request_defaults;
      Alcotest.test_case "request rejects" `Quick test_request_rejects;
      Alcotest.test_case "routing round-trip" `Quick test_routing_roundtrip;
      QCheck_alcotest.to_alcotest prop_digest_distinguishes;
      Alcotest.test_case "digest: spec and inline agree" `Quick
        test_digest_spec_inline_agree;
      Alcotest.test_case "coalesce single flight" `Quick
        test_coalesce_single_flight;
      Alcotest.test_case "coalesce propagates exceptions" `Quick
        test_coalesce_propagates_exceptions;
      Alcotest.test_case "healthz and 404/405" `Quick test_server_healthz_and_404;
      Alcotest.test_case "bad requests get 400" `Quick test_server_bad_requests;
      Alcotest.test_case "solve returns certified interval" `Quick
        test_server_solve_ok;
      Alcotest.test_case "restricted routing modes solve" `Quick
        test_server_routing_modes;
      Alcotest.test_case "golden bodies render byte-identically" `Quick
        test_server_golden_bodies;
      Alcotest.test_case "deadline rejected before solve" `Quick
        test_server_deadline_preflight;
      Alcotest.test_case "huge timeout_s: 400 or solved" `Quick
        test_server_huge_timeout;
      Alcotest.test_case "deadline cancels mid-solve" `Quick
        test_server_deadline_cancels_solve;
      Alcotest.test_case "concurrent duplicates coalesce" `Quick
        test_server_coalesces_concurrent_duplicates;
      Alcotest.test_case "metrics endpoint" `Quick test_server_metrics_endpoint;
      Alcotest.test_case "trace endpoint propagates ids and drains" `Quick
        test_server_trace_endpoint;
      Alcotest.test_case "access log lines" `Quick test_server_access_log;
      Alcotest.test_case "metrics wire round-trip merges" `Quick
        test_metrics_io_roundtrip_merge;
      Alcotest.test_case "draining flag: healthz + 503" `Quick
        test_server_draining_flag;
    ] )
