(* Byte pins and shape checks for the JSON documents the repository
   writes outside the telemetry hot path: request wire bodies, the
   daemon's /healthz and error bodies, lint findings and reports, the
   grid artifact and the orchestrator summary. The expected text
   interpolates the solver version, so a version bump does not break
   the pins. *)

module J = Dcn_obs.Json
module Http = Dcn_serve.Http
module Request = Dcn_serve.Request
module Server = Dcn_serve.Server
module Grid = Dcn_orchestrate.Grid
module Orchestrator = Dcn_orchestrate.Orchestrator
module Finding = Dcn_lint_engine.Finding
module Baseline = Dcn_lint_engine.Baseline
module Driver = Dcn_lint_engine.Driver

let version = Dcn_store.Digest_key.solver_version

let test_request_body_pinned () =
  let req =
    {
      Request.topology = Request.Spec (Core.Cli.Rrg (20, 8, 5));
      seed = 3;
      traffic = Core.Cli.A2a;
      eps = 1.0 /. 3.0;
      gap = 0.1;
      routing = Request.Ksp 4;
      timeout_s = Some 2.5;
    }
  in
  Alcotest.(check string) "spec with timeout_s"
    "{\"topology\": \"rrg:20,8,5\", \"seed\": 3, \"traffic\": \"a2a\", \
     \"eps\": 0.33333333333333331, \"gap\": 0.1, \"routing\": \"ksp:4\", \
     \"timeout_s\": 2.5}"
    (Request.to_body req);
  Alcotest.(check string) "inline topology"
    "{\"topology\": {\"inline\": \"switches 2\\n\\\"q\\\"\\tend\"}, \
     \"seed\": 1, \"traffic\": \"permutation\", \"eps\": 0.05, \"gap\": \
     0.05, \"routing\": \"optimal\"}"
    (Request.to_body
       {
         Request.topology = Request.Inline "switches 2\n\"q\"\tend";
         seed = 1;
         traffic = Core.Cli.Perm;
         eps = 0.05;
         gap = 0.05;
         routing = Request.Optimal;
         timeout_s = None;
       })

let test_server_bodies_pinned () =
  let srv = Server.create Server.default_config in
  let get target =
    Server.handle srv ~accept_ns:(Dcn_obs.Clock.now_ns ())
      {
        Http.meth = "GET";
        target;
        headers = [];
        body = "";
      }
  in
  Alcotest.(check string) "healthz body"
    (Printf.sprintf
       "{\"status\": \"ok\", \"solver_version\": \"%s\", \"jobs\": %d, \
        \"draining\": false}\n"
       version
       (max 1 (Core.Pool.workers ())))
    (get "/healthz").Http.body;
  let missing = get "/nope" in
  Alcotest.(check int) "404" 404 missing.Http.status;
  Alcotest.(check string) "404 body"
    "{\"error\": \"no such endpoint /nope\"}\n" missing.Http.body

let finding =
  {
    Finding.file = "lib/a b.ml";
    line = 3;
    col = 4;
    rule = "catch-all";
    message = "bad \"x\" at C:\\tmp\n\tnext\001";
  }

let test_finding_json_pinned () =
  Alcotest.(check string) "finding with escapes"
    "{\"file\": \"lib/a b.ml\", \"line\": 3, \"col\": 4, \"rule\": \
     \"catch-all\", \"message\": \"bad \\\"x\\\" at C:\\\\tmp\\n\\tnext\\u0001\"}"
    (Finding.to_json finding)

let test_grid_json_pinned () =
  let grid =
    Grid.create
      ~topos:[ Core.Cli.Rrg (12, 6, 3); Core.Cli.Fat_tree 4 ]
      ~epses:[ 0.1; 1.0 /. 3.0 ]
      ()
  in
  Alcotest.(check string) "two-axis grid"
    (Printf.sprintf
       "{\n\
       \  \"solver_version\": \"%s\",\n\
       \  \"topologies\": [\"rrg:12,6,3\", \"fat-tree:4\"],\n\
       \  \"seeds\": [1],\n\
       \  \"traffics\": [\"permutation\"],\n\
       \  \"eps\": [0.1, 0.33333333333333331],\n\
       \  \"gap\": [0.05],\n\
       \  \"routings\": [\"optimal\"]\n\
        }\n"
       version)
    (Grid.to_json grid)

let parse what text =
  match J.parse text with
  | Ok v -> v
  | Error msg -> Alcotest.fail (Printf.sprintf "%s is not JSON: %s" what msg)

let field what key v =
  match J.member key v with
  | Some x -> x
  | None -> Alcotest.fail (Printf.sprintf "%s lacks %S" what key)

let keys = function
  | J.Obj members -> List.map fst members
  | J.Null | J.Bool _ | J.Int _ | J.Num _ | J.Str _ | J.Arr _ -> []

let items what = function
  | J.Arr xs -> xs
  | J.Null | J.Bool _ | J.Int _ | J.Num _ | J.Str _ | J.Obj _ ->
      Alcotest.fail (what ^ " is not an array")

let test_lint_report_shape () =
  let other = { finding with Finding.file = "lib/b.ml"; message = "old" } in
  let report =
    {
      Driver.findings = [ finding; other ];
      suppressed = [ ({ finding with Finding.line = 9 }, "audited \"ok\"") ];
      files = 7;
      skipped = [];
      errors = [ "x.cmt: unreadable" ];
    }
  in
  let stale =
    [ { Baseline.file = "lib/c.ml"; line = 1; col = 2; rule = "float-compare" } ]
  in
  let v =
    parse "lint report"
      (Driver.render_json report ~fresh:[ finding ] ~grandfathered:[ other ]
         ~stale)
  in
  Alcotest.(check (list string)) "top-level keys"
    [ "files"; "errors"; "new"; "baselined"; "stale_baseline"; "suppressed" ]
    (keys v);
  Alcotest.(check (option int)) "files" (Some 7)
    (J.to_int_opt (field "report" "files" v));
  Alcotest.(check (option int)) "errors" (Some 1)
    (J.to_int_opt (field "report" "errors" v));
  (match items "new" (field "report" "new" v) with
  | [ f ] ->
      Alcotest.(check (list string)) "finding keys"
        [ "file"; "line"; "col"; "rule"; "message" ]
        (keys f);
      Alcotest.(check (option string)) "message survives escaping"
        (Some finding.Finding.message)
        (J.to_string_opt (field "finding" "message" f))
  | l -> Alcotest.fail (Printf.sprintf "%d new findings" (List.length l)));
  Alcotest.(check (list (option string))) "baselined"
    [ Some "lib/b.ml" ]
    (List.map
       (fun f -> J.to_string_opt (field "finding" "file" f))
       (items "baselined" (field "report" "baselined" v)));
  Alcotest.(check (list (option string))) "stale baseline lines"
    [ Some "lib/c.ml:1:2:float-compare" ]
    (List.map J.to_string_opt
       (items "stale" (field "report" "stale_baseline" v)));
  match items "suppressed" (field "report" "suppressed" v) with
  | [ s ] ->
      Alcotest.(check (list string)) "suppressed keys" [ "finding"; "reason" ]
        (keys s);
      Alcotest.(check (option string)) "reason" (Some "audited \"ok\"")
        (J.to_string_opt (field "suppressed" "reason" s));
      Alcotest.(check (option int)) "suppressed line" (Some 9)
        (J.to_int_opt (field "finding" "line" (field "suppressed" "finding" s)))
  | l -> Alcotest.fail (Printf.sprintf "%d suppressed" (List.length l))

let test_summary_shape () =
  let stat =
    {
      Orchestrator.ws_worker = "http://127.0.0.1:1";
      ws_pid = None;
      ws_log = None;
      ws_units = 2;
      ws_solves = 1;
      ws_cache_hits = 1;
      ws_cache_misses = 0;
      ws_solve_p50_s = None;
      ws_solve_p95_s = Some 0.25;
      ws_solve_p99_s = None;
      ws_queue_p95_s = None;
    }
  in
  let summary =
    {
      Orchestrator.total = 3;
      from_cache = 0;
      computed = 2;
      per_worker = [ ("http://127.0.0.1:1", 2) ];
      dispatched = 4;
      retried = 1;
      hedged = 1;
      discarded = 1;
      evicted = 0;
      readmitted = 0;
      failed = [ ("rrg:12,6,3/s1", "worker said \"no\"") ];
      wall_s = 1.5;
      trace_id = None;
      worker_stats = [ stat ];
    }
  in
  let v = parse "summary" (Orchestrator.summary_to_json summary) in
  Alcotest.(check (list string)) "top-level keys"
    [
      "total"; "from_cache"; "computed"; "dispatched"; "retried"; "hedged";
      "discarded"; "evicted"; "readmitted"; "wall_s"; "trace_id"; "sched";
      "per_worker"; "workers"; "failed";
    ]
    (keys v);
  Alcotest.(check (option (float 0.0))) "wall_s" (Some 1.5)
    (J.to_float_opt (field "summary" "wall_s" v));
  Alcotest.(check bool) "trace_id null" true
    (field "summary" "trace_id" v = J.Null);
  let sched = field "summary" "sched" v in
  Alcotest.(check (list (option int))) "sched counts"
    [ Some 4; Some 1; Some 1; Some 1; Some 0; Some 0; Some 2; Some 1 ]
    (List.map
       (fun k -> J.to_int_opt (field "sched" k sched))
       [
         "dispatched"; "retried"; "hedged"; "discarded"; "evicted";
         "readmitted"; "completed"; "failed";
       ]);
  (match items "per_worker" (field "summary" "per_worker" v) with
  | [ pw ] ->
      Alcotest.(check (list string)) "per_worker keys" [ "worker"; "units" ]
        (keys pw)
  | l -> Alcotest.fail (Printf.sprintf "%d per_worker rows" (List.length l)));
  (match items "workers" (field "summary" "workers" v) with
  | [ w ] ->
      Alcotest.(check (list string)) "worker keys"
        [
          "worker"; "pid"; "log"; "units"; "solves"; "cache_hits";
          "cache_misses"; "solve_p50_s"; "solve_p95_s"; "solve_p99_s";
          "queue_p95_s";
        ]
        (keys w);
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " is null") true (field "worker" k w = J.Null))
        [ "pid"; "log"; "solve_p50_s"; "solve_p99_s"; "queue_p95_s" ];
      Alcotest.(check (option (float 0.0))) "solve_p95_s" (Some 0.25)
        (J.to_float_opt (field "worker" "solve_p95_s" w))
  | l -> Alcotest.fail (Printf.sprintf "%d worker rows" (List.length l)));
  match items "failed" (field "summary" "failed" v) with
  | [ f ] ->
      Alcotest.(check (list string)) "failed keys" [ "unit"; "error" ] (keys f);
      Alcotest.(check (option string)) "error text"
        (Some "worker said \"no\"")
        (J.to_string_opt (field "failed" "error" f))
  | l -> Alcotest.fail (Printf.sprintf "%d failed rows" (List.length l))

let suite =
  ( "documents",
    [
      Alcotest.test_case "request body bytes pinned" `Quick
        test_request_body_pinned;
      Alcotest.test_case "healthz and 404 bodies pinned" `Quick
        test_server_bodies_pinned;
      Alcotest.test_case "finding json bytes pinned" `Quick
        test_finding_json_pinned;
      Alcotest.test_case "grid json bytes pinned" `Quick test_grid_json_pinned;
      Alcotest.test_case "lint report shape" `Quick test_lint_report_shape;
      Alcotest.test_case "orchestrator summary shape" `Quick test_summary_shape;
    ] )
