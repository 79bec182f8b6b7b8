(* Tests for the observability layer: metrics registry semantics (atomic
   counting under the pool, histogram bucket boundaries, snapshot
   algebra), the monotonic clock, and the trace emitter — including the
   cross-check that the FPTAS's phase count equals its phase-span count,
   and that instrumentation never changes solver results. *)

module Metrics = Dcn_obs.Metrics
module Trace = Dcn_obs.Trace
module Context = Dcn_obs.Context
module Event_log = Dcn_obs.Event_log
module Clock = Dcn_obs.Clock
module Json = Dcn_obs.Json
module Pool = Dcn_util.Pool

(* ---- reading what the layer emits --------------------------------- *)

let parse_json s =
  match Json.parse s with
  | Ok v -> v
  | Error msg -> Alcotest.fail ("invalid JSON: " ^ msg)

let member = Json.member

let member_exn k j =
  match member k j with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "missing key %S" k)

let num_exn j =
  match Json.to_float_opt j with
  | Some f -> f
  | None -> Alcotest.fail "expected a JSON number"

let str_opt = Json.to_string_opt

(* ---- fixtures ------------------------------------------------------ *)

(* Observability state is process-global; every test that flips a switch
   restores it (and zeroes what it recorded) so tests compose in any
   order and leave nothing behind for other suites. *)
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

let with_workers n f =
  let old = Pool.workers () in
  Pool.set_workers n;
  Fun.protect ~finally:(fun () -> Pool.set_workers old) f

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let temp_path suffix =
  let path = Filename.temp_file "dcn_obs_test" suffix in
  Sys.remove path;
  path

(* ---- clock --------------------------------------------------------- *)

let test_clock_monotone () =
  let t0 = Clock.now_ns () in
  (* A little real work so the clock has a chance to advance. *)
  let acc = ref 0 in
  for i = 1 to 100_000 do
    acc := !acc + i
  done;
  ignore !acc;
  let t1 = Clock.now_ns () in
  Alcotest.(check bool) "time advances" true (Int64.compare t1 t0 >= 0);
  Alcotest.(check bool)
    "elapsed non-negative" true
    (Clock.seconds_between t0 t1 >= 0.0);
  (* The defensive clamp: a reversed pair reads as zero, never negative. *)
  Alcotest.(check (float 0.0)) "reversed pair clamps" 0.0
    (Clock.seconds_between t1 t0)

(* ---- metrics registry ---------------------------------------------- *)

let test_counter_concurrent_sum () =
  with_metrics (fun () ->
      let c = Metrics.counter "test.concurrent" in
      let tasks = 1000 in
      with_workers 3 (fun () ->
          Pool.run ~total:tasks (fun i ->
              Metrics.incr c;
              if i mod 2 = 0 then Metrics.add c 2));
      (* 1000 incr + 500 add-2: no increment may be lost to a race. *)
      Alcotest.(check int) "exact sum" (tasks + (tasks / 2 * 2))
        (Metrics.counter_value (Metrics.snapshot ()) "test.concurrent"))

let test_disabled_records_nothing () =
  Metrics.set_enabled false;
  let c = Metrics.counter "test.disabled" in
  Metrics.incr c;
  Metrics.add c 41;
  with_metrics (fun () ->
      Alcotest.(check int) "nothing recorded while off" 0
        (Metrics.counter_value (Metrics.snapshot ()) "test.disabled"))

let test_histogram_boundaries () =
  with_metrics (fun () ->
      let h = Metrics.histogram ~bounds:[| 1.0; 2.0; 4.0 |] "test.hist" in
      (* Documented semantics: bucket 0 = (-inf, 1); bucket i = [b_{i-1},
         b_i) — lower inclusive, upper exclusive; overflow = [4, +inf). *)
      List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 2.0; 3.999; 4.0; 100.0 ];
      match Metrics.find (Metrics.snapshot ()) "test.hist" with
      | Some (Metrics.Histogram_v { bounds; counts; sum }) ->
          Alcotest.(check (array (float 0.0))) "bounds preserved"
            [| 1.0; 2.0; 4.0 |] bounds;
          Alcotest.(check (array int)) "boundary values land lower-inclusive"
            [| 1; 2; 2; 2 |] counts;
          Alcotest.(check (float 1e-9)) "sum" 112.999 sum
      | _ -> Alcotest.fail "histogram missing from snapshot")

let test_kind_mismatch_rejected () =
  ignore (Metrics.counter "test.kind");
  Alcotest.check_raises "same name, different kind"
    (Invalid_argument
       "Metrics: test.kind is already registered and is not a gauge")
    (fun () -> ignore (Metrics.gauge "test.kind"))

let test_snapshot_diff_merge_roundtrip () =
  with_metrics (fun () ->
      (* Register everything first so both snapshots carry the same names
         (merge is then an exact inverse of diff, not just up to dropped
         zero entries). *)
      let c = Metrics.counter "test.rt.counter" in
      let g = Metrics.gauge "test.rt.gauge" in
      let h = Metrics.histogram ~bounds:[| 0.1; 1.0 |] "test.rt.hist" in
      Metrics.add c 5;
      Metrics.set g 2.5;
      Metrics.observe h 0.05;
      let before = Metrics.snapshot () in
      Metrics.add c 37;
      Metrics.set g 7.25;
      Metrics.observe h 0.5;
      Metrics.observe h 3.0;
      let after = Metrics.snapshot () in
      let d = Metrics.diff ~before ~after in
      Alcotest.(check int) "diff subtracts counters" 37
        (Metrics.counter_value d "test.rt.counter");
      (* Unchanged metrics elsewhere in the registry must not appear. *)
      List.iter
        (fun (name, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s belongs to the region" name)
            true
            (String.length name >= 8 && String.sub name 0 8 = "test.rt."))
        d;
      Alcotest.(check string) "merge before (diff before after) = after"
        (Metrics.to_json after)
        (Metrics.to_json (Metrics.merge before d)))

let test_metrics_json_parses () =
  with_metrics (fun () ->
      Metrics.add (Metrics.counter "test.json.counter") 3;
      Metrics.set (Metrics.gauge "test.json.gauge") 1.5;
      Metrics.observe (Metrics.histogram "test.json.hist") 0.002;
      let j = parse_json (Metrics.to_json (Metrics.snapshot ())) in
      let counters = member_exn "counters" j in
      Alcotest.(check (float 0.0)) "counter value" 3.0
        (num_exn (member_exn "test.json.counter" counters));
      ignore (member_exn "test.json.gauge" (member_exn "gauges" j));
      let h = member_exn "test.json.hist" (member_exn "histograms" j) in
      let counts =
        match member_exn "counts" h with
        | Json.Arr xs -> List.map num_exn xs
        | _ -> Alcotest.fail "counts not an array"
      in
      let bounds =
        match member_exn "bounds" h with
        | Json.Arr xs -> xs
        | _ -> Alcotest.fail "bounds not an array"
      in
      Alcotest.(check int) "one more count than bound (overflow bucket)"
        (List.length bounds + 1)
        (List.length counts);
      Alcotest.(check (float 0.0)) "count = sum of buckets"
        (List.fold_left ( +. ) 0.0 counts)
        (num_exn (member_exn "count" h)))

(* ---- json helpers -------------------------------------------------- *)

let test_escape_roundtrip () =
  let nasty = "a\"b\\c\nd\te\r\001end" in
  match parse_json (Json.quote nasty) with
  | Json.Str s -> Alcotest.(check string) "escape round-trips" nasty s
  | _ -> Alcotest.fail "quoted string did not parse as a string"

let test_atomic_write_creates_parents () =
  let dir = temp_path ".d" in
  let path = Filename.concat (Filename.concat dir "a") "b.json" in
  Json.atomic_write ~path "{}";
  Alcotest.(check string) "content readable back" "{}" (read_file path);
  Sys.remove path;
  Sys.rmdir (Filename.concat dir "a");
  Sys.rmdir dir

(* ---- trace emitter ------------------------------------------------- *)

let trace_events path =
  match member_exn "traceEvents" (parse_json (read_file path)) with
  | Json.Arr events -> events
  | _ -> Alcotest.fail "traceEvents is not an array"

let test_trace_file_well_formed () =
  with_trace (fun () ->
      Trace.with_span ~cat:"test" "outer" (fun () ->
          Trace.instant ~cat:"test" "tick"
            ~args:[ ("k", Json.Str "v\"quoted\"") ];
          Trace.with_span ~cat:"test" "inner"
            ~args:[ ("n", Json.Int 3); ("x", Json.Num 0.5) ]
            (fun () -> ()));
      (* Spans emitted from pool workers land on their own tracks. *)
      with_workers 2 (fun () ->
          Pool.run ~total:8 (fun i ->
              Trace.with_span ~cat:"test" "task"
                ~args:[ ("i", Json.Int i) ]
                (fun () -> ())));
      let path = temp_path ".json" in
      Trace.write path;
      let events = trace_events path in
      Sys.remove path;
      Alcotest.(check bool) "events present" true (List.length events > 0);
      let phases =
        List.filter_map (fun e -> Option.bind (member "ph" e) str_opt) events
      in
      List.iter
        (fun ph ->
          Alcotest.(check bool)
            (Printf.sprintf "known event type %S" ph)
            true
            (List.mem ph [ "X"; "i"; "s"; "f"; "M" ]))
        phases;
      List.iter
        (fun e ->
          match Option.bind (member "ph" e) str_opt with
          | Some "X" ->
              Alcotest.(check bool) "span duration non-negative" true
                (num_exn (member_exn "dur" e) >= 0.0);
              Alcotest.(check bool) "span timestamp non-negative" true
                (num_exn (member_exn "ts" e) >= 0.0)
          | _ -> ())
        events;
      (* Each emitting domain gets a named track. *)
      let thread_names =
        List.filter
          (fun e ->
            Option.bind (member "name" e) str_opt = Some "thread_name")
          events
      in
      Alcotest.(check bool) "thread_name metadata present" true
        (List.length thread_names >= 1);
      let tids =
        (* Only tracks carrying real events must be named; metadata rows
           (process_name is pinned to tid 0) don't create a track, and
           whether the submitting domain claims any task of its own batch
           is a race against the workers. *)
        List.sort_uniq Float.compare
          (List.filter_map
             (fun e ->
               match Option.bind (member "ph" e) str_opt with
               | Some "M" -> None
               | _ -> Option.map num_exn (member "tid" e))
             events)
      in
      let named_tids =
        List.sort_uniq Float.compare
          (List.map (fun e -> num_exn (member_exn "tid" e)) thread_names)
      in
      Alcotest.(check (list (float 0.0))) "every track is named" tids
        named_tids)

let test_trace_disabled_emits_nothing () =
  Trace.reset ();
  Trace.set_enabled false;
  Trace.with_span ~cat:"test" "invisible" (fun () -> Trace.instant ~cat:"test" "nope");
  let path = temp_path ".json" in
  Trace.write path;
  let events = trace_events path in
  Sys.remove path;
  let non_meta =
    List.filter
      (fun e -> Option.bind (member "ph" e) str_opt <> Some "M")
      events
  in
  Alcotest.(check int) "no events captured while off" 0 (List.length non_meta)

let test_trace_serialize_drain () =
  with_trace (fun () ->
      Trace.with_span ~cat:"test" "drained" (fun () -> ());
      Trace.instant ~cat:"test" "tick";
      let first = Trace.serialize ~drain:true () in
      Alcotest.(check bool) "first collection carries events" true
        (String.length first > 0);
      (* Every fragment line must itself be a JSON object (the merged
         trace splices fragments verbatim between commas). *)
      List.iter
        (fun line ->
          let line =
            if String.length line > 0 && line.[String.length line - 1] = ','
            then String.sub line 0 (String.length line - 1)
            else line
          in
          ignore (parse_json line))
        (String.split_on_char '\n' first);
      Alcotest.(check string) "second collection is empty (drained)" ""
        (Trace.serialize ~drain:true ());
      (* Without drain, events survive collection. *)
      Trace.instant ~cat:"test" "kept";
      let kept = Trace.serialize () in
      Alcotest.(check bool) "kept events re-serialize" true
        (String.length (Trace.serialize ()) > 0 && String.length kept > 0))

let test_trace_flow_events_and_context_ids () =
  with_trace (fun () ->
      Context.with_ids ~trace:"run-abc" ~unit_id:7 (fun () ->
          Trace.with_span ~cat:"orch" "dispatch u7" (fun () ->
              Trace.flow_out ~cat:"orch" ~id:42 "u7"));
      Trace.flow_in ~cat:"orch" ~id:42 "u7";
      let path = temp_path ".json" in
      Trace.write ~clear:true path;
      let events = trace_events path in
      Sys.remove path;
      let by_ph ph =
        List.filter
          (fun e -> Option.bind (member "ph" e) str_opt = Some ph)
          events
      in
      (match by_ph "s" with
      | [ s ] ->
          Alcotest.(check (float 0.0)) "flow-out id" 42.0
            (num_exn (member_exn "id" s))
      | l -> Alcotest.fail (Printf.sprintf "%d flow-out events" (List.length l)));
      (match by_ph "f" with
      | [ f ] ->
          Alcotest.(check (option string)) "flow-in binds enclosing slice"
            (Some "e")
            (Option.bind (member "bp" f) str_opt);
          Alcotest.(check (float 0.0)) "flow-in id" 42.0
            (num_exn (member_exn "id" f))
      | l -> Alcotest.fail (Printf.sprintf "%d flow-in events" (List.length l)));
      (* Events recorded under with_ids carry the identity as args; the
         flow-in outside the scope must not. *)
      match by_ph "X" with
      | [ x ] ->
          let args = member_exn "args" x in
          Alcotest.(check (option string)) "span tagged with trace id"
            (Some "run-abc")
            (Option.bind (member "trace" args) str_opt);
          Alcotest.(check (float 0.0)) "span tagged with unit id" 7.0
            (num_exn (member_exn "unit" args))
      | l -> Alcotest.fail (Printf.sprintf "%d spans" (List.length l)))

(* ---- event log ----------------------------------------------------- *)

let test_event_log_roundtrip_and_torn_line () =
  let path = temp_path ".jsonl" in
  let log = Event_log.create path in
  Event_log.log log ~ev:"dispatch"
    [
      ("unit", Json.Int 3);
      ("label", Json.Str "rrg:20,8,5 seed=1 \"q\"");
      ("worker", Json.Str "127.0.0.1:9999");
      ("hedged", Json.Bool false);
    ];
  Event_log.log log ~ev:"complete"
    [ ("unit", Json.Int 3); ("seconds", Json.Num 0.25) ];
  Event_log.close log;
  (match Event_log.read_lines path with
  | [ l1; l2 ] ->
      let j1 = parse_json l1 and j2 = parse_json l2 in
      Alcotest.(check (option string)) "ev kind" (Some "dispatch")
        (Option.bind (member "ev" j1) str_opt);
      Alcotest.(check (float 0.0)) "int field" 3.0
        (num_exn (member_exn "unit" j1));
      Alcotest.(check (option string)) "escaped string field round-trips"
        (Some "rrg:20,8,5 seed=1 \"q\"")
        (Option.bind (member "label" j1) str_opt);
      Alcotest.(check bool) "timestamps monotone" true
        (num_exn (member_exn "ts_ms" j2) >= num_exn (member_exn "ts_ms" j1))
  | lines ->
      Alcotest.fail (Printf.sprintf "expected 2 lines, got %d" (List.length lines)));
  (* A crash mid-append leaves a torn (unterminated) final line; readers
     must drop exactly that fragment and keep every complete line. *)
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
  ignore (Unix.write_substring fd "{\"ts_ms\":9,\"ev\":\"to" 0 19);
  Unix.close fd;
  Alcotest.(check int) "torn final line dropped" 2
    (List.length (Event_log.read_lines path));
  (* Re-opening appends after the torn fragment; the reader then sees the
     new complete line but still not the fragment's prefix. *)
  let log2 = Event_log.create path in
  Event_log.log log2 ~ev:"resumed" [];
  Event_log.close log2;
  (match Event_log.read_lines path with
  | [ _; _; l3 ] ->
      (* The torn fragment merged into the next append: the reader keeps
         the line only up to its newline, and parsing tolerates it being
         garbage-prefixed — here we only require the count and that the
         last complete line ends the file. *)
      Alcotest.(check bool) "final line is newline-complete" true
        (String.length l3 > 0)
  | lines ->
      Alcotest.fail
        (Printf.sprintf "expected 3 lines after resume, got %d"
           (List.length lines)));
  Alcotest.(check (list string)) "missing file reads as empty" []
    (Event_log.read_lines (path ^ ".missing"));
  Sys.remove path

(* ---- solver cross-checks ------------------------------------------- *)

let fptas_instance () =
  let st = Random.State.make [| 7 |] in
  let topo = Core.Rrg.topology st ~n:40 ~k:15 ~r:10 in
  let tm = Core.Traffic.permutation st ~servers:topo.Core.Topology.servers in
  (topo.Core.Topology.graph, Core.Traffic.to_commodities tm)

let test_fptas_gap_and_phase_spans () =
  let g, cs = fptas_instance () in
  let params = Core.Scale.quick.Core.Scale.params in
  let r =
    with_trace (fun () ->
        let r = Core.Mcmf_fptas.solve ~params g cs in
        let path = temp_path ".json" in
        Trace.write path;
        let events = trace_events path in
        Sys.remove path;
        let phase_spans =
          List.filter
            (fun e ->
              Option.bind (member "ph" e) str_opt = Some "X"
              && Option.bind (member "cat" e) str_opt = Some "fptas"
              && Option.bind (member "name" e) str_opt = Some "phase")
            events
        in
        (* Every executed phase produces exactly one span — the trace can
           be trusted as a faithful phase count. *)
        Alcotest.(check int) "phase spans = phases"
          r.Core.Mcmf_fptas.phases (List.length phase_spans);
        let solve_spans =
          List.filter
            (fun e ->
              Option.bind (member "name" e) str_opt = Some "fptas.solve")
            events
        in
        Alcotest.(check int) "one solve span" 1 (List.length solve_spans);
        r)
  in
  Alcotest.(check bool) "converged within budget" true
    r.Core.Mcmf_fptas.converged;
  let gap =
    (r.Core.Mcmf_fptas.lambda_upper /. r.Core.Mcmf_fptas.lambda_lower) -. 1.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "achieved gap %.4f within requested %.4f" gap
       params.Core.Mcmf_fptas.gap)
    true
    (gap <= params.Core.Mcmf_fptas.gap +. 1e-9);
  Alcotest.(check bool) "at least one phase ran" true
    (r.Core.Mcmf_fptas.phases > 0)

let test_instrumentation_is_inert () =
  (* The acceptance bar for the whole layer: identical solver results, to
     the last bit, with every sink on or off. *)
  let g, cs = fptas_instance () in
  let params = Core.Scale.quick.Core.Scale.params in
  let bare = Core.Mcmf_fptas.solve ~params g cs in
  let observed =
    with_metrics (fun () ->
        with_trace (fun () -> Core.Mcmf_fptas.solve ~params g cs))
  in
  Alcotest.(check bool) "identical lambda_lower bits" true
    (Int64.equal
       (Int64.bits_of_float bare.Core.Mcmf_fptas.lambda_lower)
       (Int64.bits_of_float observed.Core.Mcmf_fptas.lambda_lower));
  Alcotest.(check bool) "identical lambda_upper bits" true
    (Int64.equal
       (Int64.bits_of_float bare.Core.Mcmf_fptas.lambda_upper)
       (Int64.bits_of_float observed.Core.Mcmf_fptas.lambda_upper));
  Alcotest.(check int) "identical phase count" bare.Core.Mcmf_fptas.phases
    observed.Core.Mcmf_fptas.phases

let test_solver_metrics_recorded () =
  let g, cs = fptas_instance () in
  let params = Core.Scale.quick.Core.Scale.params in
  with_metrics (fun () ->
      let r = Core.Mcmf_fptas.solve ~params g cs in
      let snap = Metrics.snapshot () in
      Alcotest.(check int) "fptas.solves" 1
        (Metrics.counter_value snap "fptas.solves");
      Alcotest.(check int) "fptas.phases matches result"
        r.Core.Mcmf_fptas.phases
        (Metrics.counter_value snap "fptas.phases");
      Alcotest.(check bool) "dijkstra ran" true
        (Metrics.counter_value snap "dijkstra.runs" > 0);
      Alcotest.(check bool) "heap pops counted" true
        (Metrics.counter_value snap "dijkstra.heap_pops" > 0))

(* Both solvers time their phase loop's two stages, routing and the dual
   sweep, and flush the timers once per solve: both run, and together
   they fit inside the solve's own wall time. *)
let test_stage_timers () =
  let g, cs = fptas_instance () in
  let params = Core.Scale.quick.Core.Scale.params in
  let check cat solve =
    with_metrics (fun () ->
        ignore (solve ());
        let snap = Metrics.snapshot () in
        let route = Metrics.counter_value snap (cat ^ ".route_ns")
        and dual = Metrics.counter_value snap (cat ^ ".dual_ns") in
        let solve_ns =
          match Metrics.find snap (cat ^ ".solve_s") with
          | Some (Metrics.Histogram_v { sum; _ }) -> sum *. 1e9
          | _ -> Alcotest.failf "%s.solve_s histogram missing" cat
        in
        Alcotest.(check bool) (cat ^ ".route_ns > 0") true (route > 0);
        Alcotest.(check bool) (cat ^ ".dual_ns > 0") true (dual > 0);
        Alcotest.(check bool)
          (Printf.sprintf "%s: route %d + dual %d ns <= solve %.0f ns" cat
             route dual solve_ns)
          true
          (float_of_int (route + dual) <= solve_ns);
        let wait = Metrics.counter_value snap (cat ^ ".route_wait_ns") in
        Alcotest.(check bool)
          (Printf.sprintf "%s: route wait %d <= dual %d ns" cat wait dual)
          true (wait <= dual);
        (* Each solve rolls back the phase routed ahead when it stops, and
           one more at each eps halving. *)
        let count name = Metrics.counter_value snap (cat ^ "." ^ name) in
        Alcotest.(check int) (cat ^ ".phases_discarded")
          (count "solves" + count "eps_halvings")
          (count "phases_discarded"))
  in
  check "fptas" (fun () -> Core.Mcmf_fptas.solve ~params g cs);
  check "paths" (fun () ->
      Core.Mcmf_paths.solve ~params g (Core.Mcmf_paths.of_k_shortest g ~k:4 cs))

(* ---- bucketed percentile accessors ---- *)

let test_histogram_quantiles () =
  let bounds = [| 1.0; 2.0; 4.0; 8.0 |] in
  (* 0 below 1; 50 in [1,2); 40 in [2,4); 9 in [4,8); 1 overflow = n=100,
     so ranks land exactly on cumulative-count boundaries. *)
  let counts = [| 0; 50; 40; 9; 1 |] in
  let q p = Metrics.histogram_quantile ~bounds ~counts p in
  let check name expected got = Alcotest.(check (float 0.0)) name expected got in
  (* rank ⌈0.5·100⌉ = 50 = last observation of bucket [1,2): upper edge 2. *)
  check "p50 on the boundary" 2.0 (q 0.5);
  (* rank 51 is the first observation of the next bucket. *)
  check "p51 crosses the boundary" 4.0 (q 0.51);
  check "p90" 4.0 (q 0.9);
  check "p99" 8.0 (q 0.99);
  check "p100 in overflow" infinity (q 1.0);
  (* q = 0 clamps to rank 1: the first non-empty bucket. *)
  check "q0 first observation" 2.0 (q 0.0);
  Alcotest.(check bool) "empty histogram is nan" true
    (Float.is_nan
       (Metrics.histogram_quantile ~bounds ~counts:[| 0; 0; 0; 0; 0 |] 0.5));
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Metrics.histogram_quantile: q out of [0,1]") (fun () ->
      ignore (q 1.5))

let test_value_quantile_from_snapshot () =
  with_metrics (fun () ->
      let h = Metrics.histogram ~bounds:[| 1.0; 2.0; 4.0 |] "test.q.hist" in
      (* Observations exactly on bucket bounds: lower-inclusive semantics
         put value b in the bucket whose upper edge is the next bound. *)
      List.iter (Metrics.observe h) [ 1.0; 1.0; 1.0; 2.0 ];
      let snap = Metrics.snapshot () in
      (match Metrics.find snap "test.q.hist" with
      | Some v ->
          (* ranks 1..3 in [1,2) -> 2.0; rank 4 in [2,4) -> 4.0 *)
          Alcotest.(check (option (float 0.0))) "p50" (Some 2.0)
            (Metrics.value_quantile v 0.5);
          Alcotest.(check (option (float 0.0))) "p99" (Some 4.0)
            (Metrics.value_quantile v 0.99)
      | None -> Alcotest.fail "histogram missing");
      Metrics.incr (Metrics.counter "test.q.counter");
      match Metrics.find (Metrics.snapshot ()) "test.q.counter" with
      | Some v ->
          Alcotest.(check bool) "counters have no quantile" true
            (Option.is_none (Metrics.value_quantile v 0.5))
      | None -> Alcotest.fail "counter missing")

let test_to_json_percentile_fields () =
  with_metrics (fun () ->
      let h = Metrics.histogram ~bounds:[| 1.0; 2.0 |] "test.q.json" in
      Metrics.observe h 1.5;
      let j = parse_json (Metrics.to_json (Metrics.snapshot ())) in
      let entry = member_exn "test.q.json" (member_exn "histograms" j) in
      match
        (member_exn "p50" entry, member_exn "p95" entry, member_exn "p99" entry)
      with
      | Json.Num p50, Json.Num p95, Json.Num p99 ->
          Alcotest.(check (float 0.0)) "p50 rendered" 2.0 p50;
          Alcotest.(check (float 0.0)) "p95 rendered" 2.0 p95;
          Alcotest.(check (float 0.0)) "p99 rendered" 2.0 p99
      | _ -> Alcotest.fail "p50/p95/p99 must be numbers for a non-empty histogram")

let test_path_solver_metrics_recorded () =
  let g, cs = fptas_instance () in
  let params = Core.Scale.quick.Core.Scale.params in
  let rcs = Core.Mcmf_paths.of_k_shortest g ~k:4 cs in
  with_metrics (fun () ->
      with_trace (fun () ->
          let r = Core.Mcmf_paths.solve ~params g rcs in
          let snap = Metrics.snapshot () in
          Alcotest.(check int) "paths.solves" 1
            (Metrics.counter_value snap "paths.solves");
          Alcotest.(check int) "paths.phases matches result"
            r.Core.Mcmf_paths.phases
            (Metrics.counter_value snap "paths.phases");
          Alcotest.(check int) "paths.dual_checks = phases"
            r.Core.Mcmf_paths.phases
            (Metrics.counter_value snap "paths.dual_checks");
          Alcotest.(check int) "paths.unconverged"
            (if r.Core.Mcmf_paths.converged then 0 else 1)
            (Metrics.counter_value snap "paths.unconverged");
          (match Metrics.find snap "paths.solve_s" with
           | Some (Metrics.Histogram_v { counts; _ }) ->
               Alcotest.(check int) "one solve timed" 1
                 (Array.fold_left ( + ) 0 counts)
           | _ -> Alcotest.fail "paths.solve_s histogram missing");
          let path = temp_path ".json" in
          Trace.write path;
          let events = trace_events path in
          Sys.remove path;
          let solve_spans =
            List.filter
              (fun e -> Option.bind (member "name" e) str_opt = Some "paths.solve")
              events
          in
          Alcotest.(check int) "one paths.solve span" 1 (List.length solve_spans)))

(* The path-restricted solver runs on the FPTAS's phase loop, so its
   trace carries the same per-phase span and dual-check instant, under its
   own category. *)
let test_paths_phase_spans () =
  let g, cs = fptas_instance () in
  let params = Core.Scale.quick.Core.Scale.params in
  with_trace (fun () ->
      let r =
        Core.Mcmf_paths.solve ~params g (Core.Mcmf_paths.of_k_shortest g ~k:4 cs)
      in
      let path = temp_path ".json" in
      Trace.write path;
      let events = trace_events path in
      Sys.remove path;
      let count ph name =
        List.length
          (List.filter
             (fun e ->
               Option.bind (member "ph" e) str_opt = Some ph
               && Option.bind (member "cat" e) str_opt = Some "paths"
               && Option.bind (member "name" e) str_opt = Some name)
             events)
      in
      Alcotest.(check int) "phase spans = phases" r.Core.Mcmf_paths.phases
        (count "X" "phase");
      Alcotest.(check int) "dual checks = phases" r.Core.Mcmf_paths.phases
        (count "i" "dual_check"))

(* Both solvers share one solve wrapper, so a deadline that fires before
   the first phase is counted under each solver's own [cancelled] counter
   (and nowhere else), and the solve span is still closed. *)
let test_cancelled_solves_counted () =
  let g, cs = fptas_instance () in
  let params = Core.Scale.quick.Core.Scale.params in
  let rcs = Core.Mcmf_paths.of_k_shortest g ~k:4 cs in
  let cancelled label solve =
    match Core.Mcmf_fptas.with_cancel (fun () -> true) solve with
    | (_ : Core.Mcmf_fptas.result) -> Alcotest.failf "%s not cancelled" label
    | exception Core.Mcmf_fptas.Cancelled -> ()
  in
  with_metrics (fun () ->
      with_trace (fun () ->
          cancelled "fptas" (fun () -> Core.Mcmf_fptas.solve ~params g cs);
          cancelled "paths" (fun () -> Core.Mcmf_paths.solve ~params g rcs);
          let snap = Metrics.snapshot () in
          let path = temp_path ".json" in
          Trace.write path;
          let events = trace_events path in
          Sys.remove path;
          List.iter
            (fun cat ->
              Alcotest.(check int) (cat ^ ".cancelled") 1
                (Metrics.counter_value snap (cat ^ ".cancelled"));
              Alcotest.(check int) (cat ^ ".solves") 0
                (Metrics.counter_value snap (cat ^ ".solves"));
              let spans =
                List.filter
                  (fun e ->
                    Option.bind (member "ph" e) str_opt = Some "X"
                    && Option.bind (member "name" e) str_opt
                       = Some (cat ^ ".solve"))
                  events
              in
              Alcotest.(check int) (cat ^ ".solve span closed") 1
                (List.length spans))
            [ "fptas"; "paths" ]))

(* ---- rendered bytes, pinned ----------------------------------------

   The exact bytes the trace and event-log renderers emit for every
   scalar kind: ints, finite and non-finite floats (JSON has no literal
   for the latter, so they render as null), strings needing escapes, and
   bools. Timestamps vary run to run and are stripped. *)

let pinned_args_json =
  "{\"n\":42,\"neg\":-7,\"x\":0.1,\"big\":1.5e+300,\"inf\":null,\"nan\":null,\"s\":\"q\\\"b\\\\s\\n\\t\\r\\u0001\",\"t\":true,\"f\":false}"

let test_trace_args_bytes_pinned () =
  with_trace (fun () ->
      Trace.instant ~cat:"pin" "pinned"
        ~args:
          [
            ("n", Json.Int 42);
            ("neg", Json.Int (-7));
            ("x", Json.Num 0.1);
            ("big", Json.Num 1.5e300);
            ("inf", Json.Num infinity);
            ("nan", Json.Num nan);
            ("s", Json.Str "q\"b\\s\n\t\r\001");
            ("t", Json.Bool true);
            ("f", Json.Bool false);
          ];
      let fragment = Trace.serialize ~drain:true () in
      let find_sub sub s =
        let n = String.length sub in
        let rec go i =
          if i + n > String.length s then None
          else if String.sub s i n = sub then Some i
          else go (i + 1)
        in
        go 0
      in
      let line =
        List.find
          (fun l -> find_sub "\"name\":\"pinned\"" l <> None)
          (String.split_on_char '\n' fragment)
      in
      let marker = ",\"args\":" in
      let start = Option.get (find_sub marker line) + String.length marker in
      (* The event object closes right after its args object. *)
      let args = String.sub line start (String.length line - start - 1) in
      Alcotest.(check string) "rendered args" pinned_args_json args)

let test_event_log_line_pinned () =
  let path = temp_path ".jsonl" in
  let log = Event_log.create path in
  Event_log.log log ~ev:"pin"
    [
      ("unit", Json.Int 3);
      ("seconds", Json.Num 0.25);
      ("backoff_s", Json.Num neg_infinity);
      ("label", Json.Str "a \"b\"\n\\c");
      ("hedged", Json.Bool false);
    ];
  Event_log.close log;
  let line =
    match Event_log.read_lines path with
    | [ l ] -> l
    | lines ->
        Alcotest.fail (Printf.sprintf "expected 1 line, got %d" (List.length lines))
  in
  Sys.remove path;
  let prefix = "{\"ts_ms\":" in
  Alcotest.(check string) "line opens with ts_ms" prefix
    (String.sub line 0 (String.length prefix));
  let rest =
    let i = String.index_from line (String.length prefix) ',' in
    String.sub line (i + 1) (String.length line - i - 1)
  in
  Alcotest.(check string) "line after ts_ms"
    "\"ev\":\"pin\",\"unit\":3,\"seconds\":0.25,\"backoff_s\":null,\"label\":\"a \\\"b\\\"\\n\\\\c\",\"hedged\":false}"
    rest

let suite =
  ( "obs",
    [
      Alcotest.test_case "clock monotone" `Quick test_clock_monotone;
      Alcotest.test_case "concurrent counter sums exactly" `Quick
        test_counter_concurrent_sum;
      Alcotest.test_case "disabled records nothing" `Quick
        test_disabled_records_nothing;
      Alcotest.test_case "histogram bucket boundaries" `Quick
        test_histogram_boundaries;
      Alcotest.test_case "kind mismatch rejected" `Quick
        test_kind_mismatch_rejected;
      Alcotest.test_case "snapshot diff/merge round-trip" `Quick
        test_snapshot_diff_merge_roundtrip;
      Alcotest.test_case "metrics JSON parses" `Quick test_metrics_json_parses;
      Alcotest.test_case "string escaping round-trips" `Quick
        test_escape_roundtrip;
      Alcotest.test_case "atomic_write creates parents" `Quick
        test_atomic_write_creates_parents;
      Alcotest.test_case "trace file well-formed" `Quick
        test_trace_file_well_formed;
      Alcotest.test_case "trace disabled emits nothing" `Quick
        test_trace_disabled_emits_nothing;
      Alcotest.test_case "serialize drain empties buffers" `Quick
        test_trace_serialize_drain;
      Alcotest.test_case "flow events + context ids" `Quick
        test_trace_flow_events_and_context_ids;
      Alcotest.test_case "trace args bytes pinned" `Quick
        test_trace_args_bytes_pinned;
      Alcotest.test_case "event log line pinned" `Quick
        test_event_log_line_pinned;
      Alcotest.test_case "event log round-trip + torn line" `Quick
        test_event_log_roundtrip_and_torn_line;
      Alcotest.test_case "fptas gap + phase spans" `Quick
        test_fptas_gap_and_phase_spans;
      Alcotest.test_case "paths phase spans" `Quick test_paths_phase_spans;
      Alcotest.test_case "instrumentation is inert" `Quick
        test_instrumentation_is_inert;
      Alcotest.test_case "solver metrics recorded" `Quick
        test_solver_metrics_recorded;
      Alcotest.test_case "path solver metrics recorded" `Quick
        test_path_solver_metrics_recorded;
      Alcotest.test_case "solver stage timers" `Quick test_stage_timers;
      Alcotest.test_case "cancelled solves counted" `Quick
        test_cancelled_solves_counted;
      Alcotest.test_case "histogram quantiles at bucket boundaries" `Quick
        test_histogram_quantiles;
      Alcotest.test_case "value_quantile from snapshot" `Quick
        test_value_quantile_from_snapshot;
      Alcotest.test_case "to_json carries p50/p95/p99" `Quick
        test_to_json_percentile_fields;
    ] )
