(* Tests for the sweep orchestration layer: grid expansion (size,
   determinism, digest dedup), URL parsing, the scheduler's retry /
   hedge / eviction / re-admission policy against in-process fake
   workers, manifest unit records (including malformed-line warnings),
   and the serial orchestrator's resume path — a manifest record whose
   store entry was corrupted is recomputed, not trusted.  The real
   multi-process fleet (spawned dcn_served workers, SIGKILL chaos,
   serial-vs-distributed store equality) is exercised by the CI smoke
   job. *)

module Grid = Dcn_orchestrate.Grid
module Scheduler = Dcn_orchestrate.Scheduler
module Worker = Dcn_orchestrate.Worker
module Orchestrator = Dcn_orchestrate.Orchestrator
module Store = Dcn_store.Store
module Manifest = Dcn_store.Manifest
module Request = Dcn_serve.Request
module J = Dcn_obs.Json
module Trace = Dcn_obs.Trace
module Event_log = Dcn_obs.Event_log
module Metrics = Dcn_obs.Metrics

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "dcn_orch_test.%d.%d" (Unix.getpid ()) !tmp_counter)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let with_store f =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f (Store.open_store dir))

(* ---- grids ---- *)

let small_grid () =
  Grid.create
    ~topos:[ Core.Cli.Rrg (12, 6, 3); Core.Cli.Rrg (14, 6, 3) ]
    ~seeds:[ 1; 2 ] ~epses:[ 0.2 ] ~gaps:[ 0.2 ] ()

let test_grid_expansion () =
  let grid = small_grid () in
  Alcotest.(check int) "size is the cross product" 4 (Grid.size grid);
  let units = Grid.expand grid in
  Alcotest.(check int) "expansion covers the grid" 4 (List.length units);
  List.iteri
    (fun i u ->
      Alcotest.(check int) "dense ascending ids" i u.Grid.id;
      Alcotest.(check bool) "labels are whitespace-free" false
        (String.exists (fun c -> c = ' ' || c = '\t' || c = '\n') u.Grid.label))
    units;
  (* Deterministic: a second expansion is identical, digests and all. *)
  Alcotest.(check (list string)) "expansion is deterministic"
    (List.map (fun u -> u.Grid.digest) units)
    (List.map (fun u -> u.Grid.digest) (Grid.expand grid));
  (* The body round-trips through the wire decoder onto the same digest:
     what the coordinator ships is exactly what the worker solves. *)
  List.iter
    (fun u ->
      match Request.of_body u.Grid.body with
      | Error msg -> Alcotest.fail msg
      | Ok req ->
          Alcotest.(check string) "body round-trips to the same digest"
            u.Grid.digest
            (Request.digest req (Request.resolve req)))
    units

let test_grid_digest_dedup () =
  (* eps 0.2 twice and an equivalent duplicated seed: same digests, so
     the expansion collapses them and the sweep never solves a point
     twice. *)
  let grid =
    Grid.create
      ~topos:[ Core.Cli.Rrg (12, 6, 3) ]
      ~seeds:[ 1; 1 ] ~epses:[ 0.2; 0.2 ] ~gaps:[ 0.2 ] ()
  in
  Alcotest.(check int) "cross product counts duplicates" 4 (Grid.size grid);
  Alcotest.(check int) "expansion dedups by digest" 1
    (List.length (Grid.expand grid));
  Alcotest.check_raises "empty axis rejected"
    (Invalid_argument "Grid.create: empty eps axis") (fun () ->
      ignore (Grid.create ~topos:[ Core.Cli.Rrg (12, 6, 3) ] ~epses:[] ()))

let test_grid_fingerprint () =
  let units = Grid.expand (small_grid ()) in
  let fp = Grid.fingerprint units in
  Alcotest.(check bool) "fingerprint is versioned" true
    (String.length fp > 0 && String.sub fp 0 16 = "orchestrate-grid");
  let other =
    Grid.expand
      (Grid.create ~topos:[ Core.Cli.Rrg (12, 6, 3) ] ~epses:[ 0.3 ] ())
  in
  Alcotest.(check bool) "different grids, different fingerprints" true
    (fp <> Grid.fingerprint other)

(* ---- worker URL parsing ---- *)

let test_parse_url () =
  let ok url host port =
    match Worker.parse_url url with
    | Ok e ->
        Alcotest.(check string) (url ^ " host") host e.Worker.host;
        Alcotest.(check int) (url ^ " port") port e.Worker.port
    | Error msg -> Alcotest.fail (url ^ ": " ^ msg)
  in
  ok "127.0.0.1:8080" "127.0.0.1" 8080;
  ok "http://worker-3:9000" "worker-3" 9000;
  ok "HTTP://worker-3:9000/" "worker-3" 9000;
  List.iter
    (fun url ->
      match Worker.parse_url url with
      | Ok _ -> Alcotest.fail ("accepted " ^ url)
      | Error _ -> ())
    [ "no-port"; "host:"; "host:0"; "host:70000"; "host:abc"; ":8080" ]

(* ---- scheduler, against fake in-process workers ---- *)

(* A config with tight timings so policy-path tests finish in
   milliseconds. *)
let fast_config =
  {
    Scheduler.max_attempts = 4;
    backoff_base_s = 0.005;
    backoff_max_s = 0.02;
    hedge_after_s = None;
    evict_after = 2;
    health_period_s = 0.02;
    poll_s = 0.005;
  }

let units_of n =
  Grid.expand
    (Grid.create
       ~topos:[ Core.Cli.Rrg (12, 6, 3) ]
       ~seeds:(List.init n (fun i -> i + 1))
       ~epses:[ 0.2 ] ~gaps:[ 0.2 ] ())

let run_ok ?config ?health ~workers ~transport units =
  match
    Scheduler.run ?config ~workers ~capacity:(fun _ _ -> 1) ~transport ?health
      units
  with
  | Error msg -> Alcotest.fail ("scheduler aborted: " ^ msg)
  | Ok out -> out

let test_scheduler_completes () =
  let units = units_of 6 in
  let out =
    run_ok ~config:fast_config
      ~workers:[| "a"; "b" |]
      ~transport:(fun w u -> Ok (w ^ ":" ^ u.Grid.label))
      units
  in
  Alcotest.(check int) "all units complete" 6
    (List.length out.Scheduler.results);
  Alcotest.(check int) "nothing failed" 0 (List.length out.Scheduler.failed);
  Alcotest.(check (list int)) "results sorted by id" [ 0; 1; 2; 3; 4; 5 ]
    (List.map (fun r -> r.Scheduler.r_unit.Grid.id) out.Scheduler.results);
  Alcotest.(check int) "per-worker counts sum to the unit count" 6
    (Array.fold_left ( + ) 0 out.Scheduler.stats.Scheduler.per_worker);
  Alcotest.(check int) "one dispatch per unit" 6
    out.Scheduler.stats.Scheduler.dispatched

let test_scheduler_retries_and_evicts () =
  (* "bad" always fails with Retry; everything must complete on "good",
     and two consecutive failures evict "bad".  "good" holds its first
     answers until "bad" has failed twice, so the eviction path runs
     regardless of thread scheduling. *)
  let units = units_of 6 in
  let bad_failures = Atomic.make 0 in
  let out =
    run_ok ~config:fast_config
      ~workers:[| "bad"; "good" |]
      ~transport:(fun w u ->
        if w = "bad" then begin
          Atomic.incr bad_failures;
          Error (Scheduler.Retry "boom")
        end
        else begin
          while Atomic.get bad_failures < 2 do
            Thread.delay 0.002
          done;
          Ok ("good:" ^ u.Grid.label)
        end)
      units
  in
  Alcotest.(check int) "all units complete" 6
    (List.length out.Scheduler.results);
  List.iter
    (fun r ->
      Alcotest.(check string) "winning worker is good" "good"
        r.Scheduler.r_worker)
    out.Scheduler.results;
  Alcotest.(check bool) "failed dispatches were retried" true
    (out.Scheduler.stats.Scheduler.retried >= 1);
  Alcotest.(check int) "bad evicted once" 1
    out.Scheduler.stats.Scheduler.evicted;
  Alcotest.(check int) "bad completed nothing" 0
    out.Scheduler.stats.Scheduler.per_worker.(0)

let test_scheduler_fatal_fails_fast () =
  let units = units_of 3 in
  let out =
    run_ok ~config:fast_config ~workers:[| "a" |]
      ~transport:(fun _ _ -> Error (Scheduler.Fatal "HTTP 400: bad request"))
      units
  in
  Alcotest.(check int) "no results" 0 (List.length out.Scheduler.results);
  Alcotest.(check int) "every unit failed" 3 (List.length out.Scheduler.failed);
  (* Fatal means no retries: one dispatch per unit, worker not evicted. *)
  Alcotest.(check int) "one dispatch per unit" 3
    out.Scheduler.stats.Scheduler.dispatched;
  Alcotest.(check int) "no retries on fatal" 0
    out.Scheduler.stats.Scheduler.retried;
  Alcotest.(check int) "fatal not held against the worker" 0
    out.Scheduler.stats.Scheduler.evicted

let test_scheduler_exhausts_attempts () =
  let units = units_of 2 in
  let attempts = Atomic.make 0 in
  let out =
    run_ok
      ~config:{ fast_config with Scheduler.max_attempts = 3; evict_after = 100 }
      ~workers:[| "a"; "b" |]
      ~transport:(fun _ _ ->
        Atomic.incr attempts;
        Error (Scheduler.Retry "still down"))
      units
  in
  Alcotest.(check int) "every unit failed" 2 (List.length out.Scheduler.failed);
  List.iter
    (fun (_, msg) ->
      Alcotest.(check bool) "failure message carries the last error" true
        (String.length msg > 0))
    out.Scheduler.failed;
  Alcotest.(check int) "attempts bounded by max_attempts" 6
    (Atomic.get attempts)

let test_scheduler_hedges_straggler () =
  (* "slow" sits on its unit; once the queue drains, the scheduler
     re-issues it on "fast" and the first (fast) result wins. *)
  let units = units_of 4 in
  let straggler = Atomic.make (-1) in
  let transport w (u : Grid.unit_) =
    if w = "slow" && Atomic.compare_and_set straggler (-1) u.Grid.id then
      (* Hold this unit hostage well past the hedge deadline. *)
      Thread.delay 1.0
    else
      (* Nobody answers until the straggler is actually in flight, so
         the race always reaches the hedge path regardless of how the
         threads get scheduled. *)
      while Atomic.get straggler = -1 do
        Thread.delay 0.002
      done;
    Ok ("result:" ^ u.Grid.label)
  in
  let out =
    run_ok
      ~config:{ fast_config with Scheduler.hedge_after_s = Some 0.05 }
      ~workers:[| "slow"; "fast" |]
      ~transport units
  in
  Alcotest.(check int) "all units complete" 4
    (List.length out.Scheduler.results);
  Alcotest.(check bool) "the straggler was hedged" true
    (out.Scheduler.stats.Scheduler.hedged >= 1);
  let winner =
    List.find
      (fun r -> r.Scheduler.r_unit.Grid.id = Atomic.get straggler)
      out.Scheduler.results
  in
  Alcotest.(check bool) "first result won" true
    (winner.Scheduler.r_hedged && winner.Scheduler.r_worker = "fast")

let test_scheduler_readmits_recovered_worker () =
  (* A one-worker fleet that starts broken.  Whichever side notices
     first — a failed dispatch (evict_after = 1) or a failed health
     probe — evicts it; the probe's NEXT round reports recovery and
     re-admits, and the recovered worker finishes the sweep.  [phase]
     makes the test deterministic under any interleaving: the transport
     only recovers (phase 2) after the prober has confirmed the outage
     (phase 0 -> 1, evicting) and then reported recovery (phase 1 -> 2,
     re-admitting), so both transitions always happen. *)
  let units = units_of 2 in
  let phase = Atomic.make 0 in
  let out =
    run_ok
      ~config:{ fast_config with Scheduler.evict_after = 1; max_attempts = 10 }
      ~workers:[| "only" |]
      ~transport:(fun _ u ->
        if Atomic.get phase >= 2 then Ok ("ok:" ^ u.Grid.label)
        else Error (Scheduler.Retry "connection refused"))
      ~health:(fun _ ->
        if Atomic.get phase = 0 then begin
          Atomic.set phase 1;
          false (* confirm the outage; evicts the worker if a failed
                   dispatch has not already *)
        end
        else begin
          Atomic.set phase 2;
          true
        end)
      units
  in
  Alcotest.(check int) "all units complete after recovery" 2
    (List.length out.Scheduler.results);
  Alcotest.(check bool) "worker was evicted" true
    (out.Scheduler.stats.Scheduler.evicted >= 1);
  Alcotest.(check bool) "worker was re-admitted" true
    (out.Scheduler.stats.Scheduler.readmitted >= 1)

let test_scheduler_aborts_when_all_evicted () =
  (* No health probe: evicting the last worker cannot be recovered from,
     so the scheduler aborts instead of spinning. *)
  let units = units_of 2 in
  match
    Scheduler.run
      ~config:{ fast_config with Scheduler.evict_after = 1; max_attempts = 100 }
      ~workers:[| "only" |]
      ~capacity:(fun _ _ -> 1)
      ~transport:(fun _ _ -> Error (Scheduler.Retry "refused"))
      units
  with
  | Ok _ -> Alcotest.fail "expected an abort"
  | Error msg ->
      Alcotest.(check bool) "abort names the eviction" true
        (String.length msg > 0)

(* ---- manifest unit records ---- *)

let test_manifest_unit_records () =
  with_store (fun store ->
      let dir = Manifest.dir ~store ~fingerprint:"orch-test" in
      let digest = String.make Dcn_store.Digest_key.hex_length 'a' in
      Manifest.mark_unit ~dir
        { Manifest.u_target = "u1"; u_digest = digest; u_worker = "w:1";
          u_seconds = 1.5 };
      Manifest.mark_unit ~dir
        { Manifest.u_target = "u2"; u_digest = digest; u_worker = "w:2";
          u_seconds = 2.0 };
      (* Re-record u1 (a retry landed elsewhere): later line wins. *)
      Manifest.mark_unit ~dir
        { Manifest.u_target = "u1"; u_digest = digest; u_worker = "w:2";
          u_seconds = 9.0 };
      (* mark_done lines and torn trailing garbage share the file. *)
      Manifest.mark_done ~dir { Manifest.target = "figX"; seconds = 1.0 };
      let oc =
        open_out_gen [ Open_append ] 0o644 (Filename.concat dir "manifest")
      in
      output_string oc "unit 3.1 deadbeef";
      close_out oc;
      let warnings = ref [] in
      let units =
        Manifest.load_units ~warn:(fun l -> warnings := l :: !warnings) ~dir ()
      in
      Alcotest.(check (list string)) "unit targets, later duplicate wins"
        [ "u2"; "u1" ]
        (List.map (fun u -> u.Manifest.u_target) units);
      let u1 = List.find (fun u -> u.Manifest.u_target = "u1") units in
      Alcotest.(check string) "worker of the winning record" "w:2"
        u1.Manifest.u_worker;
      Alcotest.(check (float 0.0)) "seconds of the winning record" 9.0
        u1.Manifest.u_seconds;
      Alcotest.(check string) "digest round-trips" digest u1.Manifest.u_digest;
      Alcotest.(check (list string)) "torn line warned about, not fatal"
        [ "unit 3.1 deadbeef" ] !warnings;
      (* The figure-level loader still sees its entry and silently skips
         the unit lines (and vice versa). *)
      Alcotest.(check (list string)) "mark_done unaffected" [ "figX" ]
        (List.map (fun e -> e.Manifest.target) (Manifest.load ~dir)))

(* ---- serial orchestrator: cold run, resume, corruption recovery ---- *)

let test_orchestrator_serial_and_resume () =
  with_store (fun store ->
      let grid = small_grid () in
      let streamed = ref 0 in
      let run ?(resume = false) () =
        match
          Orchestrator.run ~resume
            ~on_outcome:(fun _ -> incr streamed)
            ~store ~grid Orchestrator.Serial
        with
        | Error msg -> Alcotest.fail msg
        | Ok (outcomes, summary) -> (outcomes, summary)
      in
      let outcomes, summary = run () in
      Alcotest.(check int) "cold run computes everything" 4
        summary.Orchestrator.computed;
      Alcotest.(check int) "nothing cached cold" 0
        summary.Orchestrator.from_cache;
      Alcotest.(check int) "outcomes streamed" 4 !streamed;
      Alcotest.(check int) "no failures" 0
        (List.length summary.Orchestrator.failed);
      (* Resume: everything replays from the store, nothing is solved. *)
      let resumed, summary2 = run ~resume:true () in
      Alcotest.(check int) "resume replays from the store" 4
        summary2.Orchestrator.from_cache;
      Alcotest.(check int) "resume computes nothing" 0
        summary2.Orchestrator.computed;
      Alcotest.(check (list string)) "replayed bodies are byte-identical"
        (List.map (fun o -> o.Orchestrator.o_body) outcomes)
        (List.map (fun o -> o.Orchestrator.o_body) resumed);
      (* Corrupt one object on disk: the resume must detect it (the store
         re-validates entries) and recompute exactly that unit — the
         manifest's word alone is never trusted. *)
      let victim = List.hd (Grid.expand grid) in
      let path =
        let d = victim.Grid.digest in
        Filename.concat (Store.root store)
          (Filename.concat "objects"
             (Filename.concat (String.sub d 0 2)
                (String.sub d 2 (String.length d - 2))))
      in
      Alcotest.(check bool) "object exists on disk" true
        (Sys.file_exists path);
      let oc = open_out path in
      output_string oc "dcn-store 1 999999\ntruncated";
      close_out oc;
      let healed, summary3 = run ~resume:true () in
      Alcotest.(check int) "only the corrupted unit is recomputed" 1
        summary3.Orchestrator.computed;
      Alcotest.(check int) "the rest replay" 3 summary3.Orchestrator.from_cache;
      Alcotest.(check (list string)) "healed run is byte-identical"
        (List.map (fun o -> o.Orchestrator.o_body) outcomes)
        (List.map (fun o -> o.Orchestrator.o_body) healed))

(* ---- serial orchestrator: units the server rejects ---- *)

let test_orchestrator_serial_failures () =
  (* eps = 0 is rejected by the /solve schema: two of the four units come
     back 400. A 400 is deterministic, so each fails on its only
     dispatch; the run still completes the other two and reports the
     failures instead of erroring out. *)
  with_store (fun store ->
      let elog_path = Filename.temp_file "dcn_orch_fail" ".jsonl" in
      Sys.remove elog_path;
      Fun.protect ~finally:(fun () ->
          if Sys.file_exists elog_path then Sys.remove elog_path)
      @@ fun () ->
      let grid =
        Grid.create
          ~topos:[ Core.Cli.Rrg (20, 8, 5) ]
          ~seeds:[ 1; 2 ] ~epses:[ 0.1; 0.0 ] ~gaps:[ 0.1 ] ()
      in
      let telemetry =
        { Orchestrator.no_telemetry with t_event_log = Some elog_path }
      in
      let summary =
        match Orchestrator.run ~telemetry ~store ~grid Orchestrator.Serial with
        | Error msg -> Alcotest.fail msg
        | Ok (_, summary) -> summary
      in
      Alcotest.(check int) "valid units computed" 2
        summary.Orchestrator.computed;
      Alcotest.(check int) "every unit dispatched once" 4
        summary.Orchestrator.dispatched;
      Alcotest.(check int) "a 400 is never retried" 0
        summary.Orchestrator.retried;
      Alcotest.(check int) "two failures reported" 2
        (List.length summary.Orchestrator.failed);
      List.iter
        (fun (_, error) ->
          let prefix = "HTTP 400: " in
          Alcotest.(check bool) "failure carries the HTTP status" true
            (String.starts_with ~prefix error);
          let body =
            String.sub error (String.length prefix)
              (String.length error - String.length prefix)
          in
          match Option.bind (Result.to_option (J.parse body)) (J.member "error") with
          | Some (J.Str msg) ->
              Alcotest.(check bool) "failure names the bad field" true
                (contains ~sub:"\"eps\"" msg)
          | Some _ | None -> Alcotest.fail ("error body must be JSON: " ^ body))
        summary.Orchestrator.failed;
      let failed_lines =
        List.filter
          (fun line ->
            match J.parse line with
            | Ok v ->
                Option.bind (J.member "ev" v) J.to_string_opt
                = Some "unit_failed"
            | Error msg -> Alcotest.fail ("event line must be JSON: " ^ msg))
          (Event_log.read_lines elog_path)
      in
      Alcotest.(check int) "one unit_failed line per failure" 2
        (List.length failed_lines))

(* ---- a grid point that cannot be built ---- *)

let test_orchestrator_expansion_error () =
  (* rrg:4,8,6 asks for degree 6 on 4 switches: resolving it fails before
     anything is dispatched. The run reports which topology and why
     instead of raising out of the coordinator. *)
  with_store (fun store ->
      let grid =
        Grid.create
          ~topos:[ Core.Cli.Rrg (20, 8, 5); Core.Cli.Rrg (4, 8, 6) ]
          ~epses:[ 0.1 ] ~gaps:[ 0.1 ] ()
      in
      match Orchestrator.run ~store ~grid Orchestrator.Serial with
      | Ok _ -> Alcotest.fail "an unbuildable topology must fail the run"
      | Error msg ->
          Alcotest.(check bool) "error names the topology spec" true
            (contains ~sub:"rrg:4,8,6" msg);
          Alcotest.(check bool) "error keeps the original message" true
            (contains ~sub:"degree must be below the switch count" msg))

(* ---- the scheduler event stream reconciles with its stats ---- *)

let test_scheduler_event_stream_reconciles () =
  (* Same retry/eviction scenario as above, but this time every decision
     must also surface as a typed event, and the event counts must agree
     exactly with the stats the scheduler returns — the invariant that
     makes the event log auditable against --summary-json. *)
  let units = units_of 6 in
  let events = ref [] in
  let ev_mutex = Mutex.create () in
  let on_event ev =
    Mutex.lock ev_mutex;
    events := ev :: !events;
    Mutex.unlock ev_mutex
  in
  let bad_failures = Atomic.make 0 in
  let out =
    match
      Scheduler.run ~config:fast_config
        ~workers:[| "bad"; "good" |]
        ~capacity:(fun _ _ -> 1)
        ~transport:(fun w u ->
          if w = "bad" then begin
            Atomic.incr bad_failures;
            Error (Scheduler.Retry "boom")
          end
          else begin
            while Atomic.get bad_failures < 2 do
              Thread.delay 0.002
            done;
            Ok ("good:" ^ u.Grid.label)
          end)
        ~on_event units
    with
    | Error msg -> Alcotest.fail ("scheduler aborted: " ^ msg)
    | Ok out -> out
  in
  let events = List.rev !events in
  let count p = List.length (List.filter p events) in
  let stats = out.Scheduler.stats in
  Alcotest.(check int) "one dispatch event per dispatch"
    stats.Scheduler.dispatched
    (count (function Scheduler.Dispatch _ -> true | _ -> false));
  Alcotest.(check int) "one complete event per result"
    (List.length out.Scheduler.results)
    (count (function Scheduler.Complete _ -> true | _ -> false));
  Alcotest.(check int) "one backoff event per retry" stats.Scheduler.retried
    (count (function Scheduler.Backoff _ -> true | _ -> false));
  Alcotest.(check int) "one discard event per hedge loser"
    stats.Scheduler.discarded
    (count (function Scheduler.Discard _ -> true | _ -> false));
  Alcotest.(check int) "one evict event per eviction" stats.Scheduler.evicted
    (count (function Scheduler.Evict _ -> true | _ -> false));
  Alcotest.(check int) "one readmit event per re-admission"
    stats.Scheduler.readmitted
    (count (function Scheduler.Readmit _ -> true | _ -> false));
  Alcotest.(check int) "one failure event per failed unit"
    (List.length out.Scheduler.failed)
    (count (function Scheduler.Unit_failed _ -> true | _ -> false));
  Alcotest.(check int) "hedged dispatches marked" stats.Scheduler.hedged
    (count (function
      | Scheduler.Dispatch { hedged; _ } -> hedged
      | _ -> false));
  (* Causality within a unit: its first event is a dispatch, and every
     completion is preceded by a dispatch of the same unit. *)
  List.iter
    (fun r ->
      let uid = r.Scheduler.r_unit.Grid.id in
      let mine =
        List.filter
          (function
            | Scheduler.Dispatch { unit_id; _ }
            | Scheduler.Complete { unit_id; _ }
            | Scheduler.Discard { unit_id; _ }
            | Scheduler.Backoff { unit_id; _ }
            | Scheduler.Unit_failed { unit_id; _ } ->
                unit_id = uid
            | _ -> false)
          events
      in
      match mine with
      | Scheduler.Dispatch _ :: _ -> ()
      | _ -> Alcotest.fail "a unit's first event must be its dispatch")
    out.Scheduler.results

(* ---- serial orchestrator telemetry: trace, event log, summary ---- *)

let test_orchestrator_serial_telemetry () =
  with_store (fun store ->
      let trace_path = Filename.temp_file "dcn_orch_trace" ".json" in
      let elog_path = Filename.temp_file "dcn_orch_events" ".jsonl" in
      Sys.remove elog_path;
      let metrics_were_enabled = Metrics.enabled () in
      Metrics.set_enabled true;
      let cleanup () =
        Metrics.set_enabled metrics_were_enabled;
        Trace.set_enabled false;
        Trace.reset ();
        if Sys.file_exists trace_path then Sys.remove trace_path;
        if Sys.file_exists elog_path then Sys.remove elog_path
      in
      Fun.protect ~finally:cleanup @@ fun () ->
      let grid = small_grid () in
      let telemetry =
        {
          Orchestrator.t_trace = Some trace_path;
          t_event_log = Some elog_path;
          t_worker_info = [];
        }
      in
      let metrics_before = Metrics.snapshot () in
      let summary =
        match
          Orchestrator.run ~telemetry ~store ~grid Orchestrator.Serial
        with
        | Error msg -> Alcotest.fail msg
        | Ok (_, summary) -> summary
      in
      let sched_delta =
        Metrics.diff ~before:metrics_before ~after:(Metrics.snapshot ())
      in
      Alcotest.(check int) "all units computed" 4
        summary.Orchestrator.computed;
      (* The sched.* counters count the same decisions as the summary's
         "sched" object: a serial run goes through the scheduler too. *)
      (match
         Option.bind
           (Result.to_option (J.parse (Orchestrator.summary_to_json summary)))
           (J.member "sched")
       with
      | None -> Alcotest.fail "summary must carry a sched object"
      | Some sched ->
          List.iter
            (fun name ->
              Alcotest.(check (option int))
                ("sched." ^ name ^ " matches the summary")
                (Option.bind (J.member name sched) J.to_int_opt)
                (Some (Metrics.counter_value sched_delta ("sched." ^ name))))
            [ "dispatched"; "completed"; "failed" ]);
      Alcotest.(check int) "no health probes for the in-process member" 0
        (Metrics.counter_value sched_delta "sched.probes");
      (* The summary names the trace and attributes the one serial
         worker. *)
      let trace_id =
        match summary.Orchestrator.trace_id with
        | Some t when String.length t > 0 -> t
        | Some _ | None -> Alcotest.fail "summary must carry the trace id"
      in
      (match summary.Orchestrator.worker_stats with
      | [ ws ] ->
          Alcotest.(check string) "serial worker attributed" "serial"
            ws.Orchestrator.ws_worker;
          Alcotest.(check (option int)) "serial pid is this process"
            (Some (Unix.getpid ()))
            ws.Orchestrator.ws_pid;
          Alcotest.(check int) "serial worker did every unit" 4
            ws.Orchestrator.ws_units
      | l ->
          Alcotest.fail
            (Printf.sprintf "%d worker stats for a serial run"
               (List.length l)));
      (* The merged trace is one valid JSON document whose solve spans
         carry the run's trace id, with the dispatch→solve flow arrows
         present. *)
      (match J.parse (In_channel.with_open_bin trace_path In_channel.input_all)
       with
      | Error msg -> Alcotest.fail ("merged trace must parse: " ^ msg)
      | Ok v ->
          let events =
            match J.member "traceEvents" v with
            | Some (J.Arr evs) -> evs
            | _ -> Alcotest.fail "traceEvents must be an array"
          in
          let str m e = Option.bind (J.member m e) J.to_string_opt in
          let tagged =
            List.filter
              (fun e ->
                str "ph" e = Some "X"
                && Option.bind (J.member "args" e) (fun a ->
                       Option.bind (J.member "trace" a) J.to_string_opt)
                   = Some trace_id)
              events
          in
          Alcotest.(check bool) "spans tagged with the run's trace id" true
            (List.length tagged >= 4);
          Alcotest.(check bool) "flow-out arrows present" true
            (List.exists (fun e -> str "ph" e = Some "s") events);
          Alcotest.(check bool) "flow-in arrows present" true
            (List.exists (fun e -> str "ph" e = Some "f") events);
          Alcotest.(check bool) "coordinator process named" true
            (List.exists
               (fun e ->
                 str "name" e = Some "process_name"
                 && Option.bind (J.member "args" e) (fun a ->
                        Option.bind (J.member "name" a) J.to_string_opt)
                    = Some "coordinator")
               events));
      (* The event log brackets the run and reconciles with the summary:
         one dispatch and one complete per computed unit. *)
      let lines = Event_log.read_lines elog_path in
      let parsed =
        List.map
          (fun line ->
            match J.parse line with
            | Ok v -> v
            | Error msg -> Alcotest.fail ("event line must be JSON: " ^ msg))
          lines
      in
      let ev_name v = Option.bind (J.member "ev" v) J.to_string_opt in
      (match parsed with
      | first :: _ ->
          Alcotest.(check (option string)) "run_start first" (Some "run_start")
            (ev_name first);
          Alcotest.(check (option string)) "run_start names the trace"
            (Some trace_id)
            (Option.bind (J.member "trace_id" first) J.to_string_opt)
      | [] -> Alcotest.fail "event log is empty");
      (match List.rev parsed with
      | last :: _ ->
          Alcotest.(check (option string)) "run_end last" (Some "run_end")
            (ev_name last);
          Alcotest.(check (option int)) "run_end computed count" (Some 4)
            (Option.bind (J.member "computed" last) J.to_int_opt)
      | [] -> assert false);
      let count name =
        List.length (List.filter (fun v -> ev_name v = Some name) parsed)
      in
      Alcotest.(check int) "one dispatch line per unit" 4 (count "dispatch");
      Alcotest.(check int) "one complete line per unit" 4 (count "complete");
      Alcotest.(check int) "no failures logged" 0 (count "unit_failed");
      List.iter
        (fun v ->
          if ev_name v = Some "dispatch" then
            Alcotest.(check (option string)) "dispatch attributed to serial"
              (Some "serial")
              (Option.bind (J.member "worker" v) J.to_string_opt))
        parsed)

let suite =
  ( "orchestrate",
    [
      Alcotest.test_case "grid expansion" `Quick test_grid_expansion;
      Alcotest.test_case "grid digest dedup" `Quick test_grid_digest_dedup;
      Alcotest.test_case "grid fingerprint" `Quick test_grid_fingerprint;
      Alcotest.test_case "worker url parsing" `Quick test_parse_url;
      Alcotest.test_case "scheduler completes" `Quick test_scheduler_completes;
      Alcotest.test_case "scheduler retries and evicts" `Quick
        test_scheduler_retries_and_evicts;
      Alcotest.test_case "scheduler fatal fails fast" `Quick
        test_scheduler_fatal_fails_fast;
      Alcotest.test_case "scheduler exhausts attempts" `Quick
        test_scheduler_exhausts_attempts;
      Alcotest.test_case "scheduler hedges straggler" `Quick
        test_scheduler_hedges_straggler;
      Alcotest.test_case "scheduler re-admits recovered worker" `Quick
        test_scheduler_readmits_recovered_worker;
      Alcotest.test_case "scheduler aborts when all evicted" `Quick
        test_scheduler_aborts_when_all_evicted;
      Alcotest.test_case "manifest unit records" `Quick
        test_manifest_unit_records;
      Alcotest.test_case "scheduler event stream reconciles" `Quick
        test_scheduler_event_stream_reconciles;
      Alcotest.test_case "serial orchestrator telemetry" `Quick
        test_orchestrator_serial_telemetry;
      Alcotest.test_case "orchestrator serial, resume, corruption" `Quick
        test_orchestrator_serial_and_resume;
      Alcotest.test_case "orchestrator serial failures" `Quick
        test_orchestrator_serial_failures;
      Alcotest.test_case "orchestrator expansion error" `Quick
        test_orchestrator_expansion_error;
    ] )
