(* Benchmark harness: regenerates every figure of the paper's evaluation
   and runs Bechamel microbenchmarks of the computational kernels.

   Usage:
     dune exec bench/main.exe                 # quick mode, all figures
     dune exec bench/main.exe -- --full       # paper-scale grids/runs
     dune exec bench/main.exe -- fig6a fig12a # a subset of targets
     dune exec bench/main.exe -- micro        # kernel microbenchmarks only
     dune exec bench/main.exe -- --list       # enumerate targets and exit
     dune exec bench/main.exe -- --csv-dir D  # also write one CSV per target
     dune exec bench/main.exe -- --jobs 8     # size of the domain pool
     dune exec bench/main.exe -- --bench-json out.json  # machine-readable timings
     dune exec bench/main.exe -- --cache-dir D           # persistent result store
     dune exec bench/main.exe -- --cache-dir D --resume  # replay finished targets
     dune exec bench/main.exe -- --no-cache              # force full recompute
     dune exec bench/main.exe -- --metrics m.json        # solver-internal counters
     dune exec bench/main.exe -- --trace t.json          # Perfetto-loadable spans
     dune exec bench/main.exe -- --progress              # per-sample lines on stderr
     dune exec bench/main.exe -- --sweep-warm            # cold-vs-warm sweep speedups

   The figure list, and computing, recording and replaying a figure, live
   in Core.Figures, shared with `topobench figure`; the options are
   Core.Cli's, shared with every other front end. This file adds the
   console rendering, the CSV directory, the microbenchmarks and the
   --sweep-warm/--orchestrate/--serving sections and their --bench-json
   report.

   [--jobs j] sets the total parallelism (defaults to the machine's
   recommended domain count): the shared domain pool gets [j - 1] workers
   and both the figure level and the per-point run level dispatch onto it.
   Results are bit-identical for every [j] — all randomness is derived
   from per-(salt, run) seeds, never from scheduling.

   [--cache-dir] installs a content-addressed result store: every solver
   invocation is keyed by the digest of its canonical request (graph,
   demands, parameters, solver version) and replayed from disk when seen
   before — cached runs render byte-identical tables at any [--jobs].
   Completed targets are also recorded in a run manifest inside the cache
   directory; [--resume] replays those wholesale, so an interrupted suite
   pays only for its unfinished targets (and, within those, only for data
   points whose solves are not cached yet). The manifest is shared with
   `topobench figure`, so either tool can finish a run the other started.
   [--no-cache] ignores the store and the manifest for this invocation.

   [--metrics FILE] snapshots the process-wide metrics registry (FPTAS
   phases and Dijkstra work, simplex pivots, pool queue-wait/run-time
   histograms and per-domain busy time, store hit/miss latencies) to FILE
   as JSON; the same snapshot is embedded in [--bench-json] so recorded
   trajectories carry solver-internal counters, not just seconds.
   [--trace FILE] writes a Chrome trace-event file (open in Perfetto or
   chrome://tracing) with one track per domain. Instrumentation is
   observational only: results are bit-identical with it on or off, at any
   [--jobs]. All timing uses the monotonic clock (Dcn_obs.Clock), immune
   to wall-clock steps. See docs/observability.md.

   Every figure prints the same series the paper plots; EXPERIMENTS.md
   records the expected shapes and the paper-vs-measured comparison. *)

open Cmdliner
module Metrics = Dcn_obs.Metrics
module Clock = Dcn_obs.Clock
module Figures = Core.Figures
module Orch = Dcn_orchestrate.Orchestrator

(* Runtime errors (an unusable directory, a failed orchestration leg):
   one line on stderr, exit 2. *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 2)
    fmt

let mkdir_p dir =
  try Dcn_obs.Json.mkdir_p dir with Sys_error msg -> fail "%s" msg

(* Print a finished figure as one block (title, table, timing) and write
   its CSV; the atomic write means a killed run never leaves a truncated
   CSV behind. *)
let emit_figure ~csv_dir (r : Figures.result) =
  let name = r.Figures.figure.Figures.name in
  let title = Printf.sprintf "%s — %s" name r.Figures.figure.Figures.description in
  Printf.printf "%s\n%s\n%s%s\n\n%!" title
    (String.make (String.length title) '=')
    r.Figures.table_text
    (if r.Figures.resumed then
       Printf.sprintf "(%s resumed from manifest; originally %.1fs)" name
         r.Figures.seconds
     else Printf.sprintf "(%s completed in %.1fs)" name r.Figures.seconds);
  Option.iter
    (fun dir ->
      Dcn_obs.Json.atomic_write
        ~path:(Filename.concat dir (name ^ ".csv"))
        r.Figures.csv_text)
    csv_dir

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the kernels                             *)

(* Returns [(name, Some time_per_run_ns)] per kernel (None if the OLS fit
   failed), so the caller can both print the table and serialize them. *)
let microbenchmarks () =
  let open Bechamel in
  let st = Random.State.make [| 42 |] in
  let g200 = Core.Rrg.jellyfish st ~n:200 ~r:10 in
  let lengths = Array.make (Core.Graph.num_arcs g200) 1.0 in
  let topo40 = Core.Rrg.topology st ~n:40 ~k:15 ~r:10 in
  let tm = Core.Traffic.permutation st ~servers:topo40.Core.Topology.servers in
  let cs = Core.Traffic.to_commodities tm in
  let quick = Core.Scale.quick.Core.Scale.params in
  let tests =
    [
      Test.make ~name:"rrg-jellyfish-n40-r10"
        (Staged.stage (fun () ->
             let st = Random.State.make [| 1 |] in
             ignore (Core.Rrg.jellyfish st ~n:40 ~r:10)));
      Test.make ~name:"dijkstra-n200-r10"
        (Staged.stage (fun () ->
             ignore (Core.Dijkstra.shortest_tree g200 ~lengths ~src:0)));
      Test.make ~name:"aspl-n200-r10"
        (Staged.stage (fun () -> ignore (Core.Graph_metrics.aspl g200)));
      Test.make ~name:"mcmf-fptas-n40-perm"
        (Staged.stage (fun () ->
             ignore
               (Core.Mcmf_fptas.solve ~params:quick topo40.Core.Topology.graph cs)));
      Test.make ~name:"maxflow-dinic-n200"
        (Staged.stage (fun () ->
             ignore (Core.Maxflow.max_flow g200 ~src:0 ~dst:100)));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let table = Core.Table.create ~header:[ "kernel"; "time_per_run_ns" ] in
  let measurements = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some [ e ] -> Some e
            | _ -> None
          in
          measurements := (name, estimate) :: !measurements;
          let cell =
            match estimate with
            | Some e -> Printf.sprintf "%.0f" e
            | None -> "n/a"
          in
          Core.Table.add_row table [ name; cell ])
        analyzed)
    tests;
  Core.Table.print ~title:"Kernel microbenchmarks (Bechamel)" table;
  List.rev !measurements

(* ------------------------------------------------------------------ *)
(* Timing report (--bench-json)                                        *)

module J = Dcn_obs.Json

let num x = J.Num x

(* One JSON object per --sweep-warm report: every grid point's two legs
   plus the aggregate geomeans/flags CI asserts on. *)
let sweep_warm_json (r : Core.Experiments.sweep_warm_report) =
  let open Core.Experiments in
  let point p =
    J.Obj
      [
        ("label", J.Str p.swp_label);
        ("cold_phases", J.Int p.swp_cold_phases);
        ("warm_phases", J.Int p.swp_warm_phases);
        ("speedup_phases", num (speedup_phases p));
        ("cold_seconds", num p.swp_cold_seconds);
        ("warm_seconds", num p.swp_warm_seconds);
        ("speedup_wall", num (speedup_wall p));
        ("cold_lower", num p.swp_cold_lower);
        ("cold_upper", num p.swp_cold_upper);
        ("warm_lower", num p.swp_warm_lower);
        ("warm_upper", num p.swp_warm_upper);
        ("certified", J.Bool p.swp_certified);
        ("overlap", J.Bool p.swp_overlap);
      ]
  in
  J.Obj
    [
      ("name", J.Str r.swr_name);
      ("requested_gap", num r.swr_requested_gap);
      ("baseline_phases", J.Int r.swr_baseline_phases);
      ("baseline_seconds", num r.swr_baseline_seconds);
      ("points", J.Arr (List.map point r.swr_points));
      ("cold_phases_total", J.Int r.swr_cold_phases);
      ("warm_phases_total", J.Int r.swr_warm_phases);
      ("geomean_phases", num r.swr_geomean_phases);
      ("geomean_wall", num r.swr_geomean_wall);
      ("all_certified", J.Bool r.swr_all_certified);
      ("all_overlap", J.Bool r.swr_all_overlap);
    ]

(* One JSON object per --orchestrate leg: the same grid run serially and
   over 1/2/4 spawned workers, with the scheduler's counters and the
   wall-clock speedup relative to the serial leg. *)
type orch_leg = { ol_label : string; ol_workers : int; ol_summary : Orch.summary }

let orchestrate_json legs =
  let serial_wall =
    match List.find_opt (fun l -> l.ol_workers = 0) legs with
    | Some l -> l.ol_summary.Orch.wall_s
    | None -> 0.0
  in
  let leg_json l =
    let s = l.ol_summary in
    let speedup =
      if l.ol_workers = 0 || s.Orch.wall_s <= 0.0 then 1.0
      else serial_wall /. s.Orch.wall_s
    in
    J.Obj
      [
        ("label", J.Str l.ol_label);
        ("workers", J.Int l.ol_workers);
        ("total", J.Int s.Orch.total);
        ("computed", J.Int s.Orch.computed);
        ("wall_s", num s.Orch.wall_s);
        ("speedup_vs_serial", num speedup);
        ("dispatched", J.Int s.Orch.dispatched);
        ("retried", J.Int s.Orch.retried);
        ("hedged", J.Int s.Orch.hedged);
        ("discarded", J.Int s.Orch.discarded);
        ("evicted", J.Int s.Orch.evicted);
        ( "per_worker",
          J.Arr
            (List.map
               (fun (worker, units) ->
                 J.Obj [ ("worker", J.Str worker); ("units", J.Int units) ])
               s.Orch.per_worker) );
      ]
  in
  J.Arr (List.map leg_json legs)

(* The --serving run: a warm closed-loop keep-alive burst over cached
   variants, then an open-loop saturation burst at 1.25x the warm rate
   with cold seeds mixed in. *)
type serving_run = {
  se_warm : Dcn_serve.Load_gen.report;
  se_sat : Dcn_serve.Load_gen.report;
}

let serving_json run =
  let phase (r : Dcn_serve.Load_gen.report) =
    let module L = Dcn_serve.Load_gen in
    J.Obj
      [
        ("rps", num r.L.rps);
        ("p50_s", num r.L.p50);
        ("p95_s", num r.L.p95);
        ("p99_s", num r.L.p99);
        ("reuse_rate", num r.L.reuse_rate);
        ("bound_responses", J.Int r.L.bound_responses);
        ( "by_status",
          J.Arr
            (List.map
               (fun (status, count) ->
                 J.Obj [ ("status", J.Int status); ("count", J.Int count) ])
               r.L.by_status) );
      ]
  in
  J.Obj [ ("warm", phase run.se_warm); ("saturation", phase run.se_sat) ]

let write_bench_json path ~mode ~jobs ~figures ~micro ~sweeps ~orch ~serving
    ~total_seconds =
  let figure (r : Figures.result) =
    J.Obj
      ([
         ("name", J.Str r.Figures.figure.Figures.name);
         ("seconds", num r.Figures.seconds);
         ("resumed", J.Bool r.Figures.resumed);
       ]
      @ Option.fold ~none:[] ~some:(fun snap -> [ ("metrics", Metrics.json snap) ])
          r.Figures.metrics)
  in
  let micro_entry (name, est) =
    J.Obj
      [
        ("name", J.Str name);
        ("time_per_run_ns", Option.fold ~none:J.Null ~some:num est);
      ]
  in
  (* The result store's counters: the cache smoke test in CI asserts a
     warm run reports hits > 0 and misses = 0 here. *)
  let cache_json =
    match Core.Store.shared () with
    | None -> J.Obj [ ("enabled", J.Bool false) ]
    | Some store ->
        let c = Core.Store.counters store in
        let total = c.Core.Store.hits + c.Core.Store.misses in
        J.Obj
          [
            ("enabled", J.Bool true);
            ("hits", J.Int c.Core.Store.hits);
            ("misses", J.Int c.Core.Store.misses);
            ("bytes_read", J.Int c.Core.Store.bytes_read);
            ("bytes_written", J.Int c.Core.Store.bytes_written);
            ( "hit_rate",
              if total = 0 then J.Null
              else num (float_of_int c.Core.Store.hits /. float_of_int total) );
          ]
  in
  let optional name value = function [] -> [] | l -> [ (name, value l) ] in
  J.atomic_write ~path
    (J.pretty
       ([
          ("mode", J.Str mode);
          ("jobs", J.Int jobs);
          ("figures", J.Arr (List.map figure figures));
          ("micro", J.Arr (List.map micro_entry micro));
        ]
       @ optional "sweep_warm" (fun l -> J.Arr (List.map sweep_warm_json l)) sweeps
       @ optional "orchestrate" orchestrate_json orch
       @ Option.fold ~none:[] ~some:(fun run -> [ ("serving", serving_json run) ])
           serving
       @ [
           ("cache", cache_json);
           (* The process-wide registry snapshot: solver-internal counters
              for the whole invocation (all figures + micro), null when
              recording was off. *)
           ( "metrics",
             if Metrics.enabled () then Metrics.json (Metrics.snapshot ())
             else J.Null );
           ("total_seconds", num total_seconds);
         ]))

(* ------------------------------------------------------------------ *)
(* Orchestrated scaling (--orchestrate)                                *)

(* A small fixed grid (2 topologies x 4 seeds) run end to end four ways:
   serially in-process, then over 1, 2 and 4 spawned dcn_served workers.
   Each leg gets a fresh store under a temp root, so every leg solves the
   same 8 units cold and the wall-clock ratio is a real scaling number,
   not a cache artifact. *)
let orchestrate_grid () =
  (* ~200 ms per unit: heavy enough that dispatch overhead (HTTP, port
     polling) is noise against the solve, so the speedup column measures
     scaling, not protocol costs. *)
  Dcn_orchestrate.Grid.create
    ~topos:[ Core.Cli.Rrg (32, 12, 8); Core.Cli.Rrg (36, 12, 8) ]
    ~seeds:[ 1; 2; 3; 4 ] ()

let orchestrate_leg ~root ~label ~workers grid =
  let module Spawn = Dcn_orchestrate.Spawn in
  let dir = Filename.concat root label in
  let store_dir = Filename.concat dir "store" in
  mkdir_p store_dir;
  let store = Core.Store.open_store store_dir in
  (* One solve at a time per worker, no hedging: the scaling axis is the
     worker count, and hedged duplicates would distort the wall-clock
     ratio this section exists to measure. *)
  let scheduler =
    {
      Dcn_orchestrate.Scheduler.default_config with
      Dcn_orchestrate.Scheduler.hedge_after_s = None;
    }
  in
  let result =
    if workers = 0 then Orch.run ~store ~grid Orch.Serial
    else
      match Spawn.find_exe () with
      | None -> Error "cannot locate the dcn_served executable"
      | Some exe ->
          let procs =
            List.init workers (fun index ->
                Spawn.start ~exe ~scratch_dir:(Filename.concat dir "scratch")
                  ~index ~jobs:1 ~cache_dir:(Some store_dir) ())
          in
          Fun.protect
            ~finally:(fun () -> Spawn.stop procs)
            (fun () ->
              Result.bind (Spawn.endpoints procs) (fun endpoints ->
                  Orch.run ~scheduler ~store ~grid (Orch.Fleet endpoints)))
  in
  match result with
  | Error msg -> fail "orchestrate leg %s: %s" label msg
  | Ok (_, summary) ->
      (match summary.Orch.failed with
      | [] -> ()
      | (unit_label, err) :: _ ->
          fail "orchestrate leg %s: unit %s failed: %s" label unit_label err);
      { ol_label = label; ol_workers = workers; ol_summary = summary }

let orchestrate_bench () =
  let grid = orchestrate_grid () in
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dcn-bench-orch.%d" (Unix.getpid ()))
  in
  let legs =
    List.map
      (fun (label, workers) -> orchestrate_leg ~root ~label ~workers grid)
      [ ("serial", 0); ("workers1", 1); ("workers2", 2); ("workers4", 4) ]
  in
  let serial_wall =
    match legs with l :: _ -> l.ol_summary.Orch.wall_s | [] -> 0.0
  in
  let table =
    Core.Table.create
      ~header:
        [ "leg"; "workers"; "units"; "wall_s"; "speedup"; "dispatched";
          "retried"; "hedged"; "per_worker" ]
  in
  List.iter
    (fun l ->
      let s = l.ol_summary in
      Core.Table.add_row table
        [ l.ol_label; string_of_int l.ol_workers; string_of_int s.Orch.computed;
          Printf.sprintf "%.3f" s.Orch.wall_s;
          (if l.ol_workers = 0 || s.Orch.wall_s <= 0.0 then "1.00"
           else Printf.sprintf "%.2f" (serial_wall /. s.Orch.wall_s));
          string_of_int s.Orch.dispatched; string_of_int s.Orch.retried;
          string_of_int s.Orch.hedged;
          String.concat " "
            (List.map
               (fun (_, units) -> string_of_int units)
               s.Orch.per_worker) ])
    legs;
  Core.Table.print
    ~title:
      (Printf.sprintf "orchestrated scaling — %d-unit grid, serial vs fleets"
         (Dcn_orchestrate.Grid.size grid))
    table;
  legs

(* ------------------------------------------------------------------ *)
(* Serving (--serving)                                                *)

let serving_body ~seed =
  Dcn_serve.Request.to_body
    {
      Dcn_serve.Request.topology =
        Dcn_serve.Request.Spec (Core.Cli.Rrg (20, 4, 3));
      seed;
      traffic = Core.Cli.Perm;
      eps = 0.1;
      gap = 0.1;
      routing = Dcn_serve.Request.Optimal;
      timeout_s = None;
    }

let serving_warm_requests = 2000
let serving_sat_requests = 1000
let serving_variants = 4

let serving_bench ~jobs () =
  let module Spawn = Dcn_orchestrate.Spawn in
  let exe =
    match Spawn.find_exe () with
    | Some exe -> exe
    | None -> fail "serving bench: cannot locate the dcn_served executable"
  in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dcn-bench-serving.%d" (Unix.getpid ()))
  in
  let store_dir = Filename.concat dir "store" in
  mkdir_p store_dir;
  (* With the result store, cold variants are solved once; the warm
     burst then measures serving, not solving. *)
  let proc =
    Spawn.start ~exe ~scratch_dir:dir ~index:0 ~jobs
      ~cache_dir:(Some store_dir) ()
  in
  let run =
    Fun.protect
      ~finally:(fun () -> Spawn.stop [ proc ])
      (fun () ->
        match Spawn.endpoint proc with
        | Error msg -> fail "serving bench: %s" msg
        | Ok ep ->
            let host = ep.Dcn_orchestrate.Worker.host
            and port = ep.Dcn_orchestrate.Worker.port in
            let bodies =
              Array.init serving_variants (fun i -> serving_body ~seed:(i + 1))
            in
            (* Populate the caches: every variant solved once. *)
            ignore
              (Dcn_serve.Load_gen.run ~host ~port ~bodies
                 ~requests:serving_variants ~concurrency:1 ~qps:0.0 ());
            let warm, _ =
              Dcn_serve.Load_gen.run ~host ~port ~bodies
                ~requests:serving_warm_requests ~concurrency:8 ~qps:0.0 ()
            in
            let sat_bodies =
              Array.init (serving_variants + 2) (fun i ->
                  serving_body ~seed:(i + 1))
            in
            let sat, _ =
              Dcn_serve.Load_gen.run ~host ~port ~bodies:sat_bodies
                ~requests:serving_sat_requests ~concurrency:8
                ~qps:(warm.Dcn_serve.Load_gen.rps *. 1.25) ()
            in
            { se_warm = warm; se_sat = sat })
  in
  let table =
    Core.Table.create
      ~header:
        [ "warm_rps"; "p50_ms"; "p99_ms"; "reuse"; "sat_rps"; "sat_p99_ms";
          "bound" ]
  in
  let ms s = Printf.sprintf "%.2f" (s *. 1e3) in
  let w = run.se_warm and s = run.se_sat in
  Core.Table.add_row table
    [ Printf.sprintf "%.0f" w.Dcn_serve.Load_gen.rps;
      ms w.Dcn_serve.Load_gen.p50; ms w.Dcn_serve.Load_gen.p99;
      Printf.sprintf "%.3f" w.Dcn_serve.Load_gen.reuse_rate;
      Printf.sprintf "%.0f" s.Dcn_serve.Load_gen.rps;
      ms s.Dcn_serve.Load_gen.p99;
      string_of_int s.Dcn_serve.Load_gen.bound_responses ];
  Core.Table.print
    ~title:
      (Printf.sprintf
         "serving — %d-request warm keep-alive burst, %d-request saturation \
          (jobs=%d)"
         serving_warm_requests serving_sat_requests jobs)
    table;
  run

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)

let targets = List.map (fun f -> f.Figures.name) Figures.all @ [ "micro" ]

let main full jobs csv_dir bench_json cache_dir resume no_cache obs sweep_warm
    orchestrate serving list short_help names =
  if short_help then `Help (`Auto, None)
  else begin
    if list then begin
      List.iter
        (fun f -> Printf.printf "%-22s %s\n" f.Figures.name f.Figures.description)
        Figures.all;
      Printf.printf "%-22s %s\n" "micro"
        "Bechamel microbenchmarks of the computational kernels";
      exit 0
    end;
    (* Install the shared result store before any pool work exists; the
       cached solvers consult it from every worker domain. *)
    let caching =
      match Core.Cli.setup_store cache_dir no_cache with
      | Ok caching -> caching
      | Error msg -> fail "%s" msg
    in
    if resume && not caching then
      fail "--resume needs --cache-dir (and is incompatible with --no-cache)";
    Option.iter mkdir_p csv_dir;
    (* Create every report's parent directory up front: failing after the
       figures have been computed would throw the work away. *)
    let metrics_file, trace_file, _ = obs in
    List.iter
      (Option.iter (fun path ->
           let parent = Filename.dirname path in
           if parent <> "" then mkdir_p parent))
      [ bench_json; metrics_file; trace_file ];
    (* Metrics recording also turns on for --bench-json so the report can
       embed solver-internal counters. *)
    if bench_json <> None then Metrics.set_enabled true;
    (* One shared pool for everything: figure-level and run-level batches
       both dispatch onto [jobs - 1] workers plus the submitting thread. *)
    Core.Pool.set_workers (jobs - 1);
    Core.Cli.with_obs obs @@ fun () ->
    let scale = if full then Core.Scale.full else Core.Scale.quick in
    Format.printf "mode: %s (runs=%d, eps=%.2f, gap=%.2f, jobs=%d%s)@.@."
      (if full then "full (paper-scale)" else "quick")
      scale.Core.Scale.runs scale.Core.Scale.params.Core.Mcmf_fptas.eps
      scale.Core.Scale.params.Core.Mcmf_fptas.gap jobs
      (match Core.Store.shared () with
      | Some store -> Printf.sprintf ", cache=%s" (Core.Store.root store)
      | None -> "");
    (* --sweep-warm alone runs just the warm-start sweeps; explicit targets
       can be given alongside to run both. *)
    let wants name =
      (names = [] && not sweep_warm && not orchestrate && not serving)
      || List.mem name names
    in
    let t0 = Clock.now_ns () in
    let figures =
      Figures.run ~resume ~emit:(emit_figure ~csv_dir) scale
        (List.filter (fun f -> wants f.Figures.name) Figures.all)
    in
    let micro = if wants "micro" then microbenchmarks () else [] in
    (* Warm-start sweep bench: each grid point solved cold and warm, the
       per-point speedup printed and (with --bench-json) serialized. Runs
       serially on the submitting domain — wall-clock comparisons would be
       meaningless with both legs sharing a pool. *)
    let sweeps =
      if not sweep_warm then []
      else begin
        let reports =
          [
            Core.Experiments.sweep_warm_failures scale;
            Core.Hetero_experiments.sweep_warm_demand scale;
          ]
        in
        List.iter
          (fun r ->
            Core.Table.print
              ~title:
                (Printf.sprintf "sweep-warm %s — baseline %d phases in %.2fs"
                   r.Core.Experiments.swr_name
                   r.Core.Experiments.swr_baseline_phases
                   r.Core.Experiments.swr_baseline_seconds)
              (Core.Experiments.sweep_warm_table r))
          reports;
        reports
      end
    in
    (* Orchestrated scaling: the same fixed grid serial then over spawned
       fleets; wall-clock speedups land in --bench-json's "orchestrate"
       section. *)
    let orch = if orchestrate then orchestrate_bench () else [] in
    (* Serving: the daemon booted and measured with the keep-alive load
       generator; throughput/latency land in --bench-json's "serving"
       section. *)
    let serving = if serving then Some (serving_bench ~jobs ()) else None in
    (match Core.Store.shared () with
    | Some store ->
        let c = Core.Store.counters store in
        Format.printf "cache: %d hits, %d misses (%d B read, %d B written)@."
          c.Core.Store.hits c.Core.Store.misses c.Core.Store.bytes_read
          c.Core.Store.bytes_written
    | None -> ());
    Option.iter
      (fun path ->
        write_bench_json path
          ~mode:(if full then "full" else "quick")
          ~jobs ~figures ~micro ~sweeps ~orch ~serving
          ~total_seconds:(Clock.elapsed_s t0))
      bench_json;
    `Ok ()
  end

let () =
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let file name docv doc =
    Arg.(value & opt (some string) None & info [ name ] ~docv ~doc)
  in
  let term =
    Term.(
      ret
        (const main
        $ flag "full" "Paper-scale grids and run counts."
        $ Core.Cli.jobs_arg
        $ file "csv-dir" "DIR" "Also write one CSV per figure into $(docv)."
        $ file "bench-json" "FILE"
            "Write machine-readable timings, cache counters and a metrics \
             snapshot to $(docv)."
        $ Core.Cli.cache_dir_arg
        $ flag "resume"
            "Replay figures already recorded in the cache directory's run \
             manifest (by this tool or by $(b,topobench figure) at the same \
             scale). Requires $(b,--cache-dir)."
        $ Core.Cli.no_cache_arg $ Core.Cli.obs_args
        $ flag "sweep-warm" "Cold-vs-warm solve speedups over two sweeps."
        $ flag "orchestrate"
            "Scaling of a fixed grid: serial, then 1, 2 and 4 spawned workers."
        $ flag "serving" "Keep-alive and saturation bursts against a daemon."
        $ flag "list" "Print every target with its description and exit."
        $ Arg.(value & flag & info [ "h" ] ~doc:"Same as $(b,--help).")
        $ Arg.(
            value
            & pos_all (enum (List.map (fun t -> (t, t)) targets)) []
            & info [] ~docv:"TARGET"
                ~doc:
                  "Figure or ablation names (see $(b,--list)) and $(b,micro); \
                   none selects everything, unless a $(b,--sweep-warm), \
                   $(b,--orchestrate) or $(b,--serving) section is asked for.")))
  in
  let doc = "regenerate the paper's figures and benchmark the solver" in
  exit (Cmd.eval (Cmd.v (Cmd.info "bench" ~doc) term))
