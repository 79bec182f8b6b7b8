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
   points whose solves are not cached yet). [--no-cache] ignores the
   store and the manifest for this invocation.

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

module Metrics = Dcn_obs.Metrics
module Trace = Dcn_obs.Trace
module Clock = Dcn_obs.Clock
module Orch = Dcn_orchestrate.Orchestrator

let figures : (string * string * (Core.Scale.t -> Core.Table.t)) list =
  [
    ("fig1a", "RRG throughput vs Theorem-1 bound, N=40, degree sweep",
     Core.Experiments.fig1a);
    ("fig1b", "RRG ASPL vs Cerf bound, N=40, degree sweep",
     Core.Experiments.fig1b);
    ("fig2a", "RRG throughput vs bound, r=10, size sweep", Core.Experiments.fig2a);
    ("fig2b", "RRG ASPL vs bound, r=10, size sweep", Core.Experiments.fig2b);
    ("fig3", "ASPL curved steps, degree 4, log-scale sizes", Core.Experiments.fig3);
    ("fig4a", "server distribution sweep, port ratios", Core.Hetero_experiments.fig4a);
    ("fig4b", "server distribution sweep, small-switch counts",
     Core.Hetero_experiments.fig4b);
    ("fig4c", "server distribution sweep, oversubscription",
     Core.Hetero_experiments.fig4c);
    ("fig5", "power-law ports, servers ~ port^beta", Core.Hetero_experiments.fig5);
    ("fig6a", "cross-cluster sweep, port ratios", Core.Hetero_experiments.fig6a);
    ("fig6b", "cross-cluster sweep, small-switch counts",
     Core.Hetero_experiments.fig6b);
    ("fig6c", "cross-cluster sweep, oversubscription", Core.Hetero_experiments.fig6c);
    ("fig7a", "joint sweep, ports 30/10", Core.Hetero_experiments.fig7a);
    ("fig7b", "joint sweep, ports 30/20", Core.Hetero_experiments.fig7b);
    ("fig8a", "mixed line-speeds, server splits", Core.Hetero_experiments.fig8a);
    ("fig8b", "mixed line-speeds, high-speed rates", Core.Hetero_experiments.fig8b);
    ("fig8c", "mixed line-speeds, high-speed link counts",
     Core.Hetero_experiments.fig8c);
    ("fig9a", "decomposition along fig4c sweep", Core.Hetero_experiments.fig9a);
    ("fig9b", "decomposition along fig6c sweep", Core.Hetero_experiments.fig9b);
    ("fig9c", "decomposition along fig8c sweep", Core.Hetero_experiments.fig9c);
    ("fig10a", "Eqn-1 bound vs observed, uniform speeds",
     Core.Hetero_experiments.fig10a);
    ("fig10b", "Eqn-1 bound vs observed, mixed speeds",
     Core.Hetero_experiments.fig10b);
    ("fig11", "C-bar* thresholds over 18 configs", Core.Hetero_experiments.fig11);
    ("fig12a", "rewired VL2 capacity ratio", Core.Vl2_study.fig12a);
    ("fig12b", "chunky traffic on rewired VL2", Core.Vl2_study.fig12b);
    ("fig12c", "capacity ratio per traffic matrix", Core.Vl2_study.fig12c);
    ("fig13", "packet-level vs flow-level throughput",
     Core.Packet_experiments.fig13);
    ("ablation_bisection", "bisection bandwidth vs throughput (par. 6)",
     Core.Ablations.bisection_vs_throughput);
    ("ablation_eps", "FPTAS certified interval vs exact LP",
     Core.Ablations.fptas_accuracy);
    ("ablation_topologies", "equal-equipment topology comparison (par. 4)",
     Core.Ablations.equal_equipment_topologies);
    ("ablation_rrg", "jellyfish vs pairing RRG construction",
     Core.Ablations.rrg_construction);
    ("ablation_routing", "optimal vs k-shortest vs ECMP vs single path",
     Core.Ablations.routing_restriction);
    ("ablation_expansion", "incremental expansion vs fresh RRG",
     Core.Ablations.incremental_expansion);
    ("ablation_local_search", "hill climbing from RRG vs from a ring",
     Core.Ablations.local_search_gain);
    ("ablation_cabling", "cable shortening at fixed degrees",
     Core.Ablations.cabling);
    ("ablation_structured", "BCube/DCell/Dragonfly vs RRG",
     Core.Ablations.structured_topologies);
    ("ablation_spectral", "expansion quality vs throughput (par. 6.2)",
     Core.Ablations.spectral_vs_throughput);
    ("ablation_proportionality", "a2a bounds other workloads (par. 9)",
     Core.Ablations.traffic_proportionality);
    ("ablation_vlb", "Valiant load balancing vs optimal routing",
     Core.Ablations.vlb_routing);
    ("ablation_transport", "Reno vs DCTCP transport in the packet sim",
     Core.Ablations.transport_comparison);
    ("ablation_failures", "link-failure resilience: RRG vs fat-tree",
     Core.Ablations.failure_resilience);
    ("ablation_multiclass", "3-class placement exponent sweep (par. 9 future work)",
     Core.Ablations.multi_class_placement);
  ]

(* One finished target, whether freshly computed or replayed from a run
   manifest. [table_text]/[csv_text] are the rendering a fresh computation
   would produce (the manifest stores exactly these artifacts, so resumed
   targets are indistinguishable downstream). *)
type figure_result = {
  fr_name : string;
  fr_rendered : string;  (** Full console block: title, table, timing. *)
  fr_table_text : string;
  fr_csv_text : string;
  fr_dt : float;
  fr_resumed : bool;
  fr_metrics : Metrics.snapshot option;
      (** Rollup of what this figure's computation did (solves, phases,
          pivots, cache traffic). Only attributable when figures run
          serially — with the pool enabled, concurrent figures interleave
          in the global registry, so this stays [None]. *)
}

let render_table table =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "%a@." Core.Table.pp table;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let render_block ~name ~description ~table_text ~timing_line =
  let title = Printf.sprintf "%s — %s" name description in
  Printf.sprintf "%s\n%s\n%s%s\n\n" title
    (String.make (String.length title) '=')
    table_text timing_line

(* Compute a figure and render it to a string so parallel workers don't
   interleave output. The figure name labels the observability layer: a
   span per figure, and (via Scale.with_figure) every sample span and
   progress line underneath it. *)
let compute_figure scale (name, description, f) =
  let rollup = Metrics.enabled () && not (Core.Pool.enabled ()) in
  let before = if rollup then Some (Metrics.snapshot ()) else None in
  let t0 = Clock.now_ns () in
  let table =
    Core.Scale.with_figure name (fun () ->
        Trace.with_span ~cat:"figure" name (fun () -> f scale))
  in
  let dt = Clock.elapsed_s t0 in
  let fr_metrics =
    Option.map
      (fun before -> Metrics.diff ~before ~after:(Metrics.snapshot ()))
      before
  in
  let table_text = render_table table in
  {
    fr_name = name;
    fr_rendered =
      render_block ~name ~description ~table_text
        ~timing_line:(Printf.sprintf "(%s completed in %.1fs)" name dt);
    fr_table_text = table_text;
    fr_csv_text = Core.Table.to_csv table;
    fr_dt = dt;
    fr_resumed = false;
    fr_metrics;
  }

(* Replay a target recorded in the run manifest: both artifacts must be
   present, else the caller recomputes (a half-written run dir degrades to
   a plain cached run, never to wrong output). *)
let resume_figure ~run_dir ~seconds (name, description, _f) =
  match
    ( Core.Manifest.read_artifact ~dir:run_dir ~name:(name ^ ".table"),
      Core.Manifest.read_artifact ~dir:run_dir ~name:(name ^ ".csv") )
  with
  | Some table_text, Some csv_text ->
      Some
        {
          fr_name = name;
          fr_rendered =
            render_block ~name ~description ~table_text
              ~timing_line:
                (Printf.sprintf "(%s resumed from manifest; originally %.1fs)"
                   name seconds);
          fr_table_text = table_text;
          fr_csv_text = csv_text;
          fr_dt = seconds;
          fr_resumed = true;
          fr_metrics = None;
        }
  | _ -> None

let emit_figure ~csv_dir ~run_dir r =
  print_string r.fr_rendered;
  flush stdout;
  (match csv_dir with
  | None -> ()
  | Some dir ->
      let path = Filename.concat dir (r.fr_name ^ ".csv") in
      let oc = open_out path in
      output_string oc r.fr_csv_text;
      close_out oc);
  (* Record completions as they stream out (even without --resume), so any
     later invocation can pick up where this one was killed. *)
  match run_dir with
  | Some dir when not r.fr_resumed ->
      Core.Manifest.write_artifact ~dir ~name:(r.fr_name ^ ".table")
        r.fr_table_text;
      Core.Manifest.write_artifact ~dir ~name:(r.fr_name ^ ".csv")
        r.fr_csv_text;
      Core.Manifest.mark_done ~dir
        { Core.Manifest.target = r.fr_name; seconds = r.fr_dt }
  | _ -> ()

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

(* JSON text helpers come from the observability library ([number] maps
   non-finite floats to null — JSON has no NaN/Infinity literals). *)
let json_escape = Dcn_obs.Json.escape
let json_float = Dcn_obs.Json.number

(* One JSON object per --sweep-warm report: every grid point's two legs
   plus the aggregate geomeans/flags CI asserts on. *)
let sweep_warm_json (r : Core.Experiments.sweep_warm_report) =
  let open Core.Experiments in
  let points =
    List.map
      (fun p ->
        Printf.sprintf
          "      {\"label\": \"%s\", \"cold_phases\": %d, \"warm_phases\": \
           %d, \"speedup_phases\": %s, \"cold_seconds\": %s, \
           \"warm_seconds\": %s, \"speedup_wall\": %s, \"cold_lower\": %s, \
           \"cold_upper\": %s, \"warm_lower\": %s, \"warm_upper\": %s, \
           \"certified\": %b, \"overlap\": %b}"
          (json_escape p.swp_label) p.swp_cold_phases p.swp_warm_phases
          (json_float (speedup_phases p))
          (json_float p.swp_cold_seconds)
          (json_float p.swp_warm_seconds)
          (json_float (speedup_wall p))
          (json_float p.swp_cold_lower) (json_float p.swp_cold_upper)
          (json_float p.swp_warm_lower) (json_float p.swp_warm_upper)
          p.swp_certified p.swp_overlap)
      r.swr_points
  in
  Printf.sprintf
    "    {\"name\": \"%s\", \"requested_gap\": %s, \"baseline_phases\": %d, \
     \"baseline_seconds\": %s,\n\
     \     \"points\": [\n%s\n     ],\n\
     \     \"cold_phases_total\": %d, \"warm_phases_total\": %d, \
     \"geomean_phases\": %s, \"geomean_wall\": %s, \"all_certified\": %b, \
     \"all_overlap\": %b}"
    (json_escape r.swr_name)
    (json_float r.swr_requested_gap)
    r.swr_baseline_phases
    (json_float r.swr_baseline_seconds)
    (String.concat ",\n" points)
    r.swr_cold_phases r.swr_warm_phases
    (json_float r.swr_geomean_phases)
    (json_float r.swr_geomean_wall)
    r.swr_all_certified r.swr_all_overlap

(* One JSON object per --orchestrate leg: the same grid run serially and
   over 1/2/4 spawned workers, with the scheduler's counters and the
   wall-clock speedup relative to the serial leg. *)
type orch_leg = { ol_label : string; ol_workers : int; ol_summary : Orch.summary }

let orchestrate_json ~serial_wall legs =
  let leg_json l =
    let s = l.ol_summary in
    let speedup =
      if l.ol_workers = 0 || s.Orch.wall_s <= 0.0 then 1.0
      else serial_wall /. s.Orch.wall_s
    in
    Printf.sprintf
      "    {\"label\": \"%s\", \"workers\": %d, \"total\": %d, \"computed\": \
       %d, \"wall_s\": %s, \"speedup_vs_serial\": %s, \"dispatched\": %d, \
       \"retried\": %d, \"hedged\": %d, \"discarded\": %d, \"evicted\": %d, \
       \"per_worker\": [%s]}"
      (json_escape l.ol_label) l.ol_workers s.Orch.total s.Orch.computed
      (json_float s.Orch.wall_s) (json_float speedup) s.Orch.dispatched
      s.Orch.retried s.Orch.hedged s.Orch.discarded s.Orch.evicted
      (String.concat ", "
         (List.map
            (fun (worker, units) ->
              Printf.sprintf "{\"worker\": \"%s\", \"units\": %d}"
                (json_escape worker) units)
            s.Orch.per_worker))
  in
  String.concat ",\n" (List.map leg_json legs)

(* The --serving run: a warm closed-loop keep-alive burst over cached
   variants, then an open-loop saturation burst at 1.25x the warm rate
   with cold seeds mixed in. *)
type serving_run = {
  se_warm : Dcn_serve.Load_gen.report;
  se_sat : Dcn_serve.Load_gen.report;
}

let serving_json run =
  let phase (r : Dcn_serve.Load_gen.report) =
    Printf.sprintf
      "{\"rps\": %s, \"p50_s\": %s, \"p95_s\": %s, \"p99_s\": %s, \
       \"reuse_rate\": %s, \"bound_responses\": %d, \"by_status\": [%s]}"
      (json_float r.Dcn_serve.Load_gen.rps)
      (json_float r.Dcn_serve.Load_gen.p50)
      (json_float r.Dcn_serve.Load_gen.p95)
      (json_float r.Dcn_serve.Load_gen.p99)
      (json_float r.Dcn_serve.Load_gen.reuse_rate)
      r.Dcn_serve.Load_gen.bound_responses
      (String.concat ", "
         (List.map
            (fun (status, count) ->
              Printf.sprintf "{\"status\": %d, \"count\": %d}" status count)
            r.Dcn_serve.Load_gen.by_status))
  in
  Printf.sprintf "{\"warm\": %s, \"saturation\": %s}" (phase run.se_warm)
    (phase run.se_sat)

let write_bench_json path ~mode ~jobs ~figures ~micro ~sweeps ~orch ~serving
    ~total_seconds =
  let figure_entries =
    List.map
      (fun r ->
        let metrics_field =
          match r.fr_metrics with
          | None -> ""
          | Some snap ->
              Printf.sprintf ", \"metrics\": %s"
                (String.trim (Metrics.to_json snap))
        in
        Printf.sprintf
          "    {\"name\": \"%s\", \"seconds\": %s, \"resumed\": %b%s}"
          (json_escape r.fr_name) (json_float r.fr_dt) r.fr_resumed
          metrics_field)
      figures
  in
  let micro_entries =
    List.map
      (fun (name, est) ->
        Printf.sprintf "    {\"name\": \"%s\", \"time_per_run_ns\": %s}"
          (json_escape name)
          (match est with Some e -> json_float e | None -> "null"))
      micro
  in
  (* The result store's counters: the cache smoke test in CI asserts a
     warm run reports hits > 0 and misses = 0 here. *)
  let cache_json =
    match Core.Store.shared () with
    | None -> "  \"cache\": {\"enabled\": false},\n"
    | Some store ->
        let c = Core.Store.counters store in
        let total = c.Core.Store.hits + c.Core.Store.misses in
        Printf.sprintf
          "  \"cache\": {\"enabled\": true, \"hits\": %d, \"misses\": %d, \
           \"bytes_read\": %d, \"bytes_written\": %d, \"hit_rate\": %s},\n"
          c.Core.Store.hits c.Core.Store.misses c.Core.Store.bytes_read
          c.Core.Store.bytes_written
          (if total = 0 then "null"
           else json_float (float_of_int c.Core.Store.hits /. float_of_int total))
  in
  (* The process-wide registry snapshot: solver-internal counters for the
     whole invocation (all figures + micro), null when recording was off. *)
  let metrics_json =
    if Metrics.enabled () then String.trim (Metrics.to_json (Metrics.snapshot ()))
    else "null"
  in
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"mode\": \"%s\",\n" (json_escape mode);
  Printf.fprintf oc "  \"jobs\": %d,\n" jobs;
  Printf.fprintf oc "  \"figures\": [\n%s\n  ],\n"
    (String.concat ",\n" figure_entries);
  Printf.fprintf oc "  \"micro\": [\n%s\n  ],\n"
    (String.concat ",\n" micro_entries);
  (match sweeps with
  | [] -> ()
  | sweeps ->
      Printf.fprintf oc "  \"sweep_warm\": [\n%s\n  ],\n"
        (String.concat ",\n" (List.map sweep_warm_json sweeps)));
  (match orch with
  | [] -> ()
  | legs ->
      let serial_wall =
        match List.find_opt (fun l -> l.ol_workers = 0) legs with
        | Some l -> l.ol_summary.Orch.wall_s
        | None -> 0.0
      in
      Printf.fprintf oc "  \"orchestrate\": [\n%s\n  ],\n"
        (orchestrate_json ~serial_wall legs));
  Option.iter
    (fun run -> Printf.fprintf oc "  \"serving\": %s,\n" (serving_json run))
    serving;
  output_string oc cache_json;
  Printf.fprintf oc "  \"metrics\": %s,\n" metrics_json;
  Printf.fprintf oc "  \"total_seconds\": %s\n" (json_float total_seconds);
  Printf.fprintf oc "}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)

let usage () =
  prerr_endline
    "usage: bench [--full] [--jobs N] [--csv-dir DIR] [--bench-json FILE] \
     [--cache-dir DIR] [--resume] [--no-cache] [--metrics FILE] \
     [--trace FILE] [--progress] [--sweep-warm] [--orchestrate] [--serving] \
     [--list] [TARGET ...]";
  prerr_endline "targets: figure names (fig1a, ..., ablation_*) and 'micro';";
  prerr_endline "         none selects everything (--list prints them all)"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      usage ();
      exit 2)
    fmt

(* [Sys.mkdir] is not recursive; create each missing ancestor in turn so
   `--csv-dir results/quick/csv` works out of the box. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    (* A concurrent creator is fine; only fail if the path still isn't a
       directory afterwards. *)
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    if not (try Sys.is_directory dir with Sys_error _ -> false) then
      die "cannot create directory %s" dir
  end
  else if not (Sys.is_directory dir) then
    die "%s exists and is not a directory" dir

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
              let rec await acc = function
                | [] -> Ok (List.rev acc)
                | p :: rest -> (
                    match Spawn.endpoint p with
                    | Ok e -> await (e :: acc) rest
                    | Error msg -> Error msg)
              in
              match await [] procs with
              | Error msg -> Error msg
              | Ok endpoints ->
                  Orch.run ~scheduler ~store ~grid (Orch.Fleet endpoints))
  in
  match result with
  | Error msg -> die "orchestrate leg %s: %s" label msg
  | Ok (_, summary) ->
      (match summary.Orch.failed with
      | [] -> ()
      | (unit_label, err) :: _ ->
          die "orchestrate leg %s: unit %s failed: %s" label unit_label err);
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
    | None -> die "serving bench: cannot locate the dcn_served executable"
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
        | Error msg -> die "serving bench: %s" msg
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

type options = {
  full : bool;
  jobs : int;
  csv_dir : string option;
  bench_json : string option;
  cache_dir : string option;
  resume : bool;
  no_cache : bool;
  metrics_file : string option;
  trace_file : string option;
  progress : bool;
  sweep_warm : bool;
  orchestrate : bool;
  serving : bool;
  list : bool;
  targets : string list;
}

let parse_args argv =
  let default_jobs = Core.Cli.default_jobs () in
  let rec go acc = function
    | [] -> { acc with targets = List.rev acc.targets }
    | "--full" :: rest -> go { acc with full = true } rest
    | "--jobs" :: value :: rest -> (
        (* Same validation (and messages) as every other front end. *)
        match Core.Cli.parse_jobs value with
        | Ok j -> go { acc with jobs = j } rest
        | Error msg -> die "%s" msg)
    | [ "--jobs" ] -> die "--jobs expects a value"
    | "--csv-dir" :: dir :: rest -> go { acc with csv_dir = Some dir } rest
    | [ "--csv-dir" ] -> die "--csv-dir expects a directory"
    | "--bench-json" :: path :: rest ->
        go { acc with bench_json = Some path } rest
    | [ "--bench-json" ] -> die "--bench-json expects a file path"
    | "--cache-dir" :: dir :: rest -> go { acc with cache_dir = Some dir } rest
    | [ "--cache-dir" ] -> die "--cache-dir expects a directory"
    | "--resume" :: rest -> go { acc with resume = true } rest
    | "--no-cache" :: rest -> go { acc with no_cache = true } rest
    | "--metrics" :: path :: rest ->
        go { acc with metrics_file = Some path } rest
    | [ "--metrics" ] -> die "--metrics expects a file path"
    | "--trace" :: path :: rest -> go { acc with trace_file = Some path } rest
    | [ "--trace" ] -> die "--trace expects a file path"
    | "--progress" :: rest -> go { acc with progress = true } rest
    | "--sweep-warm" :: rest -> go { acc with sweep_warm = true } rest
    | "--orchestrate" :: rest -> go { acc with orchestrate = true } rest
    | "--serving" :: rest -> go { acc with serving = true } rest
    | "--list" :: rest -> go { acc with list = true } rest
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
        die "unknown option %s" arg
    | target :: rest -> go { acc with targets = target :: acc.targets } rest
  in
  go
    { full = false; jobs = default_jobs; csv_dir = None; bench_json = None;
      cache_dir = None; resume = false; no_cache = false; metrics_file = None;
      trace_file = None; progress = false; sweep_warm = false;
      orchestrate = false; serving = false; list = false; targets = [] }
    (List.tl (Array.to_list argv))

let () =
  let opts = parse_args Sys.argv in
  if opts.list then begin
    List.iter
      (fun (name, description, _) -> Printf.printf "%-22s %s\n" name description)
      figures;
    Printf.printf "%-22s %s\n" "micro"
      "Bechamel microbenchmarks of the computational kernels";
    exit 0
  end;
  if opts.resume && (opts.cache_dir = None || opts.no_cache) then
    die "--resume needs --cache-dir (and is incompatible with --no-cache)";
  (match opts.csv_dir with Some dir -> mkdir_p dir | None -> ());
  (* Create every report's parent directory up front: failing after the
     figures have been computed would throw the work away. *)
  List.iter
    (fun path_opt ->
      match path_opt with
      | Some path ->
          let parent = Filename.dirname path in
          if parent <> "" then mkdir_p parent
      | None -> ())
    [ opts.bench_json; opts.metrics_file; opts.trace_file ];
  (* Observability switches. Metrics recording also turns on for
     --bench-json so the report can embed solver-internal counters. *)
  if opts.metrics_file <> None || opts.bench_json <> None then
    Metrics.set_enabled true;
  if opts.trace_file <> None then Trace.set_enabled true;
  if opts.progress then Dcn_obs.Progress.set_enabled true;
  (* Install the shared result store before any pool work exists; the
     cached solvers consult it from every worker domain. *)
  (match opts.cache_dir with
  | Some dir when not opts.no_cache -> (
      match Core.Store.open_store dir with
      | store -> Core.Store.set_shared (Some store)
      | exception Failure msg -> die "%s" msg)
  | _ -> ());
  (* One shared pool for everything: figure-level and run-level batches
     both dispatch onto [jobs - 1] workers plus the submitting thread. *)
  Core.Pool.set_workers (opts.jobs - 1);
  let scale = if opts.full then Core.Scale.full else Core.Scale.quick in
  Format.printf "mode: %s (runs=%d, eps=%.2f, gap=%.2f, jobs=%d%s)@.@."
    (if opts.full then "full (paper-scale)" else "quick")
    scale.Core.Scale.runs scale.Core.Scale.params.Core.Mcmf_fptas.eps
    scale.Core.Scale.params.Core.Mcmf_fptas.gap opts.jobs
    (match Core.Store.shared () with
    | Some store -> Printf.sprintf ", cache=%s" (Core.Store.root store)
    | None -> "");
  let names = opts.targets in
  (* --sweep-warm alone runs just the warm-start sweeps; explicit targets
     can be given alongside to run both. *)
  let wants name =
    (names = [] && not opts.sweep_warm && not opts.orchestrate
   && not opts.serving)
    || List.mem name names
  in
  let known = List.map (fun (n, _, _) -> n) figures @ [ "micro" ] in
  List.iter
    (fun n ->
      if not (List.mem n known) then
        die "unknown target %s; known: %s" n (String.concat " " known))
    names;
  let t0 = Clock.now_ns () in
  let selected = List.filter (fun (n, _, _) -> wants n) figures in
  (* The run manifest lives inside the cache directory, keyed by the scale
     fingerprint + solver version; it is written whenever a store is
     installed so any later --resume can pick up this invocation. *)
  let run_dir =
    Option.map
      (fun store ->
        Core.Manifest.dir ~store
          ~fingerprint:(Core.Scale.fingerprint scale))
      (Core.Store.shared ())
  in
  let completed_seconds =
    match run_dir with
    | Some dir when opts.resume ->
        let tbl = Hashtbl.create 64 in
        List.iter
          (fun e -> Hashtbl.replace tbl e.Core.Manifest.target e.Core.Manifest.seconds)
          (Core.Manifest.load ~dir);
        tbl
    | _ -> Hashtbl.create 0
  in
  let resumed, to_compute =
    List.partition_map
      (fun ((name, _, _) as fig) ->
        match
          Option.bind (Hashtbl.find_opt completed_seconds name) (fun seconds ->
              Option.bind run_dir (fun run_dir ->
                  resume_figure ~run_dir ~seconds fig))
        with
        | Some r -> Left r
        | None -> Right fig)
      selected
  in
  let emit = emit_figure ~csv_dir:opts.csv_dir ~run_dir in
  let computed =
    if Core.Pool.enabled () then begin
      (* Parallel: collect in order, then emit (rendered strings keep the
         output un-interleaved). *)
      let cs = Core.Parallel.map (compute_figure scale) to_compute in
      List.iter emit (resumed @ cs);
      resumed @ cs
    end
    else begin
      (* Serial: stream each figure as soon as it finishes. *)
      List.iter emit resumed;
      resumed
      @ List.map
          (fun fig ->
            let r = compute_figure scale fig in
            emit r;
            r)
          to_compute
    end
  in
  let micro = if wants "micro" then microbenchmarks () else [] in
  (* Warm-start sweep bench: each grid point solved cold and warm, the
     per-point speedup printed and (with --bench-json) serialized. Runs
     serially on the submitting domain — wall-clock comparisons would be
     meaningless with both legs sharing a pool. *)
  let sweeps =
    if not opts.sweep_warm then []
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
  let orch = if opts.orchestrate then orchestrate_bench () else [] in
  (* Serving: the daemon booted and measured with the keep-alive load
     generator; throughput/latency land in --bench-json's "serving"
     section. *)
  let serving =
    if opts.serving then Some (serving_bench ~jobs:opts.jobs ()) else None
  in
  (match Core.Store.shared () with
  | Some store ->
      let c = Core.Store.counters store in
      Format.printf "cache: %d hits, %d misses (%d B read, %d B written)@."
        c.Core.Store.hits c.Core.Store.misses c.Core.Store.bytes_read
        c.Core.Store.bytes_written
  | None -> ());
  (match opts.bench_json with
  | None -> ()
  | Some path ->
      write_bench_json path
        ~mode:(if opts.full then "full" else "quick")
        ~jobs:opts.jobs ~figures:computed ~micro ~sweeps ~orch ~serving
        ~total_seconds:(Clock.elapsed_s t0));
  (match opts.metrics_file with
  | None -> ()
  | Some path -> Metrics.write ~path (Metrics.snapshot ()));
  match opts.trace_file with None -> () | Some path -> Trace.write path
