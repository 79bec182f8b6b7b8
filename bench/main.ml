(* Benchmark harness: regenerates every figure of the paper's evaluation.

   Usage:
     dune exec bench/main.exe                 # quick mode, all figures
     dune exec bench/main.exe -- --full       # paper-scale grids/runs
     dune exec bench/main.exe -- fig6a fig12a # a subset of targets
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
   console rendering, the CSV directory, the --sweep-warm section and the
   --bench-json report.

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

(* Runtime errors (an unusable directory): one line on stderr, exit 2. *)
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

let write_bench_json path ~mode ~jobs ~figures ~sweeps ~total_seconds =
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
  J.atomic_write ~path
    (J.pretty
       ([
          ("mode", J.Str mode);
          ("jobs", J.Int jobs);
          ("figures", J.Arr (List.map figure figures));
        ]
       @ (match sweeps with
         | [] -> []
         | l -> [ ("sweep_warm", J.Arr (List.map sweep_warm_json l)) ])
       @ [
           ("cache", cache_json);
           (* The process-wide registry snapshot: solver-internal counters
              for the whole invocation, null when recording was off. *)
           ( "metrics",
             if Metrics.enabled () then Metrics.json (Metrics.snapshot ())
             else J.Null );
           ("total_seconds", num total_seconds);
         ]))

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)

let targets = List.map (fun f -> f.Figures.name) Figures.all

let main full jobs csv_dir bench_json cache_dir resume no_cache obs sweep_warm
    list short_help names =
  if short_help then `Help (`Auto, None)
  else begin
    if list then begin
      List.iter
        (fun f -> Printf.printf "%-22s %s\n" f.Figures.name f.Figures.description)
        Figures.all;
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
    let wants name = (names = [] && not sweep_warm) || List.mem name names in
    let t0 = Clock.now_ns () in
    let figures =
      Figures.run ~resume ~emit:(emit_figure ~csv_dir) scale
        (List.filter (fun f -> wants f.Figures.name) Figures.all)
    in
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
          ~jobs ~figures ~sweeps ~total_seconds:(Clock.elapsed_s t0))
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
        $ flag "list" "Print every target with its description and exit."
        $ Arg.(value & flag & info [ "h" ] ~doc:"Same as $(b,--help).")
        $ Arg.(
            value
            & pos_all (enum (List.map (fun t -> (t, t)) targets)) []
            & info [] ~docv:"TARGET"
                ~doc:
                  "Figure or ablation names (see $(b,--list)); none selects \
                   everything, unless $(b,--sweep-warm) is asked for.")))
  in
  let doc = "regenerate the paper's figures and benchmark the solver" in
  exit (Cmd.eval (Cmd.v (Cmd.info "bench" ~doc) term))
