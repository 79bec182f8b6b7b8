(* topobench — command-line front end to the topology-throughput library.

   Mirrors the role of the paper's released TopoBench tool: build a
   topology, pick a traffic matrix, and measure throughput (plus bounds and
   the §6.1 decomposition) without writing any OCaml. *)

open Cmdliner

(* ---- shared argument vocabulary (Core.Cli) ----

   The parsers and terms live in Core.Cli, shared with bench/main.exe and
   the serving daemon/client; only the aliases and the positional topology
   argument are declared here. *)

let seed_arg = Core.Cli.seed_arg
let eps_arg = Core.Cli.eps_arg
let gap_arg = Core.Cli.gap_arg
let params_of = Core.Cli.params_of
let cache_dir_arg = Core.Cli.cache_dir_arg
let no_cache_arg = Core.Cli.no_cache_arg
let setup_store = Core.Cli.setup_store
let report_cache_stats = Core.Cli.report_cache_stats
let obs_args = Core.Cli.obs_args
let with_obs = Core.Cli.with_obs
let traffic_arg = Core.Cli.traffic_arg

let topo_arg =
  let doc =
    "Topology: rrg:N,K,R (N switches, K ports, R network links each), \
     vl2:DA,DI, rewired:DA,DI,TORS, fat-tree:K, hypercube:DIM,SERVERS, \
     bcube:N,K, dcell:N,L, dragonfly:A,H, or file:PATH (the Topology_io \
     text format)."
  in
  Arg.(
    required
    & pos 0 (some Core.Cli.topo_conv) None
    & info [] ~docv:"TOPOLOGY" ~doc)

let build_topology spec seed = Core.Cli.build_topology spec ~seed
let make_traffic kind st servers = Core.Cli.make_traffic kind st ~servers

(* --jobs on the solver-backed commands: the submitting thread works too,
   so the pool gets jobs-1 extra domains. *)
let jobs_arg = Core.Cli.jobs_arg
let apply_jobs jobs = Core.Pool.set_workers (jobs - 1)

(* ---- throughput command ---- *)

let throughput_cmd =
  let run spec traffic seed eps gap jobs cache_dir no_cache obs =
    apply_jobs jobs;
    ignore (setup_store cache_dir no_cache);
    with_obs obs @@ fun () ->
    let topo = build_topology spec seed in
    let st = Random.State.make [| seed; 1 |] in
    let tm = make_traffic traffic st topo.Core.Topology.servers in
    let cs = Core.Traffic.to_commodities tm in
    let t =
      Core.Solve_cache.throughput
        ~solver:(Core.Throughput.Fptas (params_of eps gap))
        topo.Core.Topology.graph cs
    in
    let lo, hi = t.Core.Throughput.lambda_bounds in
    Format.printf "topology        : %a@." Core.Topology.pp topo;
    Format.printf "traffic         : %s (%d switch-level commodities)@."
      tm.Core.Traffic.name (Array.length cs);
    Format.printf "throughput      : %.4f  (certified in [%.4f, %.4f])@."
      t.Core.Throughput.lambda lo hi;
    Format.printf "utilization     : %.4f@." t.Core.Throughput.utilization;
    Format.printf "mean path length: %.4f hops (stretch %.4f)@."
      t.Core.Throughput.mean_shortest_path t.Core.Throughput.stretch;
    Format.printf "Theorem-1 bound : %.4f@."
      (Core.Throughput_bound.upper_bound_capacity topo.Core.Topology.graph cs);
    report_cache_stats ()
  in
  let doc = "Measure max-concurrent-flow throughput of a topology." in
  Cmd.v
    (Cmd.info "throughput" ~doc)
    Term.(const run $ topo_arg $ traffic_arg $ seed_arg $ eps_arg $ gap_arg
          $ jobs_arg $ cache_dir_arg $ no_cache_arg $ obs_args)

(* ---- aspl command ---- *)

let aspl_cmd =
  let run spec seed =
    let topo = build_topology spec seed in
    let g = topo.Core.Topology.graph in
    let aspl, diameter = Core.Graph_metrics.aspl_and_diameter g in
    Format.printf "topology : %a@." Core.Topology.pp topo;
    Format.printf "ASPL     : %.4f@." aspl;
    Format.printf "diameter : %d@." diameter;
    (match Core.Graph.is_regular g with
    | Some r ->
        Format.printf "Cerf ASPL lower bound (r=%d): %.4f@." r
          (Core.Aspl_bound.d_star ~n:(Core.Graph.n g) ~r)
    | None -> Format.printf "(irregular graph; no Cerf bound)@.")
  in
  let doc = "Path-length statistics of a topology vs. the Cerf bound." in
  Cmd.v (Cmd.info "aspl" ~doc) Term.(const run $ topo_arg $ seed_arg)

(* ---- spectral command ---- *)

let spectral_cmd =
  let run spec seed =
    let topo = build_topology spec seed in
    let g = topo.Core.Topology.graph in
    Format.printf "topology : %a@." Core.Topology.pp topo;
    match Core.Graph.is_regular g with
    | None -> Format.printf "graph is irregular; spectral analysis needs regularity@."
    | Some d ->
        let lambda2 = Core.Spectral.second_eigenvalue g in
        Format.printf "degree            : %d@." d;
        Format.printf "|lambda_2|        : %.4f@." lambda2;
        Format.printf "spectral gap      : %.4f@." (float_of_int d -. lambda2);
        Format.printf "Ramanujan bound   : %.4f@." (Core.Spectral.ramanujan_bound ~d);
        Format.printf "expansion quality : %.4f (1 = spectrally optimal)@."
          (Core.Spectral.expansion_quality g)
  in
  let doc = "Expansion (second eigenvalue) of a regular topology." in
  Cmd.v (Cmd.info "spectral" ~doc) Term.(const run $ topo_arg $ seed_arg)

(* ---- compare command ---- *)

let compare_cmd =
  let topo2_arg =
    Arg.(required & pos 1 (some Core.Cli.topo_conv) None & info [] ~docv:"TOPOLOGY2"
           ~doc:"Second topology to compare against.")
  in
  let run spec1 spec2 traffic seed eps gap jobs cache_dir no_cache obs =
    apply_jobs jobs;
    ignore (setup_store cache_dir no_cache);
    with_obs obs @@ fun () ->
    let measure spec =
      let topo = build_topology spec seed in
      let st = Random.State.make [| seed; 1 |] in
      let tm = make_traffic traffic st topo.Core.Topology.servers in
      let cs = Core.Traffic.to_commodities tm in
      let t =
        Core.Solve_cache.throughput
          ~solver:(Core.Throughput.Fptas (params_of eps gap))
          topo.Core.Topology.graph cs
      in
      (topo, t)
    in
    let topo1, t1 = measure spec1 in
    let topo2, t2 = measure spec2 in
    let table =
      Core.Table.create
        ~header:[ "metric"; topo1.Core.Topology.name; topo2.Core.Topology.name ]
    in
    let row name f =
      Core.Table.add_row table
        [ name; Printf.sprintf "%.4f" (f (topo1, t1));
          Printf.sprintf "%.4f" (f (topo2, t2)) ]
    in
    row "throughput" (fun (_, t) -> t.Core.Throughput.lambda);
    row "utilization" (fun (_, t) -> t.Core.Throughput.utilization);
    row "mean path length" (fun (_, t) -> t.Core.Throughput.mean_shortest_path);
    row "stretch" (fun (_, t) -> t.Core.Throughput.stretch);
    row "aspl" (fun (topo, _) -> Core.Graph_metrics.aspl topo.Core.Topology.graph);
    row "servers" (fun (topo, _) -> float_of_int (Core.Topology.num_servers topo));
    Core.Table.print table
  in
  let doc = "Compare two topologies under the same traffic model." in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const run $ topo_arg $ topo2_arg $ traffic_arg $ seed_arg $ eps_arg
          $ gap_arg $ jobs_arg $ cache_dir_arg $ no_cache_arg $ obs_args)

(* ---- routing command ---- *)

let routing_cmd =
  let run spec seed eps gap jobs cache_dir no_cache obs =
    apply_jobs jobs;
    ignore (setup_store cache_dir no_cache);
    with_obs obs @@ fun () ->
    let topo = build_topology spec seed in
    let g = topo.Core.Topology.graph in
    let st = Random.State.make [| seed; 1 |] in
    let tm = Core.Traffic.permutation st ~servers:topo.Core.Topology.servers in
    let cs = Core.Traffic.to_commodities tm in
    let params = params_of eps gap in
    let optimal = Core.Solve_cache.fptas_lambda ~params g cs in
    let table = Core.Table.create ~header:[ "routing"; "lambda"; "fraction" ] in
    let add name lambda =
      Core.Table.add_row table
        [ name; Printf.sprintf "%.4f" lambda;
          Printf.sprintf "%.3f" (lambda /. optimal) ]
    in
    add "optimal (any path)" optimal;
    add "8 shortest paths"
      (Core.Mcmf_paths.lambda ~params g (Core.Mcmf_paths.of_k_shortest g ~k:8 cs));
    add "ecmp"
      (Core.Mcmf_paths.lambda ~params g (Core.Mcmf_paths.of_ecmp g ~limit:64 cs));
    add "vlb (8 intermediates)"
      (Core.Mcmf_paths.lambda ~params g (Core.Vlb.restrict st g ~intermediates:8 cs));
    add "single shortest path"
      (Core.Mcmf_paths.lambda ~params g (Core.Mcmf_paths.of_k_shortest g ~k:1 cs));
    Core.Table.print table
  in
  let doc = "Compare routing models (optimal, k-shortest, ECMP, VLB) on a topology." in
  Cmd.v (Cmd.info "routing" ~doc)
    Term.(const run $ topo_arg $ seed_arg $ eps_arg $ gap_arg $ jobs_arg
          $ cache_dir_arg $ no_cache_arg $ obs_args)

(* ---- failures command ---- *)

let failures_cmd =
  let fractions_arg =
    let doc = "Comma-separated failed-link fractions (default 0,0.05,0.1,0.2)." in
    Arg.(value & opt (list float) [ 0.0; 0.05; 0.1; 0.2 ] & info [ "fractions" ] ~doc)
  in
  let run spec seed eps gap fractions jobs cache_dir no_cache obs =
    apply_jobs jobs;
    ignore (setup_store cache_dir no_cache);
    with_obs obs @@ fun () ->
    let topo = build_topology spec seed in
    let st = Random.State.make [| seed; 2 |] in
    let params = params_of eps gap in
    let tm_st = Random.State.make [| seed; 3 |] in
    let tm =
      Core.Traffic.permutation tm_st ~servers:topo.Core.Topology.servers
    in
    let cs = Core.Traffic.to_commodities tm in
    let midpoint = Core.Gk_loop.midpoint in
    (* One group-tracked baseline; each non-zero fraction is an incremental
       delta-solve of the masked survivor against it (repaired trees,
       surviving flow reused) rather than a from-scratch solve. *)
    let base_state, base_warm =
      Core.Solve_cache.fptas_with_state ~params ~track_groups:true
        topo.Core.Topology.graph cs
    in
    let base = midpoint base_state.Core.Mcmf_fptas.result in
    let table =
      Core.Table.create ~header:[ "failed_fraction"; "lambda"; "retained" ]
    in
    List.iter
      (fun fraction ->
        if Float.equal fraction 0.0 then
          (* The unfailed point is the baseline itself. *)
          Core.Table.add_floats table [ 0.0; base; 1.0 ]
        else begin
          let masked, failed =
            Core.Resilience.fail_arcs_connected st topo.Core.Topology.graph
              ~fraction
          in
          let solved, _ =
            Core.Solve_cache.fptas_delta ~params ~warm:base_warm ~failed
              masked cs
          in
          let lambda = midpoint solved.Core.Mcmf_fptas.result in
          Core.Table.add_floats table [ fraction; lambda; lambda /. base ]
        end)
      fractions;
    Core.Table.print table
  in
  let doc = "Throughput under uniform random link failures." in
  Cmd.v (Cmd.info "failures" ~doc)
    Term.(const run $ topo_arg $ seed_arg $ eps_arg $ gap_arg $ fractions_arg
          $ jobs_arg $ cache_dir_arg $ no_cache_arg $ obs_args)

(* ---- save command ---- *)

let save_cmd =
  let out_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"PATH"
           ~doc:"Output file (Topology_io text format).")
  in
  let run spec seed path =
    let topo = build_topology spec seed in
    Core.Topology_io.save path topo;
    Format.printf "wrote %a to %s@." Core.Topology.pp topo path
  in
  let doc = "Generate a topology and write it to a file." in
  Cmd.v (Cmd.info "save" ~doc) Term.(const run $ topo_arg $ seed_arg $ out_arg)

(* ---- export command ---- *)

let export_cmd =
  let run spec seed dot =
    let topo = build_topology spec seed in
    if dot then print_string (Core.Graph.to_dot topo.Core.Topology.graph)
    else
      List.iter
        (fun (u, v, c) -> Printf.printf "%d %d %g\n" u v c)
        (Core.Graph.to_edge_list topo.Core.Topology.graph)
  in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of an edge list.")
  in
  let doc = "Dump a topology as an edge list or Graphviz dot." in
  Cmd.v (Cmd.info "export" ~doc) Term.(const run $ topo_arg $ seed_arg $ dot_arg)

(* ---- figure command ---- *)

let figure_cmd =
  let figures =
    [
      ("fig1a", Core.Experiments.fig1a);
      ("fig1b", Core.Experiments.fig1b);
      ("fig2a", Core.Experiments.fig2a);
      ("fig2b", Core.Experiments.fig2b);
      ("fig3", Core.Experiments.fig3);
      ("fig4a", Core.Hetero_experiments.fig4a);
      ("fig4b", Core.Hetero_experiments.fig4b);
      ("fig4c", Core.Hetero_experiments.fig4c);
      ("fig5", Core.Hetero_experiments.fig5);
      ("fig6a", Core.Hetero_experiments.fig6a);
      ("fig6b", Core.Hetero_experiments.fig6b);
      ("fig6c", Core.Hetero_experiments.fig6c);
      ("fig7a", Core.Hetero_experiments.fig7a);
      ("fig7b", Core.Hetero_experiments.fig7b);
      ("fig8a", Core.Hetero_experiments.fig8a);
      ("fig8b", Core.Hetero_experiments.fig8b);
      ("fig8c", Core.Hetero_experiments.fig8c);
      ("fig9a", Core.Hetero_experiments.fig9a);
      ("fig9b", Core.Hetero_experiments.fig9b);
      ("fig9c", Core.Hetero_experiments.fig9c);
      ("fig10a", Core.Hetero_experiments.fig10a);
      ("fig10b", Core.Hetero_experiments.fig10b);
      ("fig11", Core.Hetero_experiments.fig11);
      ("fig12a", Core.Vl2_study.fig12a);
      ("fig12b", Core.Vl2_study.fig12b);
      ("fig12c", Core.Vl2_study.fig12c);
      ("fig13", Core.Packet_experiments.fig13);
    ]
  in
  let name_arg =
    let doc = "Figure to regenerate (fig1a .. fig13)." in
    Arg.(
      required
      & pos 0 (some (enum (List.map (fun (n, f) -> (n, (n, f))) figures))) None
      & info [] ~docv:"FIGURE" ~doc)
  in
  let full_arg =
    Arg.(value & flag & info [ "full" ] ~doc:"Paper-scale grids and run counts.")
  in
  let csv_arg =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of an aligned table.")
  in
  let resume_arg =
    let doc =
      "Replay the figure from the run manifest in the cache directory when \
       a previous invocation (of topobench or of bench/main.exe at the \
       same scale) already completed it; otherwise compute it, reusing \
       cached solves, and record it for the next resume. Requires \
       $(b,--cache-dir)."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  (* The manifest directory is shared with bench/main.exe: it is keyed by
     the scale fingerprint + solver version alone, so either tool can
     resume a figure the other finished. *)
  let run (name, f) full csv resume jobs cache_dir no_cache obs =
    apply_jobs jobs;
    let caching = setup_store cache_dir no_cache in
    if resume && not caching then begin
      prerr_endline "topobench: --resume needs --cache-dir (without --no-cache)";
      exit 2
    end;
    with_obs obs @@ fun () ->
    let scale = if full then Core.Scale.full else Core.Scale.quick in
    let run_dir =
      Option.map
        (fun store ->
          Core.Manifest.dir ~store ~fingerprint:(Core.Scale.fingerprint scale))
        (Core.Store.shared ())
    in
    let recorded kind =
      Option.bind run_dir (fun dir ->
          if
            resume
            && List.exists
                 (fun e -> e.Core.Manifest.target = name)
                 (Core.Manifest.load ~dir)
          then Core.Manifest.read_artifact ~dir ~name:(name ^ kind)
          else None)
    in
    match (csv, recorded (if csv then ".csv" else ".table")) with
    | _, Some text ->
        (* Same shape as [Core.Table.print ~title]. *)
        if csv then print_string text
        else begin
          print_endline name;
          print_endline (String.make (String.length name) '=');
          print_string text
        end
    | _, None ->
        let t0 = Core.Obs.Clock.now_ns () in
        let table =
          Core.Scale.with_figure name (fun () ->
              Core.Obs.Trace.with_span ~cat:"figure" name (fun () -> f scale))
        in
        let seconds = Core.Obs.Clock.elapsed_s t0 in
        (match run_dir with
        | Some dir ->
            let buf = Buffer.create 1024 in
            let ppf = Format.formatter_of_buffer buf in
            Format.fprintf ppf "%a@." Core.Table.pp table;
            Format.pp_print_flush ppf ();
            Core.Manifest.write_artifact ~dir ~name:(name ^ ".table")
              (Buffer.contents buf);
            Core.Manifest.write_artifact ~dir ~name:(name ^ ".csv")
              (Core.Table.to_csv table);
            Core.Manifest.mark_done ~dir
              { Core.Manifest.target = name; seconds }
        | None -> ());
        if csv then print_string (Core.Table.to_csv table)
        else Core.Table.print ~title:name table
  in
  let doc = "Regenerate one of the paper's figures." in
  Cmd.v (Cmd.info "figure" ~doc)
    Term.(const run $ name_arg $ full_arg $ csv_arg $ resume_arg $ jobs_arg
          $ cache_dir_arg $ no_cache_arg $ obs_args)

(* ---- client command ---- *)

let client_cmd =
  let host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR"
           ~doc:"Server address.")
  in
  let port_arg =
    Arg.(value & opt int 8080 & info [ "port" ] ~docv:"PORT" ~doc:"Server port.")
  in
  let routing_conv =
    Arg.conv
      ( (fun s ->
          match Dcn_serve.Request.parse_routing s with
          | Ok r -> Ok r
          | Error msg -> Error (`Msg msg)),
        fun ppf r ->
          Format.pp_print_string ppf (Dcn_serve.Request.routing_to_string r) )
  in
  let routing_arg =
    Arg.(value & opt routing_conv Dcn_serve.Request.Optimal
           & info [ "routing" ] ~docv:"MODE"
               ~doc:"Routing model: optimal | ksp:K | ecmp[:LIMIT] | vlb:N.")
  in
  let timeout_arg =
    Arg.(value & opt float 0.0 & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Per-request deadline sent as \"timeout_s\"; 0 omits it \
                 (server default applies).")
  in
  let load_arg =
    Arg.(value & opt int 0 & info [ "load" ] ~docv:"N"
           ~doc:"Load-generator mode: fire $(docv) requests and report \
                 latency percentiles; 0 sends a single request.")
  in
  let qps_arg =
    Arg.(value & opt float 0.0 & info [ "qps" ] ~docv:"QPS"
           ~doc:"Open-loop target rate for $(b,--load); 0 means closed loop.")
  in
  let concurrency_arg =
    Arg.(value & opt int 16 & info [ "concurrency" ] ~docv:"N"
           ~doc:"Client threads in $(b,--load) mode.")
  in
  let variants_arg =
    Arg.(value & opt int 5 & info [ "variants" ] ~docv:"V"
           ~doc:"Distinct request variants in $(b,--load) mode (seeds \
                 seed..seed+V-1, round robin), so the mix exercises both \
                 coalescing/cache hits and cold solves deterministically.")
  in
  let pipeline_arg =
    Arg.(value & opt int 1 & info [ "pipeline" ] ~docv:"DEPTH"
           ~doc:"Write $(docv) requests per connection before reading the \
                 responses back in order.")
  in
  let expect_2xx_arg =
    Arg.(value & flag & info [ "expect-2xx" ]
           ~doc:"Exit non-zero if any request fails or is rejected (CI mode).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit a machine-readable JSON report (load and probe modes) \
                 instead of the human-readable one.")
  in
  let probe_arg =
    Arg.(value & flag & info [ "probe" ]
           ~doc:"Probe GET /healthz instead of sending a solve; exit 0 iff \
                 the server is healthy and not draining. The same decoding \
                 the orchestrator admits workers with.")
  in
  let body_for spec ~seed ~traffic ~eps ~gap ~routing ~timeout =
    Dcn_serve.Request.to_body
      {
        Dcn_serve.Request.topology = Dcn_serve.Request.Spec spec;
        seed;
        traffic;
        eps;
        gap;
        routing;
        timeout_s = (if timeout > 0.0 then Some timeout else None);
      }
  in
  let module J = Core.Obs.Json in
  let probe_healthz ~host ~port ~json =
    match Dcn_orchestrate.Worker.healthz { Dcn_orchestrate.Worker.host; port } with
    | Error msg ->
        if json then
          print_endline
            (J.to_string (J.Obj [ ("ok", J.Bool false); ("error", J.Str msg) ]))
        else prerr_endline ("topobench client: " ^ msg);
        exit 1
    | Ok h ->
        let healthy = h.Dcn_orchestrate.Worker.ok && not h.Dcn_orchestrate.Worker.draining in
        if json then
          print_endline
            (J.to_string
               (J.Obj
                  [
                    ("ok", J.Bool healthy);
                    ("solver_version", J.Str h.Dcn_orchestrate.Worker.solver_version);
                    ("jobs", J.Int h.Dcn_orchestrate.Worker.jobs);
                    ("draining", J.Bool h.Dcn_orchestrate.Worker.draining);
                  ]))
        else
          Printf.printf "healthz %s:%d: %s (solver %s, jobs=%d%s)\n" host port
            (if healthy then "ok" else "NOT healthy")
            h.Dcn_orchestrate.Worker.solver_version h.Dcn_orchestrate.Worker.jobs
            (if h.Dcn_orchestrate.Worker.draining then ", draining" else "");
        if not healthy then exit 1
  in
  let report_json (report : Dcn_serve.Load_gen.report) ~transport_errors =
    let module L = Dcn_serve.Load_gen in
    let num x = J.Num x in
    J.pretty
      [
        ("total", J.Int report.L.total);
        ( "by_status",
          J.Arr
            (List.map
               (fun (status, count) ->
                 J.Obj [ ("status", J.Int status); ("count", J.Int count) ])
               report.L.by_status) );
        ("transport_errors", J.Int transport_errors);
        ("p50_s", num report.L.p50);
        ("p95_s", num report.L.p95);
        ("p99_s", num report.L.p99);
        ("max_s", num report.L.max_s);
        ("elapsed_s", num report.L.elapsed_s);
        ("rps", num report.L.rps);
        ("connects", J.Int report.L.connects);
        ("reuse_rate", num report.L.reuse_rate);
        ("bound_responses", J.Int report.L.bound_responses);
        ("duplicates_identical", J.Bool report.L.duplicates_identical);
      ]
  in
  let run spec host port traffic seed eps gap routing timeout load qps
      concurrency variants pipeline expect_2xx json probe =
    if probe then probe_healthz ~host ~port ~json
    else begin
    let spec =
      match spec with
      | Some s -> s
      | None ->
          prerr_endline "topobench client: a TOPOLOGY argument is required \
                         unless --probe is given";
          exit 2
    in
    let body seed = body_for spec ~seed ~traffic ~eps ~gap ~routing ~timeout in
    if load <= 0 then begin
      (* Single request: print the response body, exit by status class. *)
      match
        Dcn_serve.Http.client_request ~host ~port ~meth:"POST" ~target:"/solve"
          ~body:(body seed) ()
      with
      | Error msg ->
          prerr_endline ("topobench client: " ^ msg);
          exit 1
      | Ok (status, resp_body) ->
          print_string resp_body;
          if status < 200 || status > 299 then begin
            Printf.eprintf "topobench client: HTTP %d\n" status;
            exit 1
          end
    end
    else begin
      let bodies = Array.init (max 1 variants) (fun i -> body (seed + i)) in
      let report, _rows =
        Dcn_serve.Load_gen.run ~pipeline:(max 1 pipeline) ~host ~port ~bodies
          ~requests:load ~concurrency ~qps ()
      in
      let transport_errors =
        List.fold_left
          (fun acc (status, count) -> if status = 0 then acc + count else acc)
          0 report.Dcn_serve.Load_gen.by_status
      in
      if json then print_string (report_json report ~transport_errors)
      else Dcn_serve.Load_gen.print_report report;
      let failures =
        List.exists
          (fun (status, _) -> status < 200 || status > 299)
          report.Dcn_serve.Load_gen.by_status
      in
      if not report.Dcn_serve.Load_gen.duplicates_identical then begin
        prerr_endline
          "topobench client: duplicate responses were NOT byte-identical";
        exit 1
      end;
      (* A transport error (connection refused, reset, timeout) is never
         a success, --expect-2xx or not. *)
      if transport_errors > 0 then begin
        Printf.eprintf "topobench client: %d transport error(s)\n"
          transport_errors;
        exit 1
      end;
      if expect_2xx && failures then begin
        prerr_endline "topobench client: non-2xx responses under --expect-2xx";
        exit 1
      end
    end
    end
  in
  let topo_opt_arg =
    Arg.(value & pos 0 (some Core.Cli.topo_conv) None
           & info [] ~docv:"TOPOLOGY"
               ~doc:"Topology spec (same vocabulary as the solver commands). \
                     Required except in $(b,--probe) mode.")
  in
  let doc = "Send solve requests to a running dcn_served daemon." in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const run $ topo_opt_arg $ host_arg $ port_arg $ traffic_arg $ seed_arg
      $ eps_arg $ gap_arg $ routing_arg $ timeout_arg $ load_arg $ qps_arg
      $ concurrency_arg $ variants_arg $ pipeline_arg
      $ expect_2xx_arg $ json_arg $ probe_arg)

(* ---- orchestrate command ---- *)

let orchestrate_cmd =
  let module Grid = Dcn_orchestrate.Grid in
  let module Scheduler = Dcn_orchestrate.Scheduler in
  let module Worker = Dcn_orchestrate.Worker in
  let module Spawn = Dcn_orchestrate.Spawn in
  let module Orchestrator = Dcn_orchestrate.Orchestrator in
  let topos_arg =
    Arg.(non_empty & opt_all Core.Cli.topo_conv []
           & info [ "topo" ] ~docv:"TOPOLOGY"
               ~doc:"Topology axis of the sweep grid (repeatable; same \
                     vocabulary as the solver commands).")
  in
  let seeds_arg =
    Arg.(value & opt int 1 & info [ "seeds" ] ~docv:"N"
           ~doc:"Seed axis: sweep seeds 1..$(docv).")
  in
  let traffics_arg =
    Arg.(value & opt_all Core.Cli.traffic_conv []
           & info [ "traffic" ] ~docv:"KIND"
               ~doc:"Traffic axis (repeatable): permutation | a2a | \
                     chunky:PERCENT. Default: permutation.")
  in
  let epses_arg =
    Arg.(value & opt_all (Core.Cli.unit_open_conv "eps") []
           & info [ "eps" ] ~docv:"EPS"
               ~doc:"FPTAS accuracy axis (repeatable). Default: 0.05.")
  in
  let gaps_arg =
    Arg.(value & opt_all (Core.Cli.unit_open_conv "gap") []
           & info [ "gap" ] ~docv:"GAP"
               ~doc:"Termination-gap axis (repeatable). Default: 0.05.")
  in
  let routing_conv =
    Arg.conv
      ( (fun s ->
          match Dcn_serve.Request.parse_routing s with
          | Ok r -> Ok r
          | Error msg -> Error (`Msg msg)),
        fun ppf r ->
          Format.pp_print_string ppf (Dcn_serve.Request.routing_to_string r) )
  in
  let routings_arg =
    Arg.(value & opt_all routing_conv []
           & info [ "routing" ] ~docv:"MODE"
               ~doc:"Routing axis (repeatable): optimal | ksp:K | \
                     ecmp[:LIMIT] | vlb:N. Default: optimal.")
  in
  let serial_arg =
    Arg.(value & flag & info [ "serial" ]
           ~doc:"Run every unit in-process, one at a time (the reference \
                 execution distributed runs must match byte for byte).")
  in
  let workers_arg =
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N"
           ~doc:"Spawn $(docv) local dcn_served workers on ephemeral ports, \
                 sharing the coordinator's store. Ignored when $(b,--worker) \
                 or $(b,--serial) is given.")
  in
  let worker_urls_arg =
    Arg.(value & opt_all string []
           & info [ "worker" ] ~docv:"URL"
               ~doc:"Dispatch to an already-running dcn_served at \
                     HOST:PORT or http://HOST:PORT (repeatable). Remote \
                     workers keep their own caches; results stream back \
                     into the coordinator's store.")
  in
  let worker_jobs_arg =
    Arg.(value & opt int 2 & info [ "worker-jobs" ] ~docv:"J"
           ~doc:"--jobs for each spawned worker (handler threads + solver \
                 domains).")
  in
  let cache_dir_required_arg =
    Arg.(required & opt (some string) None
           & info [ "cache-dir" ] ~docv:"DIR"
               ~doc:"The shared result store (coordinator's source of \
                     truth; spawned workers mount the same directory).")
  in
  let resume_arg =
    Arg.(value & flag & info [ "resume" ]
           ~doc:"Resume a previous run: units whose digests are already in \
                 the store are replayed from it (completion is re-verified \
                 against the store entry, not just the manifest).")
  in
  let unit_timeout_arg =
    Arg.(value & opt float 300.0 & info [ "unit-timeout" ] ~docv:"SECONDS"
           ~doc:"Per-unit deadline, injected into each dispatched request.")
  in
  let max_attempts_arg =
    Arg.(value & opt int Scheduler.default_config.Scheduler.max_attempts
           & info [ "max-attempts" ] ~docv:"N"
               ~doc:"Dispatch attempts before a unit is failed.")
  in
  let hedge_after_arg =
    Arg.(value & opt float 1.0 & info [ "hedge-after" ] ~docv:"SECONDS"
           ~doc:"Once the queue drains, re-issue in-flight units older than \
                 $(docv) on a second worker (first result wins); 0 disables \
                 hedging.")
  in
  let summary_json_arg =
    Arg.(value & opt (some string) None
           & info [ "summary-json" ] ~docv:"FILE"
               ~doc:"Also write the run summary as JSON to $(docv).")
  in
  let chaos_kill_arg =
    Arg.(value & opt int 0 & info [ "chaos-kill" ] ~docv:"N"
           ~doc:"Testing hook: SIGKILL the first spawned worker after $(docv) \
                 computed results have landed, to exercise retry/eviction. \
                 0 disables; ignored unless workers are spawned.")
  in
  let event_log_arg =
    Arg.(value & opt (some string) None
           & info [ "event-log" ] ~docv:"FILE"
               ~doc:"Append one timestamped JSON line per scheduler decision \
                     (dispatch, retry backoff, hedge, discard, eviction, \
                     re-admission, health probe) to $(docv). Crash-safe \
                     appends; a torn final line is tolerated by readers.")
  in
  let status_arg =
    Arg.(value & flag & info [ "status" ]
           ~doc:"Live status line on stderr: units done/in-flight/failed, \
                 throughput, ETA, per-worker completions.")
  in
  let print_outcome ~total counter (o : Orchestrator.outcome) =
    incr counter;
    let src =
      match o.Orchestrator.o_source with
      | Orchestrator.From_cache -> "cache"
      | Orchestrator.Computed w -> w
    in
    let extras =
      (if o.Orchestrator.o_hedged then " hedged" else "")
      ^
      if o.Orchestrator.o_attempts > 1 then
        Printf.sprintf " attempts=%d" o.Orchestrator.o_attempts
      else ""
    in
    Printf.printf "[%*d/%d] %-44s %8.3fs  %s%s\n%!"
      (String.length (string_of_int total))
      !counter total o.Orchestrator.o_unit.Grid.label
      o.Orchestrator.o_seconds src extras
  in
  let print_summary (s : Orchestrator.summary) =
    Printf.printf
      "orchestrate: %d units — %d from cache, %d computed in %.2fs\n"
      s.Orchestrator.total s.Orchestrator.from_cache s.Orchestrator.computed
      s.Orchestrator.wall_s;
    List.iter
      (fun (worker, n) -> Printf.printf "  %-24s %d unit(s)\n" worker n)
      s.Orchestrator.per_worker;
    Printf.printf
      "  dispatched=%d retried=%d hedged=%d discarded=%d evicted=%d \
       readmitted=%d\n"
      s.Orchestrator.dispatched s.Orchestrator.retried s.Orchestrator.hedged
      s.Orchestrator.discarded s.Orchestrator.evicted
      s.Orchestrator.readmitted;
    List.iter
      (fun (unit_label, err) ->
        Printf.eprintf "orchestrate: FAILED %s: %s\n" unit_label err)
      s.Orchestrator.failed
  in
  let run topos seeds traffics epses gaps routings serial workers worker_urls
      worker_jobs cache_dir resume unit_timeout max_attempts hedge_after
      summary_json chaos_kill event_log status_flag obs =
    (* The merged fleet trace is the orchestrator's to write (it splices
       the workers' buffers in); hand with_obs only metrics/progress so
       it doesn't overwrite the merged file with coordinator-only spans
       on exit. *)
    let metrics, trace, progress = obs in
    with_obs (metrics, None, progress) @@ fun () ->
    if seeds < 1 then begin
      prerr_endline "orchestrate: --seeds must be at least 1";
      exit 2
    end;
    let non_empty defaults = function [] -> defaults | l -> l in
    let grid =
      Grid.create ~topos
        ~seeds:(List.init seeds (fun i -> i + 1))
        ~traffics:(non_empty [ Core.Cli.Perm ] traffics)
        ~epses:(non_empty [ 0.05 ] epses)
        ~gaps:(non_empty [ 0.05 ] gaps)
        ~routings:(non_empty [ Dcn_serve.Request.Optimal ] routings)
        ()
    in
    let store = Core.Store.open_store cache_dir in
    let scheduler =
      {
        Scheduler.default_config with
        Scheduler.max_attempts;
        hedge_after_s = (if hedge_after <= 0.0 then None else Some hedge_after);
      }
    in
    let spawned = ref [] in
    let result =
      Fun.protect
        ~finally:(fun () -> Spawn.stop !spawned)
        (fun () ->
          let exec =
            if serial then Ok (Orchestrator.Serial, [])
            else
              match worker_urls with
              | _ :: _ ->
                  let rec parse acc = function
                    | [] -> Ok (Orchestrator.Fleet (List.rev acc), [])
                    | url :: rest -> (
                        match Worker.parse_url url with
                        | Ok e -> parse (e :: acc) rest
                        | Error msg ->
                            Error (Printf.sprintf "--worker %s: %s" url msg))
                  in
                  parse [] worker_urls
              | [] -> (
                  if workers < 1 then
                    Error "--workers must be at least 1"
                  else
                    match Spawn.find_exe () with
                    | None ->
                        Error
                          "cannot locate the dcn_served executable (set \
                           DCN_SERVED_EXE)"
                    | Some exe ->
                        (* Scratch (port files, logs) lives OUTSIDE the
                           store so serial and distributed stores stay
                           directory-diffable. *)
                        let scratch_dir =
                          Filename.concat
                            (Filename.get_temp_dir_name ())
                            (Printf.sprintf "dcn-orch.%d" (Unix.getpid ()))
                        in
                        let procs =
                          List.init workers (fun index ->
                              Spawn.start ~exe ~scratch_dir ~index
                                ~jobs:worker_jobs ~cache_dir:(Some cache_dir)
                                ~trace_buffer:(trace <> None) ())
                        in
                        spawned := procs;
                        let rec await acc = function
                          | [] -> Ok (List.rev acc)
                          | p :: rest -> (
                              match Spawn.endpoint p with
                              | Ok e -> await (e :: acc) rest
                              | Error msg -> Error msg)
                        in
                        (match await [] procs with
                        | Error msg -> Error msg
                        | Ok endpoints ->
                            let info =
                              List.map2
                                (fun p e ->
                                  ( Worker.name e,
                                    {
                                      Orchestrator.wi_pid = Some p.Spawn.pid;
                                      Orchestrator.wi_log = Some p.Spawn.log_file;
                                    } ))
                                procs endpoints
                            in
                            Ok (Orchestrator.Fleet endpoints, info)))
          in
          match exec with
          | Error msg -> Error msg
          | Ok (exec, worker_info) ->
              let total = Grid.size grid in
              let counter = ref 0 in
              let computed_seen = ref 0 in
              let on_outcome o =
                (match o.Orchestrator.o_source with
                | Orchestrator.Computed _ ->
                    incr computed_seen;
                    if chaos_kill > 0 && !computed_seen = chaos_kill then (
                      match !spawned with
                      | p :: _ ->
                          Printf.eprintf
                            "orchestrate: chaos — SIGKILL worker %d (pid %d)\n\
                             %!"
                            p.Spawn.index p.Spawn.pid;
                          Spawn.kill p
                      | [] -> ())
                | Orchestrator.From_cache -> ());
                print_outcome ~total counter o
              in
              let telemetry =
                {
                  Orchestrator.t_trace = trace;
                  t_event_log = event_log;
                  t_status = status_flag;
                  t_worker_info = worker_info;
                }
              in
              Orchestrator.run ~scheduler ~unit_timeout_s:unit_timeout ~resume
                ~telemetry ~on_outcome ~store ~grid exec)
    in
    match result with
    | Error msg ->
        prerr_endline ("orchestrate: " ^ msg);
        exit 1
    | Ok (_outcomes, summary) ->
        print_summary summary;
        Option.iter
          (fun path ->
            Core.Obs.Json.atomic_write ~path
              (Orchestrator.summary_to_json summary))
          summary_json;
        if summary.Orchestrator.failed <> [] then exit 1
  in
  let doc =
    "Expand a parameter grid into digest-keyed work units and run it to \
     completion — serially, over spawned local workers, or over a remote \
     dcn_served fleet — streaming results into a shared store with \
     retries, hedging, health-driven eviction, and crash-safe resume."
  in
  Cmd.v (Cmd.info "orchestrate" ~doc)
    Term.(
      const run $ topos_arg $ seeds_arg $ traffics_arg $ epses_arg $ gaps_arg
      $ routings_arg $ serial_arg $ workers_arg $ worker_urls_arg
      $ worker_jobs_arg $ cache_dir_required_arg $ resume_arg
      $ unit_timeout_arg $ max_attempts_arg $ hedge_after_arg
      $ summary_json_arg $ chaos_kill_arg $ event_log_arg $ status_arg
      $ obs_args)

(* ---- main ---- *)

let () =
  let doc = "throughput benchmarking of data-center topologies (NSDI'14 reproduction)" in
  let info = Cmd.info "topobench" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ throughput_cmd; aspl_cmd; spectral_cmd; compare_cmd; routing_cmd;
            failures_cmd; save_cmd; export_cmd; figure_cmd; client_cmd;
            orchestrate_cmd ]))
