(* Aggregated test runner: one Alcotest suite per module under test. *)

let () =
  Alcotest.run "dcn-topology-design"
    [
      Test_util.suite;
      Test_obs.suite;
      Test_pool.suite;
      Test_graph.suite;
      Test_paths.suite;
      Test_simplex.suite;
      Test_flow.suite;
      Test_traffic.suite;
      Test_wiring.suite;
      Test_topologies.suite;
      Test_bounds.suite;
      Test_routing.suite;
      Test_path_oracle.suite;
      Test_packetsim.suite;
      Test_cuts.suite;
      Test_extensions.suite;
      Test_structured_topologies.suite;
      Test_io.suite;
      Test_store.suite;
      Test_figures.suite;
      Test_vlb.suite;
      Test_edge_cases.suite;
      Test_resilience.suite;
      Test_warm.suite;
      Test_pins.suite;
      Test_window.suite;
      Test_schedule.suite;
      Test_parallel_sweep.suite;
      Test_properties.suite;
      Test_serve.suite;
      Test_engine.suite;
      Test_orchestrate.suite;
      Test_lint.suite;
      Test_documents.suite;
      Test_integration.suite;
    ]
