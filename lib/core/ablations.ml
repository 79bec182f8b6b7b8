module Table = Dcn_util.Table
module Parallel = Dcn_util.Parallel
module Cuts = Dcn_graph.Cuts
module Topology = Dcn_topology.Topology
module Hetero = Dcn_topology.Hetero
module Rrg = Dcn_topology.Rrg
module Hypercube = Dcn_topology.Hypercube
module Torus = Dcn_topology.Torus
module Fat_tree = Dcn_topology.Fat_tree
module Traffic = Dcn_traffic.Traffic
module Commodity = Dcn_flow.Commodity
module Mcmf_exact = Dcn_flow.Mcmf_exact
module Mcmf_fptas = Dcn_flow.Mcmf_fptas
module Solve_cache = Dcn_store.Solve_cache
module Graph_metrics = Dcn_graph.Graph_metrics

let permutation_lambda scale st (topo : Topology.t) =
  let tm = Traffic.permutation st ~servers:topo.Topology.servers in
  Solve_cache.fptas_lambda ~params:scale.Scale.params topo.Topology.graph
    (Traffic.to_commodities tm)

let bisection_vs_throughput scale =
  let large = { Hetero.count = 20; ports = 24; servers_each = 8 } in
  let small = { Hetero.count = 20; ports = 24; servers_each = 8 } in
  let grid =
    if scale.Scale.dense then List.init 10 (fun i -> 0.1 *. float_of_int (i + 1))
    else [ 0.1; 0.25; 0.5; 0.75; 1.0 ]
  in
  let measure x st =
    let topo = Hetero.two_class ~cross_fraction:x st ~large ~small in
    let lambda = permutation_lambda scale st topo in
    let bisection =
      Cuts.bisection_bandwidth ~attempts:5 st topo.Topology.graph
    in
    (lambda, bisection)
  in
  let rows =
    Parallel.map
      (fun x ->
        let samples =
          Scale.samples scale ~salt:(14000 + int_of_float (x *. 100.0))
            (measure x)
        in
        (* The historical implementation accumulated runs by consing, so the
           means summed in reverse run order; reverse the sample arrays to
           keep the float results bit-identical. *)
        let rev a =
          let n = Array.length a in
          Array.init n (fun i -> a.(n - 1 - i))
        in
        ( x,
          Dcn_util.Stats.mean (rev (Array.map fst samples)),
          Dcn_util.Stats.mean (rev (Array.map snd samples)) ))
      grid
  in
  (* Normalize both series at the unbiased (x = 1) point. *)
  let _, l1, b1 =
    List.fold_left
      (fun ((bx, _, _) as best) ((x, _, _) as row) ->
        if Float.abs (x -. 1.0) < Float.abs (bx -. 1.0) then row else best)
      (List.hd rows) rows
  in
  let t =
    Table.create
      ~header:[ "cross_ratio"; "throughput_norm"; "bisection_norm" ]
  in
  List.iter
    (fun (x, l, b) -> Table.add_floats t [ x; l /. l1; b /. b1 ])
    rows;
  t

let fptas_accuracy scale =
  let t =
    Table.create
      ~header:[ "eps"; "exact"; "fptas_lower"; "fptas_upper"; "certified_gap" ]
  in
  let st = Random.State.make [| scale.Scale.seed; 14100 |] in
  let g = Rrg.jellyfish st ~n:10 ~r:3 in
  let commodities =
    [|
      Commodity.make ~src:0 ~dst:5 ~demand:1.0;
      Commodity.make ~src:2 ~dst:7 ~demand:2.0;
      Commodity.make ~src:9 ~dst:1 ~demand:1.0;
      Commodity.make ~src:4 ~dst:8 ~demand:0.5;
    |]
  in
  let exact = (Mcmf_exact.solve g commodities).Mcmf_exact.lambda in
  (* The eps ladder refines one fixed instance coarse-to-fine: exactly a
     warm chain. Each solve seeds the next with its final lengths (and
     reached eps, clamped down to the tighter request), so the ladder pays
     the eps-halving schedule once instead of once per rung. *)
  let (_ : Solve_cache.warm_link option) =
    List.fold_left
      (fun warm eps ->
        let params = { Mcmf_fptas.eps; gap = eps; max_phases = 1_000_000 } in
        let st, link =
          Solve_cache.fptas_with_state ~params ?warm g commodities
        in
        let r = st.Mcmf_fptas.result in
        Table.add_floats t
          [
            eps;
            exact;
            r.Mcmf_fptas.lambda_lower;
            r.Mcmf_fptas.lambda_upper;
            (r.Mcmf_fptas.lambda_upper /. r.Mcmf_fptas.lambda_lower) -. 1.0;
          ];
        Some link)
      None
      [ 0.2; 0.1; 0.05; 0.02 ]
  in
  t

let equal_equipment_topologies scale =
  (* 64 switches, degree 6 network ports, 4 servers each — realizable as a
     6-cube, a 4x4x4 torus, and an RRG. The k=8 fat-tree (80 switches, 128
     servers) is listed separately since Clos equipment cannot match a
     direct-connect network switch-for-switch. *)
  let t =
    Table.create ~header:[ "topology"; "switches"; "servers"; "aspl"; "lambda" ]
  in
  let add name topo =
    let lambda, _ =
      Scale.averaged scale ~salt:(14200 + Dcn_util.Stable_hash.fnv1a name) (fun st ->
          permutation_lambda scale st topo)
    in
    Table.add_row t
      [
        name;
        string_of_int (Topology.num_switches topo);
        string_of_int (Topology.num_servers topo);
        Printf.sprintf "%.3f" (Graph_metrics.aspl topo.Topology.graph);
        Printf.sprintf "%.4f" lambda;
      ]
  in
  let st = Random.State.make [| scale.Scale.seed; 14300 |] in
  add "rrg(64,d6)" (Rrg.topology st ~n:64 ~k:10 ~r:6);
  add "hypercube(6)" (Hypercube.topology ~dim:6 ~servers_per_switch:4);
  add "torus(4x4x4)" (Torus.topology ~dims:[ 4; 4; 4 ] ~servers_per_switch:4);
  add "fat-tree(k=8)" (Fat_tree.create ~k:8 ());
  let ft_equipment_rrg =
    (* Same switch count and server count as the k=8 fat-tree: 80 switches
       of 8 ports, 128 servers -> 1.6 servers/switch; use 2 on 64 switches
       and 0 on 16, approximated as uniform degree-6 network. *)
    let st2 = Random.State.make [| scale.Scale.seed; 14301 |] in
    let g = Rrg.jellyfish st2 ~n:80 ~r:6 in
    let servers = Array.init 80 (fun i -> if i < 48 then 2 else 1) in
    Topology.make ~name:"rrg(fat-tree-equipment)" ~graph:g ~servers ()
  in
  add "rrg(ft-equip)" ft_equipment_rrg;
  t

let rrg_construction scale =
  let t =
    Table.create
      ~header:[ "construction"; "n"; "r"; "aspl_mean"; "lambda_mean" ]
  in
  let cases = [ (40, 10); (80, 8) ] in
  List.iter
    (fun (n, r) ->
      List.iter
        (fun (name, construction) ->
          let aspl, _ =
            Scale.averaged scale ~salt:(14400 + n + Dcn_util.Stable_hash.fnv1a name)
              (fun st ->
                let topo = Rrg.topology ~construction st ~n ~k:(r + 5) ~r in
                Graph_metrics.aspl topo.Topology.graph)
          in
          let lambda, _ =
            Scale.averaged scale ~salt:(14500 + n + Dcn_util.Stable_hash.fnv1a name)
              (fun st ->
                let topo = Rrg.topology ~construction st ~n ~k:(r + 5) ~r in
                permutation_lambda scale st topo)
          in
          Table.add_row t
            [
              name;
              string_of_int n;
              string_of_int r;
              Printf.sprintf "%.4f" aspl;
              Printf.sprintf "%.4f" lambda;
            ])
        [ ("jellyfish", `Jellyfish); ("pairing", `Pairing) ])
    cases;
  t

let routing_restriction scale =
  let t =
    Table.create
      ~header:[ "routing"; "lambda"; "fraction_of_optimal" ]
  in
  let st = Random.State.make [| scale.Scale.seed; 14600 |] in
  let topo = Rrg.topology st ~n:32 ~k:9 ~r:6 in
  let g = topo.Topology.graph in
  let tm = Traffic.permutation st ~servers:topo.Topology.servers in
  let cs = Traffic.to_commodities tm in
  let params = scale.Scale.params in
  let optimal = Solve_cache.fptas_lambda ~params g cs in
  let add name lambda =
    Table.add_row t
      [ name; Printf.sprintf "%.4f" lambda;
        Printf.sprintf "%.3f" (lambda /. optimal) ]
  in
  add "optimal (any path)" optimal;
  let restricted paths_of name =
    add name (Dcn_flow.Mcmf_paths.lambda ~params g (paths_of cs))
  in
  restricted (Dcn_flow.Mcmf_paths.of_k_shortest g ~k:8) "8 shortest paths";
  restricted (Dcn_flow.Mcmf_paths.of_ecmp g ~limit:64) "ecmp (equal-cost only)";
  restricted (Dcn_flow.Mcmf_paths.of_k_shortest g ~k:1) "single shortest path";
  t

let incremental_expansion scale =
  let t =
    Table.create
      ~header:
        [ "switches"; "expanded_aspl"; "fresh_aspl"; "expanded_lambda";
          "fresh_lambda" ]
  in
  let params = scale.Scale.params in
  let r = 6 and servers_per = 3 in
  let lambda_of st g =
    let n = Dcn_graph.Graph.n g in
    let servers = Array.make n servers_per in
    let tm = Traffic.permutation st ~servers in
    Solve_cache.fptas_lambda ~params g (Traffic.to_commodities tm)
  in
  let st = Random.State.make [| scale.Scale.seed; 14700 |] in
  let base = Rrg.jellyfish st ~n:20 ~r in
  let steps = if scale.Scale.dense then [ 5; 10; 20; 40 ] else [ 10; 20 ] in
  List.iter
    (fun extra ->
      let expanded = Rrg.expand st base ~new_nodes:extra in
      let fresh = Rrg.jellyfish st ~n:(20 + extra) ~r in
      Table.add_floats t
        [
          float_of_int (20 + extra);
          Graph_metrics.aspl expanded;
          Graph_metrics.aspl fresh;
          lambda_of st expanded;
          lambda_of st fresh;
        ])
    steps;
  t

let local_search_gain scale =
  let t =
    Table.create
      ~header:[ "start"; "initial_aspl"; "optimized_aspl"; "cerf_bound"; "accepted" ]
  in
  let st = Random.State.make [| scale.Scale.seed; 14800 |] in
  let n = 24 and r = 4 in
  let evaluations = if scale.Scale.dense then 4000 else 1000 in
  let run name g =
    let report = Dcn_topology.Local_search.optimize ~evaluations st g in
    Table.add_row t
      [
        name;
        Printf.sprintf "%.4f" (-.report.Dcn_topology.Local_search.initial_score);
        Printf.sprintf "%.4f" (-.report.Dcn_topology.Local_search.final_score);
        Printf.sprintf "%.4f" (Dcn_bounds.Aspl_bound.d_star ~n ~r);
        string_of_int report.Dcn_topology.Local_search.accepted_swaps;
      ]
  in
  run "random regular graph" (Rrg.jellyfish st ~n ~r);
  (* A 4-regular ring lattice (each node linked to the 2 nearest on each
     side): long paths, plenty for the search to fix. *)
  let ring =
    let b = Dcn_graph.Graph.builder n in
    for u = 0 to n - 1 do
      Dcn_graph.Graph.add_edge b u ((u + 1) mod n);
      Dcn_graph.Graph.add_edge b u ((u + 2) mod n)
    done;
    Dcn_graph.Graph.freeze b
  in
  run "ring lattice" ring;
  t

let cabling scale =
  let t =
    Table.create
      ~header:
        [ "layout"; "cable_length"; "lambda" ]
  in
  let st = Random.State.make [| scale.Scale.seed; 14900 |] in
  let large = { Hetero.count = 12; ports = 10; servers_each = 4 } in
  let small = { Hetero.count = 12; ports = 10; servers_each = 4 } in
  let topo = Hetero.two_class st ~large ~small in
  let g = topo.Topology.graph in
  let placement =
    Dcn_topology.Cabling.clustered_grid ~cluster:topo.Topology.cluster
      ~spacing:1.0 ~cluster_gap:6.0
  in
  let params = scale.Scale.params in
  let lambda_of g =
    let tm = Traffic.permutation st ~servers:topo.Topology.servers in
    Solve_cache.fptas_lambda ~params g (Traffic.to_commodities tm)
  in
  let before = Dcn_topology.Cabling.cable_length g placement in
  Table.add_row t
    [ "random wiring"; Printf.sprintf "%.1f" before;
      Printf.sprintf "%.4f" (lambda_of g) ];
  let evaluations = if scale.Scale.dense then 8000 else 2000 in
  (* Cut-preserving shortening: cables shrink, C̄ fixed, throughput holds
     (the §5/§6 plateau). *)
  let safe, safe_len =
    Dcn_topology.Cabling.shorten_cables ~evaluations
      ~preserve_cut:topo.Topology.cluster st g placement
  in
  Table.add_row t
    [ "shortened (cut preserved)"; Printf.sprintf "%.1f" safe_len;
      Printf.sprintf "%.4f" (lambda_of safe) ];
  (* Unconstrained shortening: shortest cables, but it strips the very
     cross-cluster links §6 identifies as the bottleneck. *)
  let greedy, greedy_len =
    Dcn_topology.Cabling.shorten_cables ~evaluations st g placement
  in
  Table.add_row t
    [ "shortened (unconstrained)"; Printf.sprintf "%.1f" greedy_len;
      Printf.sprintf "%.4f" (lambda_of greedy) ];
  t

let structured_topologies scale =
  (* Server-centric and HPC designs vs a random graph of comparable
     equipment. Server-forwarding designs (BCube, DCell) put servers in
     the graph, so the comparison keys on total node and link counts. *)
  let t =
    Table.create
      ~header:[ "topology"; "nodes"; "servers"; "links"; "aspl"; "lambda" ]
  in
  let add name (topo : Topology.t) =
    let lambda, _ =
      Scale.averaged scale ~salt:(15000 + Dcn_util.Stable_hash.fnv1a name) (fun st ->
          permutation_lambda scale st topo)
    in
    Table.add_row t
      [
        name;
        string_of_int (Topology.num_switches topo);
        string_of_int (Topology.num_servers topo);
        string_of_int (Dcn_graph.Graph.num_edges topo.Topology.graph);
        Printf.sprintf "%.3f" (Graph_metrics.aspl topo.Topology.graph);
        Printf.sprintf "%.4f" lambda;
      ]
  in
  add "bcube(4,1)" (Dcn_topology.Bcube.create ~n:4 ~k:1);
  add "dcell(4,1)" (Dcn_topology.Dcell.create ~n:4 ~l:1);
  add "dragonfly(4,2)" (Dcn_topology.Dragonfly.create ~a:4 ~h:2 ());
  (* RRG matched to the dragonfly: 36 routers, degree 5, 2 servers each. *)
  let st = Random.State.make [| scale.Scale.seed; 15100 |] in
  add "rrg(36,d5,2srv)" (Rrg.topology st ~n:36 ~k:7 ~r:5);
  t

let spectral_vs_throughput scale =
  (* The §6.2 expander connection made measurable: spectral gap predicts
     where the throughput plateau ends as the two-cluster cut thins. *)
  let t =
    Table.create
      ~header:[ "cross_ratio"; "expansion_quality"; "lambda" ]
  in
  let large = { Hetero.count = 10; ports = 10; servers_each = 4 } in
  let small = { Hetero.count = 10; ports = 10; servers_each = 4 } in
  let grid = if scale.Scale.dense then [ 0.1; 0.2; 0.4; 0.6; 0.8; 1.0; 1.4 ]
             else [ 0.1; 0.4; 1.0; 1.4 ] in
  (* Each point's RNG stream derives from its own x-based salt, so the
     sweep parallelizes without perturbing any sample. *)
  Parallel.map
    (fun x ->
      let st = Random.State.make [| scale.Scale.seed; 15200 + int_of_float (x *. 10.0) |] in
      let topo = Hetero.two_class ~cross_fraction:x st ~large ~small in
      let g = topo.Topology.graph in
      let quality =
        match Dcn_graph.Graph.is_regular g with
        | Some _ -> Dcn_graph.Spectral.expansion_quality g
        | None -> Float.nan
      in
      let lambda = permutation_lambda scale st topo in
      [ x; quality; lambda ])
    grid
  |> List.iter (Table.add_floats t);
  t

let traffic_proportionality scale =
  (* §9 (and reference [20]): all-to-all throughput, normalized per flow,
     bounds performance under any traffic matrix within a factor of 2. We
     measure per-server delivered bandwidth λ·(flows per server) for a2a
     against several adversarial matrices on one topology. *)
  let t =
    Table.create
      ~header:[ "traffic"; "per_server_rate"; "ratio_to_a2a" ]
  in
  let st = Random.State.make [| scale.Scale.seed; 15300 |] in
  let topo = Rrg.topology st ~n:24 ~k:8 ~r:5 in
  let params = scale.Scale.params in
  (* All four matrices live on the same graph, so the sweep threads warm
     state matrix-to-matrix: the lengths encode where the topology is
     tight, which transfers even as the demand pattern changes (and the
     certificate never depends on the seed's quality). *)
  let warm = ref None in
  let rate tm =
    let solved, link =
      Solve_cache.fptas_with_state ~params ?warm:!warm topo.Topology.graph
        (Traffic.to_commodities tm)
    in
    warm := Some link;
    Dcn_flow.Gk_loop.midpoint solved.Mcmf_fptas.result
    *. float_of_int tm.Traffic.flows_per_server
  in
  let servers = topo.Topology.servers in
  let a2a = rate (Traffic.all_to_all ~servers) in
  let add name value =
    Table.add_row t
      [ name; Printf.sprintf "%.4f" value; Printf.sprintf "%.3f" (value /. a2a) ]
  in
  add "all-to-all" a2a;
  add "permutation" (rate (Traffic.permutation st ~servers));
  add "chunky-100%" (rate (Traffic.chunky st ~servers ~fraction:1.0));
  (* Hotspot receivers take many flows at once, violating the hose-model
     premise of the factor-2 claim; listed to show where the bound's
     assumptions end. *)
  add "hotspot-3 (non-hose)" (rate (Traffic.hotspot st ~servers ~targets:3));
  t

let vlb_routing scale =
  (* VL2 forwards via a random intermediate (Valiant load balancing).
     Measure how much of the fluid optimum VLB routing itself retains, on
     both VL2 and a rewired equivalent. *)
  let t =
    Table.create
      ~header:[ "topology"; "optimal"; "vlb_8_intermediates"; "retained" ]
  in
  let params = scale.Scale.params in
  let st = Random.State.make [| scale.Scale.seed; 15400 |] in
  let eval name (topo : Topology.t) =
    let tm = Traffic.permutation st ~servers:topo.Topology.servers in
    let cs = Traffic.to_commodities tm in
    let g = topo.Topology.graph in
    let optimal = Solve_cache.fptas_lambda ~params g cs in
    let vlb =
      Dcn_flow.Mcmf_paths.lambda ~params g
        (Dcn_flow.Vlb.restrict st g ~intermediates:8 cs)
    in
    Table.add_row t
      [ name; Printf.sprintf "%.4f" optimal; Printf.sprintf "%.4f" vlb;
        Printf.sprintf "%.3f" (vlb /. optimal) ]
  in
  let da = 6 and di = 8 in
  eval "vl2(6,8)" (Dcn_topology.Vl2.create ~da ~di ());
  let tors = Dcn_topology.Vl2.num_tors ~da ~di in
  eval "rewired(6,8)" (Dcn_topology.Rewire.create st ~tors ~da ~di ());
  t

let transport_comparison scale =
  (* Reno-style loss-driven vs DCTCP-style ECN-driven transport on the
     same oversubscribed rewired-VL2 instance (§9 points at DCTCP/HULL as
     the latency fix; here we check the throughput side). *)
  let t =
    Table.create
      ~header:[ "transport"; "mean_goodput"; "drops"; "vs_fluid" ]
  in
  let st = Random.State.make [| scale.Scale.seed; 15500 |] in
  let servers_per_tor, link_speed = if scale.Scale.dense then (20, 10.0) else (6, 3.0) in
  let topo =
    Dcn_topology.Rewire.create st ~servers_per_tor ~link_speed ~tors:24 ~da:6
      ~di:8 ()
  in
  let g = topo.Topology.graph in
  let tm = Traffic.permutation st ~servers:topo.Topology.servers in
  let fluid =
    Solve_cache.fptas_lambda ~params:scale.Scale.params g (Traffic.to_commodities tm)
  in
  let flows =
    Packet_experiments.flows_of_permutation g ~tm ~subflows:8
  in
  let run name config =
    let r = Dcn_packetsim.Packet_sim.run ~config g flows in
    Table.add_row t
      [
        name;
        Printf.sprintf "%.4f" r.Dcn_packetsim.Packet_sim.mean_goodput;
        string_of_int r.Dcn_packetsim.Packet_sim.total_dropped;
        Printf.sprintf "%.3f"
          (r.Dcn_packetsim.Packet_sim.mean_goodput /. Float.min 1.0 fluid);
      ]
  in
  run "reno (loss-driven)" Dcn_packetsim.Packet_sim.default_config;
  run "dctcp (ecn-driven)" Dcn_packetsim.Packet_sim.dctcp_config;
  t

let failure_resilience scale =
  (* Degrade an RRG and a fat-tree with the same server count by random
     link failures and compare throughput retention (the graceful-
     degradation argument of the random-graph line of work, §2). *)
  let t =
    Table.create
      ~header:[ "failed_fraction"; "rrg_retained"; "fat_tree_retained" ]
  in
  let params = scale.Scale.params in
  let st = Random.State.make [| scale.Scale.seed; 15600 |] in
  let ft = Fat_tree.create ~k:6 () in
  (* RRG with the fat-tree's switch count and servers (45 switches would
     do; match servers = 54, switches = 45, degree 6). *)
  let rrg_graph = Rrg.jellyfish st ~n:45 ~r:6 in
  let rrg_servers = Array.init 45 (fun i -> if i < 9 then 2 else 1) in
  let rrg =
    Topology.make ~name:"rrg(ft6-equip)" ~graph:rrg_graph ~servers:rrg_servers ()
  in
  (* A fixed permutation per topology so "retained" ratios compare the
     same workload before and after failures. Each topology gets one
     baseline solve; every failed fraction then re-solves the masked
     survivor graph from that state's demand scale and dual bound. *)
  let commodities_of (topo : Topology.t) =
    let tm_st = Random.State.make [| scale.Scale.seed; 15601 |] in
    let tm = Traffic.permutation tm_st ~servers:topo.Topology.servers in
    Traffic.to_commodities tm
  in
  let midpoint = Dcn_flow.Gk_loop.midpoint in
  let baseline (topo : Topology.t) =
    let cs = commodities_of topo in
    let solved, link =
      Solve_cache.fptas_with_state ~params topo.Topology.graph cs
    in
    (cs, link, midpoint solved.Mcmf_fptas.result)
  in
  let cs_rrg, warm_rrg, base_rrg = baseline rrg in
  let cs_ft, warm_ft, base_ft = baseline ft in
  let fractions =
    if scale.Scale.dense then [ 0.0; 0.05; 0.1; 0.15; 0.2; 0.3 ]
    else [ 0.0; 0.1; 0.2 ]
  in
  List.iter
    (fun fraction ->
      if Float.equal fraction 0.0 then
        (* Nothing failed: retention is 1 by definition; re-solving the
           baseline would only round-trip the same certificate. *)
        Table.add_floats t [ 0.0; 1.0; 1.0 ]
      else begin
        let retained (topo : Topology.t) cs warm base =
          let masked, failed =
            Dcn_topology.Resilience.fail_arcs_connected st topo.Topology.graph
              ~fraction
          in
          let solved, _ =
            Solve_cache.fptas_delta ~params ~warm ~failed masked cs
          in
          midpoint solved.Mcmf_fptas.result /. base
        in
        Table.add_floats t
          [ fraction; retained rrg cs_rrg warm_rrg base_rrg;
            retained ft cs_ft warm_ft base_ft ]
      end)
    fractions;
  t

let multi_class_placement scale =
  (* The paper's future-work item (c): more than two switch classes. With
     three classes, port-proportional placement (beta = 1) still wins. *)
  let t = Table.create ~header:[ "beta"; "normalized_throughput" ] in
  let classes =
    [
      { Hetero.count = 10; ports = 24; servers_each = 0 };
      { Hetero.count = 15; ports = 16; servers_each = 0 };
      { Hetero.count = 20; ports = 8; servers_each = 0 };
    ]
  in
  let total_servers = 200 in
  let params = scale.Scale.params in
  let betas =
    if scale.Scale.dense then [ 0.0; 0.25; 0.5; 0.75; 1.0; 1.25; 1.5 ]
    else [ 0.0; 0.5; 1.0; 1.5 ]
  in
  let rows =
    Parallel.map
      (fun beta ->
        let mean, _ =
          Scale.averaged scale ~salt:(15700 + int_of_float (beta *. 100.0))
            (fun st ->
              let topo = Hetero.multi_class ~beta ~total_servers st classes in
              let tm = Traffic.permutation st ~servers:topo.Topology.servers in
              Solve_cache.fptas_lambda ~params topo.Topology.graph
                (Traffic.to_commodities tm))
        in
        (beta, mean))
      betas
  in
  let peak = List.fold_left (fun acc (_, y) -> Float.max acc y) 0.0 rows in
  List.iter (fun (beta, y) -> Table.add_floats t [ beta; y /. peak ]) rows;
  t
