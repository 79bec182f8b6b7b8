(** Public facade of the reproduction library.

    Downstream code can reach every subsystem through this single module:

    {[
      let st = Random.State.make [| 1 |] in
      let topo = Core.Rrg.topology st ~n:40 ~k:15 ~r:10 in
      let tm = Core.Traffic.permutation st ~servers:topo.Core.Topology.servers in
      let t = Core.Throughput.compute topo.Core.Topology.graph
                (Core.Traffic.to_commodities tm) in
      Format.printf "throughput = %.3f@." t.Core.Throughput.lambda
    ]}

    The experiment drivers regenerating the paper's figures live in
    {!Experiments}, {!Hetero_experiments}, {!Vl2_study},
    {!Packet_experiments} and {!Ablations}; {!Figures} is their one
    registry, with the compute/record/replay pipeline both figure front
    ends share. *)

(* Substrate re-exports. *)
module Graph = Dcn_graph.Graph
module Bfs = Dcn_graph.Bfs
module Dijkstra = Dcn_graph.Dijkstra
module Graph_metrics = Dcn_graph.Graph_metrics
module Cuts = Dcn_graph.Cuts
module Spectral = Dcn_graph.Spectral
module Simplex = Dcn_lp.Simplex
module Commodity = Dcn_flow.Commodity
module Gk_loop = Dcn_flow.Gk_loop
module Maxflow = Dcn_flow.Maxflow
module Mcmf_exact = Dcn_flow.Mcmf_exact
module Mcmf_fptas = Dcn_flow.Mcmf_fptas
module Mcmf_paths = Dcn_flow.Mcmf_paths
module Vlb = Dcn_flow.Vlb
module Throughput = Dcn_flow.Throughput
module Traffic = Dcn_traffic.Traffic
module Topology = Dcn_topology.Topology
module Rrg = Dcn_topology.Rrg
module Hetero = Dcn_topology.Hetero
module Vl2 = Dcn_topology.Vl2
module Rewire = Dcn_topology.Rewire
module Fat_tree = Dcn_topology.Fat_tree
module Hypercube = Dcn_topology.Hypercube
module Torus = Dcn_topology.Torus
module Bcube = Dcn_topology.Bcube
module Dcell = Dcn_topology.Dcell
module Dragonfly = Dcn_topology.Dragonfly
module Wiring = Dcn_topology.Wiring
module Local_search = Dcn_topology.Local_search
module Resilience = Dcn_topology.Resilience
module Cabling = Dcn_topology.Cabling
module Aspl_bound = Dcn_bounds.Aspl_bound
module Throughput_bound = Dcn_bounds.Throughput_bound
module Cut_bound = Dcn_bounds.Cut_bound
module Ksp = Dcn_routing.Ksp
module Ecmp = Dcn_routing.Ecmp
module Topology_io = Dcn_io.Topology_io
module Traffic_io = Dcn_io.Traffic_io
module Packet_sim = Dcn_packetsim.Packet_sim
module Store = Dcn_store.Store
module Digest_key = Dcn_store.Digest_key
module Solve_cache = Dcn_store.Solve_cache
module Manifest = Dcn_store.Manifest
module Obs = Dcn_obs
module Stats = Dcn_util.Stats
module Float_text = Dcn_util.Float_text
module Table = Dcn_util.Table
module Sampling = Dcn_util.Sampling
module Parallel = Dcn_util.Parallel
module Pool = Dcn_util.Pool

(* Experiment drivers (sibling modules of this library). *)
module Cli = Cli
module Scale = Scale
module Experiments = Experiments
module Hetero_experiments = Hetero_experiments
module Vl2_study = Vl2_study
module Packet_experiments = Packet_experiments
module Ablations = Ablations
module Figures = Figures
