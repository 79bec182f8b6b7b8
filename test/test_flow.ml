(* Tests for max-flow, exact MCMF, the FPTAS, and throughput metrics. *)

open Dcn_graph
open Dcn_flow

let tight_params = { Mcmf_fptas.eps = 0.05; gap = 0.03; max_phases = 1_000_000 }

(* ---- Commodity ---- *)

let test_commodity_validation () =
  Alcotest.check_raises "src=dst" (Invalid_argument "Commodity.make: src = dst")
    (fun () -> ignore (Commodity.make ~src:1 ~dst:1 ~demand:1.0));
  Alcotest.check_raises "zero demand"
    (Invalid_argument "Commodity.make: demand must be positive") (fun () ->
      ignore (Commodity.make ~src:0 ~dst:1 ~demand:0.0));
  (* An infinite demand used to reach the FPTAS and come back as a NaN
     interval. *)
  Alcotest.check_raises "infinite demand"
    (Invalid_argument "Commodity.make: demand must be finite") (fun () ->
      ignore (Commodity.make ~src:0 ~dst:5 ~demand:infinity))

let test_commodity_grouping () =
  let cs =
    [|
      Commodity.make ~src:0 ~dst:1 ~demand:1.0;
      Commodity.make ~src:0 ~dst:1 ~demand:2.0;
      Commodity.make ~src:0 ~dst:2 ~demand:1.0;
      Commodity.make ~src:3 ~dst:0 ~demand:4.0;
    |]
  in
  let groups = Commodity.group_by_source ~n:4 cs in
  Alcotest.(check int) "two sources" 2 (Array.length groups);
  let s0, d0 = groups.(0) in
  Alcotest.(check int) "source 0" 0 s0;
  Alcotest.(check (list (pair int (float 1e-9))))
    "merged demands" [ (1, 3.0); (2, 1.0) ] d0;
  Alcotest.(check (float 1e-9)) "total" 8.0 (Commodity.total_demand cs)

(* ---- Max flow ---- *)

let diamond () =
  (* 0 -> {1,2} -> 3, all capacity 1: max flow 2. *)
  Graph.of_edges 4 [ (0, 1, 1.0); (0, 2, 1.0); (1, 3, 1.0); (2, 3, 1.0) ]

let test_maxflow_diamond () =
  let r = Maxflow.max_flow (diamond ()) ~src:0 ~dst:3 in
  Alcotest.(check (float 1e-9)) "value" 2.0 r.Maxflow.value

let test_maxflow_bottleneck () =
  let g =
    Graph.of_edges 4 [ (0, 1, 5.0); (1, 2, 0.5); (2, 3, 5.0) ]
  in
  Alcotest.(check (float 1e-9)) "bottleneck" 0.5
    (Maxflow.min_cut_value g ~src:0 ~dst:3)

let test_maxflow_cut_side () =
  let g = Graph.of_edges 4 [ (0, 1, 5.0); (1, 2, 0.5); (2, 3, 5.0) ] in
  let r = Maxflow.max_flow g ~src:0 ~dst:3 in
  Alcotest.(check bool) "src in cut" true r.Maxflow.cut_side.(0);
  Alcotest.(check bool) "dst not in cut" false r.Maxflow.cut_side.(3);
  (* The cut capacity equals the flow value. *)
  let cut = Dcn_graph.Cuts.cut_capacity g ~side:r.Maxflow.cut_side /. 2.0 in
  Alcotest.(check (float 1e-9)) "mincut = maxflow" r.Maxflow.value cut

let test_maxflow_conservation () =
  let g = diamond () in
  let r = Maxflow.max_flow g ~src:0 ~dst:3 in
  (* Flow conservation at interior nodes. *)
  for v = 1 to 2 do
    let net = ref 0.0 in
    Graph.iter_arcs g (fun a ->
        if Graph.arc_src g a = v then net := !net -. r.Maxflow.flow.(a);
        if Graph.arc_dst g a = v then net := !net +. r.Maxflow.flow.(a));
    Alcotest.(check (float 1e-9)) "conserved" 0.0 !net
  done

let test_maxflow_same_endpoint_rejected () =
  Alcotest.check_raises "src=dst" (Invalid_argument "Maxflow: src = dst")
    (fun () -> ignore (Maxflow.max_flow (diamond ()) ~src:1 ~dst:1))

(* ---- Exact MCMF ---- *)

let test_exact_single_commodity_equals_maxflow () =
  let g = diamond () in
  let r = Mcmf_exact.solve g [| Commodity.make ~src:0 ~dst:3 ~demand:1.0 |] in
  Alcotest.(check (float 1e-6)) "lambda = maxflow" 2.0 r.Mcmf_exact.lambda

let test_exact_two_commodities_share () =
  (* Single link 0-1 of capacity 1 shared by two opposing unit demands:
     each direction has its own capacity, so both get 1. *)
  let g = Graph.of_edges 2 [ (0, 1, 1.0) ] in
  let cs =
    [|
      Commodity.make ~src:0 ~dst:1 ~demand:1.0;
      Commodity.make ~src:1 ~dst:0 ~demand:1.0;
    |]
  in
  let r = Mcmf_exact.solve g cs in
  Alcotest.(check (float 1e-6)) "full both ways" 1.0 r.Mcmf_exact.lambda

let test_exact_contention () =
  (* Two commodities, same direction, one unit link: each gets 1/2. *)
  let g = Graph.of_edges 3 [ (0, 1, 1.0); (1, 2, 1.0) ] in
  let cs =
    [|
      Commodity.make ~src:0 ~dst:2 ~demand:1.0;
      Commodity.make ~src:1 ~dst:2 ~demand:1.0;
    |]
  in
  let r = Mcmf_exact.solve g cs in
  Alcotest.(check (float 1e-6)) "shared bottleneck" 0.5 r.Mcmf_exact.lambda

let test_exact_respects_capacities () =
  let g = diamond () in
  let cs =
    [|
      Commodity.make ~src:0 ~dst:3 ~demand:1.0;
      Commodity.make ~src:1 ~dst:2 ~demand:1.0;
    |]
  in
  let r = Mcmf_exact.solve g cs in
  Graph.iter_arcs g (fun a ->
      if r.Mcmf_exact.arc_flow.(a) > Graph.arc_cap g a +. 1e-6 then
        Alcotest.fail "capacity violated")

(* ---- FPTAS ---- *)

let test_fptas_brackets_exact () =
  let st = Random.State.make [| 11 |] in
  let g = Dcn_topology.Rrg.jellyfish st ~n:12 ~r:3 in
  let cs =
    [|
      Commodity.make ~src:0 ~dst:6 ~demand:1.0;
      Commodity.make ~src:3 ~dst:9 ~demand:2.0;
      Commodity.make ~src:11 ~dst:2 ~demand:1.5;
    |]
  in
  let exact = (Mcmf_exact.solve g cs).Mcmf_exact.lambda in
  let r = Mcmf_fptas.solve ~params:tight_params g cs in
  Alcotest.(check bool) "lower <= exact" true
    (r.Mcmf_fptas.lambda_lower <= exact +. 1e-6);
  Alcotest.(check bool) "exact <= upper" true
    (exact <= r.Mcmf_fptas.lambda_upper +. 1e-6);
  if r.Mcmf_fptas.converged then
    Alcotest.(check bool) "gap certified" true
      (r.Mcmf_fptas.lambda_upper
      <= (1.0 +. tight_params.Mcmf_fptas.gap) *. r.Mcmf_fptas.lambda_lower +. 1e-9)

let test_fptas_flow_feasible () =
  let st = Random.State.make [| 13 |] in
  let g = Dcn_topology.Rrg.jellyfish st ~n:16 ~r:4 in
  let cs =
    [|
      Commodity.make ~src:0 ~dst:8 ~demand:1.0;
      Commodity.make ~src:5 ~dst:12 ~demand:1.0;
    |]
  in
  let r = Mcmf_fptas.solve ~params:tight_params g cs in
  Graph.iter_arcs g (fun a ->
      if r.Mcmf_fptas.arc_flow.(a) > Graph.arc_cap g a +. 1e-9 then
        Alcotest.fail "arc over capacity")

let test_fptas_single_commodity_vs_dinic () =
  let st = Random.State.make [| 17 |] in
  let g = Dcn_topology.Rrg.jellyfish st ~n:20 ~r:4 in
  let mf = (Maxflow.max_flow g ~src:0 ~dst:10).Maxflow.value in
  let r =
    Mcmf_fptas.solve ~params:tight_params g
      [| Commodity.make ~src:0 ~dst:10 ~demand:1.0 |]
  in
  Alcotest.(check bool) "brackets dinic" true
    (r.Mcmf_fptas.lambda_lower <= mf +. 1e-6
    && mf <= r.Mcmf_fptas.lambda_upper +. 1e-6)

let test_fptas_disconnected_rejected () =
  let g = Graph.of_edges 4 [ (0, 1, 1.0); (2, 3, 1.0) ] in
  let cs = [| Commodity.make ~src:0 ~dst:3 ~demand:1.0 |] in
  (* Raised either by demand pre-scaling or by routing. *)
  (match Mcmf_fptas.solve g cs with
  | _ -> Alcotest.fail "expected failure"
  | exception Invalid_argument _ -> ())

let test_fptas_no_commodities_rejected () =
  let g = diamond () in
  Alcotest.check_raises "empty" (Invalid_argument "Mcmf_fptas: no commodities")
    (fun () -> ignore (Mcmf_fptas.solve g [||]))

(* Metrics are process-global: enable them for [f] only and zero what it
   recorded, so other suites see the registry as they left it. *)
let with_metrics f =
  Dcn_obs.Metrics.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Dcn_obs.Metrics.set_enabled false;
      Dcn_obs.Metrics.reset ())

let counter name = Dcn_obs.Metrics.counter_value (Dcn_obs.Metrics.snapshot ()) name

let test_fptas_routes_on_stored_paths () =
  (* Every phase after a dual check starts on the sweep's stored paths, so
     many sources route without a tree of their own. Without the reuse each
     phase costs one sweep tree plus one routing tree per source group,
     i.e. at least 2 * groups * phases Dijkstra runs. 12 servers per
     switch, as in the benchmark's rrg:200,24,12, keeps each scaled demand
     below a link's capacity; with demands above it a commodity splits
     over several paths per phase and every split goes stale at once. *)
  let st = Random.State.make [| 7 |] in
  let topo = Dcn_topology.Rrg.topology st ~n:40 ~k:22 ~r:10 in
  let g = topo.Dcn_topology.Topology.graph in
  let cs =
    Dcn_traffic.Traffic.to_commodities
      (Dcn_traffic.Traffic.permutation st
         ~servers:topo.Dcn_topology.Topology.servers)
  in
  let groups = Array.length (Commodity.group_by_source ~n:(Graph.n g) cs) in
  let params = { tight_params with Mcmf_fptas.gap = 0.05 } in
  with_metrics (fun () ->
      let r = Mcmf_fptas.solve ~params g cs in
      let phases = r.Mcmf_fptas.phases in
      Alcotest.(check bool) "converged" true r.Mcmf_fptas.converged;
      Alcotest.(check bool) "gap certified" true
        (r.Mcmf_fptas.lambda_upper
        <= (1.0 +. params.Mcmf_fptas.gap) *. r.Mcmf_fptas.lambda_lower +. 1e-9);
      Alcotest.(check bool) "stored paths used" true
        (counter "fptas.paths_reused" > 0);
      let runs = counter "dijkstra.runs" in
      Alcotest.(check bool)
        (Printf.sprintf "%d runs < 2 * %d groups * %d phases" runs groups phases)
        true
        (runs < 2 * groups * phases))

let test_fptas_stale_stored_path_rebuilds () =
  (* One source feeding three destinations over a sparse graph: routing
     the group's first commodities lengthens arcs its later stored paths
     share, so some stored path goes stale and the group switches to a
     fresh tree. The certificate must still bracket the LP optimum. *)
  let st = Random.State.make [| 11 |] in
  let g = Dcn_topology.Rrg.jellyfish st ~n:12 ~r:3 in
  let cs =
    [|
      Commodity.make ~src:0 ~dst:6 ~demand:1.0;
      Commodity.make ~src:0 ~dst:9 ~demand:2.0;
      Commodity.make ~src:0 ~dst:4 ~demand:1.0;
      Commodity.make ~src:11 ~dst:2 ~demand:1.5;
    |]
  in
  let exact = (Mcmf_exact.solve g cs).Mcmf_exact.lambda in
  with_metrics (fun () ->
      let r = Mcmf_fptas.solve ~params:tight_params g cs in
      Alcotest.(check bool) "stale branch taken" true
        (counter "fptas.tree_rebuilds" > 0);
      Alcotest.(check bool) "brackets exact" true
        (r.Mcmf_fptas.lambda_lower <= exact +. 1e-6
        && exact <= r.Mcmf_fptas.lambda_upper +. 1e-6))

(* Property: FPTAS interval always brackets the exact LP optimum on random
   small instances. *)
let prop_fptas_brackets =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 1 10_000 in
      let* k = int_range 1 4 in
      return (seed, k))
  in
  QCheck.Test.make ~name:"FPTAS brackets exact optimum" ~count:25
    (QCheck.make gen)
    (fun (seed, k) ->
      let st = Random.State.make [| seed |] in
      let g = Dcn_topology.Rrg.jellyfish st ~n:10 ~r:3 in
      let cs =
        Array.init k (fun i ->
            let src = Random.State.int st 10 in
            let dst = (src + 1 + Random.State.int st 9) mod 10 in
            Commodity.make ~src ~dst
              ~demand:(1.0 +. float_of_int i))
      in
      let exact = (Mcmf_exact.solve g cs).Mcmf_exact.lambda in
      let r = Mcmf_fptas.solve ~params:tight_params g cs in
      r.Mcmf_fptas.lambda_lower <= exact +. 1e-6
      && exact <= r.Mcmf_fptas.lambda_upper +. 1e-6)

(* ---- Throughput metrics ---- *)

let test_throughput_decomposition_identity () =
  (* T = C·U / (⟨D⟩·AS·f) must hold by construction of the metrics. *)
  let st = Random.State.make [| 23 |] in
  let g = Dcn_topology.Rrg.jellyfish st ~n:16 ~r:4 in
  let cs =
    [|
      Commodity.make ~src:0 ~dst:8 ~demand:1.0;
      Commodity.make ~src:3 ~dst:12 ~demand:1.0;
      Commodity.make ~src:14 ~dst:2 ~demand:1.0;
    |]
  in
  let t = Throughput.compute ~solver:(Throughput.Fptas tight_params) g cs in
  let capacity = Graph.total_capacity g in
  let f = Commodity.total_demand cs in
  let reconstructed =
    capacity *. t.Throughput.utilization
    /. (t.Throughput.mean_shortest_path *. t.Throughput.stretch *. f)
  in
  Alcotest.(check (float 1e-6)) "decomposition identity"
    t.Throughput.lambda reconstructed

let test_throughput_stretch_at_least_one () =
  let st = Random.State.make [| 29 |] in
  let g = Dcn_topology.Rrg.jellyfish st ~n:14 ~r:4 in
  let cs = [| Commodity.make ~src:0 ~dst:7 ~demand:1.0 |] in
  let t = Throughput.compute ~solver:(Throughput.Fptas tight_params) g cs in
  Alcotest.(check bool) "stretch >= ~1" true (t.Throughput.stretch >= 0.99)

let test_class_utilization () =
  let g = Graph.of_edges 3 [ (0, 1, 1.0); (1, 2, 2.0) ] in
  let arc_flow = Array.make (Graph.num_arcs g) 0.0 in
  (* Fully use 0-1 forward only; half-use 1-2 both directions. *)
  Graph.iter_arcs g (fun a ->
      let u = Graph.arc_src g a and v = Graph.arc_dst g a in
      if (u, v) = (0, 1) then arc_flow.(a) <- 1.0;
      if (u = 1 && v = 2) || (u = 2 && v = 1) then arc_flow.(a) <- 1.0);
  let cluster = [| 0; 0; 1 |] in
  let per_class = Throughput.class_utilization g ~arc_flow ~cluster in
  Alcotest.(check (list (pair (pair int int) (float 1e-9))))
    "per-class utilization"
    [ ((0, 0), 0.5); ((0, 1), 0.5) ]
    per_class

let suite =
  ( "flow",
    [
      Alcotest.test_case "commodity validation" `Quick test_commodity_validation;
      Alcotest.test_case "commodity grouping" `Quick test_commodity_grouping;
      Alcotest.test_case "maxflow diamond" `Quick test_maxflow_diamond;
      Alcotest.test_case "maxflow bottleneck" `Quick test_maxflow_bottleneck;
      Alcotest.test_case "min cut certificate" `Quick test_maxflow_cut_side;
      Alcotest.test_case "maxflow conservation" `Quick test_maxflow_conservation;
      Alcotest.test_case "maxflow arg checks" `Quick
        test_maxflow_same_endpoint_rejected;
      Alcotest.test_case "exact = maxflow (1 commodity)" `Quick
        test_exact_single_commodity_equals_maxflow;
      Alcotest.test_case "exact: opposing directions" `Quick
        test_exact_two_commodities_share;
      Alcotest.test_case "exact: fair contention" `Quick test_exact_contention;
      Alcotest.test_case "exact: capacities respected" `Quick
        test_exact_respects_capacities;
      Alcotest.test_case "fptas brackets exact" `Quick test_fptas_brackets_exact;
      Alcotest.test_case "fptas flow feasible" `Quick test_fptas_flow_feasible;
      Alcotest.test_case "fptas vs dinic" `Quick
        test_fptas_single_commodity_vs_dinic;
      Alcotest.test_case "fptas rejects disconnected" `Quick
        test_fptas_disconnected_rejected;
      Alcotest.test_case "fptas rejects empty input" `Quick
        test_fptas_no_commodities_rejected;
      Alcotest.test_case "fptas routes on stored paths" `Quick
        test_fptas_routes_on_stored_paths;
      Alcotest.test_case "fptas stale stored path rebuilds" `Quick
        test_fptas_stale_stored_path_rebuilds;
      QCheck_alcotest.to_alcotest prop_fptas_brackets;
      Alcotest.test_case "decomposition identity" `Quick
        test_throughput_decomposition_identity;
      Alcotest.test_case "stretch >= 1" `Quick test_throughput_stretch_at_least_one;
      Alcotest.test_case "class utilization" `Quick test_class_utilization;
    ] )
