(* Tests for the extension modules: path-restricted concurrent flow,
   incremental expansion, local search, and cabling. *)

open Dcn_graph
module Mcmf_paths = Dcn_flow.Mcmf_paths
module Mcmf_fptas = Dcn_flow.Mcmf_fptas
module Mcmf_exact = Dcn_flow.Mcmf_exact
module Commodity = Dcn_flow.Commodity
module Rrg = Dcn_topology.Rrg
module Local_search = Dcn_topology.Local_search
module Cabling = Dcn_topology.Cabling
module Ksp = Dcn_routing.Ksp

let st () = Random.State.make [| 515 |]

let tight = { Mcmf_fptas.eps = 0.05; gap = 0.03; max_phases = 100_000 }

(* ---- Mcmf_paths ---- *)

let diamond () =
  Graph.of_edges 4 [ (0, 1, 1.0); (0, 2, 1.0); (1, 3, 1.0); (2, 3, 1.0) ]

let test_paths_two_disjoint () =
  (* Both 2-hop paths available: rate 2 (like unrestricted max-flow). *)
  let g = diamond () in
  let paths = Ksp.k_shortest g ~src:0 ~dst:3 ~k:2 in
  let cs = [| { Mcmf_paths.src = 0; dst = 3; demand = 1.0; paths } |] in
  let r = Mcmf_paths.solve ~params:tight g cs in
  Alcotest.(check bool) "≈2" true
    (r.Mcmf_paths.lambda_lower > 1.9 && r.Mcmf_paths.lambda_upper < 2.1)

let test_paths_single_path_halves () =
  (* Restricted to one path, the second disjoint path is wasted. *)
  let g = diamond () in
  let paths = [ List.hd (Ksp.k_shortest g ~src:0 ~dst:3 ~k:1) ] in
  let cs = [| { Mcmf_paths.src = 0; dst = 3; demand = 1.0; paths } |] in
  let r = Mcmf_paths.solve ~params:tight g cs in
  Alcotest.(check bool) "≈1" true
    (r.Mcmf_paths.lambda_lower > 0.95 && r.Mcmf_paths.lambda_upper < 1.05)

let test_paths_never_beat_unrestricted () =
  let stt = st () in
  let g = Rrg.jellyfish stt ~n:20 ~r:4 in
  let cs =
    [|
      Commodity.make ~src:0 ~dst:10 ~demand:1.0;
      Commodity.make ~src:5 ~dst:15 ~demand:1.0;
      Commodity.make ~src:3 ~dst:18 ~demand:2.0;
    |]
  in
  let unrestricted = (Mcmf_fptas.solve ~params:tight g cs).Mcmf_fptas.lambda_upper in
  let restricted =
    Mcmf_paths.solve ~params:tight g (Mcmf_paths.of_k_shortest g ~k:4 cs)
  in
  Alcotest.(check bool) "restricted <= unrestricted (within gaps)" true
    (restricted.Mcmf_paths.lambda_lower <= unrestricted +. 1e-6)

let test_paths_more_paths_help () =
  let stt = st () in
  let g = Rrg.jellyfish stt ~n:24 ~r:4 in
  let tm =
    Dcn_traffic.Traffic.permutation stt ~servers:(Array.make 24 3)
  in
  let cs = Dcn_traffic.Traffic.to_commodities tm in
  let lam k =
    (Mcmf_paths.solve ~params:tight g (Mcmf_paths.of_k_shortest g ~k cs))
      .Mcmf_paths.lambda_lower
  in
  let one = lam 1 and eight = lam 8 in
  Alcotest.(check bool) "8 paths >= 1 path" true (eight >= one -. 1e-6)

let test_paths_flow_feasible () =
  let g = diamond () in
  let paths = Ksp.k_shortest g ~src:0 ~dst:3 ~k:2 in
  let cs = [| { Mcmf_paths.src = 0; dst = 3; demand = 1.0; paths } |] in
  let r = Mcmf_paths.solve ~params:tight g cs in
  Graph.iter_arcs g (fun a ->
      if r.Mcmf_paths.arc_flow.(a) > Graph.arc_cap g a +. 1e-9 then
        Alcotest.fail "over capacity")

let test_paths_validation () =
  let g = diamond () in
  Alcotest.check_raises "no paths"
    (Invalid_argument "Mcmf_paths: commodity without paths") (fun () ->
      ignore
        (Mcmf_paths.solve g [| { Mcmf_paths.src = 0; dst = 3; demand = 1.0; paths = [] } |]));
  let wrong = [ [ 0 (* arc 0 is 0->1, not reaching 3 *) ] ] in
  Alcotest.check_raises "path misses dst"
    (Invalid_argument "Mcmf_paths: path misses dst") (fun () ->
      ignore
        (Mcmf_paths.solve g
           [| { Mcmf_paths.src = 0; dst = 3; demand = 1.0; paths = wrong } |]));
  (* An infinite demand used to make the routing loop spin forever: the
     remaining demand never dropped, and cancellation is only checked
     between phases. *)
  let paths = Ksp.k_shortest g ~src:0 ~dst:3 ~k:2 in
  Alcotest.check_raises "infinite demand"
    (Invalid_argument "Mcmf_paths: non-finite demand") (fun () ->
      ignore
        (Mcmf_paths.solve g
           [| { Mcmf_paths.src = 0; dst = 3; demand = infinity; paths } |]))

(* Both solvers run on the same phase loop, so both reject the same
   out-of-range parameters (the path solver used to run its whole phase
   budget on eps = 1.5). *)
let test_paths_params_validated () =
  let g = diamond () in
  let paths = Ksp.k_shortest g ~src:0 ~dst:3 ~k:2 in
  let bad = { Mcmf_fptas.eps = 1.5; gap = 0.05; max_phases = 1000 } in
  let expected = Invalid_argument "Gk_loop: eps out of (0,1)" in
  Alcotest.check_raises "paths" expected (fun () ->
      ignore
        (Mcmf_paths.solve ~params:bad g
           [| { Mcmf_paths.src = 0; dst = 3; demand = 1.0; paths } |]));
  Alcotest.check_raises "fptas" expected (fun () ->
      ignore
        (Mcmf_fptas.solve ~params:bad g
           [| Commodity.make ~src:0 ~dst:3 ~demand:1.0 |]))

let test_paths_vs_exact_when_paths_cover () =
  (* On a tree there is a unique path per pair: restricted = unrestricted
     = exact. *)
  let g = Graph.of_edges 4 [ (0, 1, 1.0); (1, 2, 1.0); (1, 3, 1.0) ] in
  let cs_raw =
    [|
      Commodity.make ~src:0 ~dst:2 ~demand:1.0;
      Commodity.make ~src:3 ~dst:2 ~demand:1.0;
    |]
  in
  let exact = (Mcmf_exact.solve g cs_raw).Mcmf_exact.lambda in
  let restricted =
    Mcmf_paths.solve ~params:tight g (Mcmf_paths.of_k_shortest g ~k:3 cs_raw)
  in
  Alcotest.(check bool) "brackets exact" true
    (restricted.Mcmf_paths.lambda_lower <= exact +. 1e-6
    && exact <= restricted.Mcmf_paths.lambda_upper +. 1e-6)

(* ---- Rrg.expand ---- *)

let test_expand_preserves_regularity () =
  let stt = st () in
  let g = Rrg.jellyfish stt ~n:20 ~r:6 in
  let g' = Rrg.expand stt g ~new_nodes:10 in
  Alcotest.(check int) "node count" 30 (Graph.n g');
  Alcotest.(check (option int)) "still 6-regular" (Some 6) (Graph.is_regular g');
  Alcotest.(check bool) "connected" true (Graph.is_connected g');
  Alcotest.(check bool) "simple" false (Graph.has_multi_edge g')

let test_expand_zero_nodes () =
  let stt = st () in
  let g = Rrg.jellyfish stt ~n:12 ~r:4 in
  let g' = Rrg.expand stt g ~new_nodes:0 in
  Alcotest.(check bool) "unchanged" true (Graph.equal_structure g g')

let test_expand_rejects_odd_degree () =
  let stt = st () in
  let g = Rrg.jellyfish stt ~n:12 ~r:3 in
  Alcotest.check_raises "odd degree"
    (Invalid_argument "Rrg.expand: degree must be even to splice") (fun () ->
      ignore (Rrg.expand stt g ~new_nodes:1))

let test_expand_many_steps () =
  (* Repeated growth keeps the invariants (the §2 incremental-expansion
     story). *)
  let stt = st () in
  let g = ref (Rrg.jellyfish stt ~n:10 ~r:4) in
  for _ = 1 to 15 do
    g := Rrg.expand stt !g ~new_nodes:1;
    if Graph.is_regular !g <> Some 4 then Alcotest.fail "regularity lost";
    if not (Graph.is_connected !g) then Alcotest.fail "disconnected"
  done;
  Alcotest.(check int) "final size" 25 (Graph.n !g)

(* ---- Local_search ---- *)

let test_local_search_monotone () =
  let stt = st () in
  let g = Rrg.jellyfish stt ~n:16 ~r:4 in
  let report = Local_search.optimize ~evaluations:300 stt g in
  Alcotest.(check bool) "score never worsens" true
    (report.Local_search.final_score >= report.Local_search.initial_score);
  Alcotest.(check (option int)) "degrees preserved" (Some 4)
    (Graph.is_regular report.Local_search.graph);
  Alcotest.(check bool) "still connected" true
    (Graph.is_connected report.Local_search.graph)

let test_local_search_fixes_ring () =
  (* A 2-regular ring has ASPL ~ n/4; local search should cut it down
     markedly toward the random-graph value. *)
  let n = 20 in
  let b = Graph.builder n in
  for u = 0 to n - 1 do
    Graph.add_edge b u ((u + 1) mod n);
    Graph.add_edge b u ((u + 2) mod n)
  done;
  let ring = Graph.freeze b in
  let stt = st () in
  let report = Local_search.optimize ~evaluations:1500 stt ring in
  let before = -.report.Local_search.initial_score in
  let after = -.report.Local_search.final_score in
  Alcotest.(check bool) "meaningful improvement" true (after < 0.85 *. before)

let test_local_search_rrg_near_optimal () =
  (* Started from an RRG, hill climbing gains very little — §4's point. *)
  let stt = st () in
  let g = Rrg.jellyfish stt ~n:24 ~r:4 in
  let report = Local_search.optimize ~evaluations:800 stt g in
  let before = -.report.Local_search.initial_score in
  let after = -.report.Local_search.final_score in
  (* At this small size a sampled RRG sits a few percent off the best
     4-regular graph; the contrast with the ring's ~15-50% gain is the
     point. *)
  Alcotest.(check bool) "gain below 8%" true (after >= 0.92 *. before)

let test_local_search_rejects_disconnected () =
  let g = Graph.of_edges 4 [ (0, 1, 1.0); (2, 3, 1.0) ] in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Local_search: input must be connected") (fun () ->
      ignore (Local_search.optimize (st ()) g))

(* ---- Cabling ---- *)

let test_grid_positions () =
  let p = Cabling.grid ~n:5 ~spacing:2.0 in
  Alcotest.(check int) "count" 5 (Array.length p);
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "first" (0.0, 0.0) p.(0);
  (* 5 nodes on a 3x3 grid: index 3 starts the second row. *)
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "wraps" (0.0, 2.0) p.(3)

let test_cable_length () =
  let g = Graph.of_edges 2 [ (0, 1, 1.0) ] in
  let placement = [| (0.0, 0.0); (3.0, 4.0) |] in
  Alcotest.(check (float 1e-9)) "manhattan" 7.0 (Cabling.cable_length g placement)

let test_clustered_grid_separates () =
  let cluster = [| 0; 0; 1; 1 |] in
  let p = Cabling.clustered_grid ~cluster ~spacing:1.0 ~cluster_gap:10.0 in
  (* Cross-cluster distance exceeds the gap; intra-cluster stays small. *)
  let d i j =
    let (x1, y1) = p.(i) and (x2, y2) = p.(j) in
    Float.abs (x1 -. x2) +. Float.abs (y1 -. y2)
  in
  Alcotest.(check bool) "intra small" true (d 0 1 <= 2.0);
  Alcotest.(check bool) "cross large" true (d 0 2 >= 10.0)

let test_shorten_cables_reduces_length () =
  let stt = st () in
  let topo =
    Dcn_topology.Hetero.two_class stt
      ~large:{ Dcn_topology.Hetero.count = 8; ports = 8; servers_each = 3 }
      ~small:{ Dcn_topology.Hetero.count = 8; ports = 8; servers_each = 3 }
  in
  let g = topo.Dcn_topology.Topology.graph in
  let placement =
    Cabling.clustered_grid ~cluster:topo.Dcn_topology.Topology.cluster
      ~spacing:1.0 ~cluster_gap:5.0
  in
  let before = Cabling.cable_length g placement in
  let g', after = Cabling.shorten_cables ~evaluations:1500 stt g placement in
  Alcotest.(check bool) "length reduced" true (after < before);
  Alcotest.(check bool) "connected" true (Graph.is_connected g');
  (* Degrees unchanged: same equipment. *)
  for u = 0 to Graph.n g - 1 do
    if Graph.degree g' u <> Graph.degree g u then
      Alcotest.fail "degree changed"
  done;
  (* Cut-preserving mode: cross-cluster link count is invariant. *)
  let cluster = topo.Dcn_topology.Topology.cluster in
  let cross graph = Dcn_graph.Cuts.cross_cluster_capacity graph ~cluster in
  let g'', after'' =
    Cabling.shorten_cables ~evaluations:1500 ~preserve_cut:cluster stt g
      placement
  in
  Alcotest.(check (float 1e-9)) "cut preserved" (cross g) (cross g'');
  Alcotest.(check bool) "still shortens" true (after'' < before)

let prop_expand_invariants =
  QCheck.Test.make ~name:"expand keeps regular+connected+simple" ~count:25
    QCheck.(pair (int_range 8 24) (int_range 1 8))
    (fun (n, extra) ->
      let stt = Random.State.make [| n; extra |] in
      let g = Rrg.jellyfish stt ~n ~r:4 in
      let g' = Rrg.expand stt g ~new_nodes:extra in
      Graph.is_regular g' = Some 4
      && Graph.is_connected g'
      && not (Graph.has_multi_edge g'))

let test_local_search_bisection_objective () =
  (* The alternative objective: maximize heuristic bisection bandwidth.
     Score must be monotone and the structure invariants preserved. *)
  let stt = st () in
  let g = Rrg.jellyfish stt ~n:16 ~r:4 in
  let report =
    Local_search.optimize ~objective:Local_search.Maximize_bisection
      ~evaluations:60 stt g
  in
  Alcotest.(check bool) "monotone" true
    (report.Local_search.final_score >= report.Local_search.initial_score);
  Alcotest.(check (option int)) "regular" (Some 4)
    (Graph.is_regular report.Local_search.graph)

let test_local_search_rejects_weighted () =
  let g = Graph.of_edges 3 [ (0, 1, 2.0); (1, 2, 1.0); (2, 0, 1.0) ] in
  Alcotest.check_raises "weighted input"
    (Invalid_argument "Local_search: unit capacities required") (fun () ->
      ignore (Local_search.optimize (st ()) g))

let suite =
  ( "extensions",
    [
      Alcotest.test_case "paths: two disjoint paths" `Quick test_paths_two_disjoint;
      Alcotest.test_case "paths: single path halves" `Quick
        test_paths_single_path_halves;
      Alcotest.test_case "paths: never beat unrestricted" `Quick
        test_paths_never_beat_unrestricted;
      Alcotest.test_case "paths: more paths help" `Slow test_paths_more_paths_help;
      Alcotest.test_case "paths: flow feasible" `Quick test_paths_flow_feasible;
      Alcotest.test_case "paths: validation" `Quick test_paths_validation;
      Alcotest.test_case "paths: params validated" `Quick
        test_paths_params_validated;
      Alcotest.test_case "paths: exact on a tree" `Quick
        test_paths_vs_exact_when_paths_cover;
      Alcotest.test_case "expand: regularity" `Quick test_expand_preserves_regularity;
      Alcotest.test_case "expand: zero nodes" `Quick test_expand_zero_nodes;
      Alcotest.test_case "expand: odd degree rejected" `Quick
        test_expand_rejects_odd_degree;
      Alcotest.test_case "expand: many steps" `Quick test_expand_many_steps;
      Alcotest.test_case "local search: monotone" `Quick test_local_search_monotone;
      Alcotest.test_case "local search: fixes a ring" `Quick
        test_local_search_fixes_ring;
      Alcotest.test_case "local search: RRG near-optimal" `Quick
        test_local_search_rrg_near_optimal;
      Alcotest.test_case "local search: validation" `Quick
        test_local_search_rejects_disconnected;
      Alcotest.test_case "cabling: grid" `Quick test_grid_positions;
      Alcotest.test_case "cabling: manhattan length" `Quick test_cable_length;
      Alcotest.test_case "cabling: clustered layout" `Quick
        test_clustered_grid_separates;
      Alcotest.test_case "cabling: shortening works" `Quick
        test_shorten_cables_reduces_length;
      Alcotest.test_case "local search: bisection objective" `Quick
        test_local_search_bisection_objective;
      Alcotest.test_case "local search: weighted rejected" `Quick
        test_local_search_rejects_weighted;
      QCheck_alcotest.to_alcotest prop_expand_invariants;
    ] )
