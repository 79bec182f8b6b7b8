(* BFS, Dijkstra and graph-metric tests. *)

open Dcn_graph

let path4 () =
  (* 0 - 1 - 2 - 3 *)
  Graph.of_edges 4 [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0) ]

let test_bfs_line () =
  let d = Bfs.distances (path4 ()) 0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3 |] d

let test_bfs_unreachable () =
  let g = Graph.of_edges 3 [ (0, 1, 1.0) ] in
  let d = Bfs.distances g 0 in
  Alcotest.(check int) "unreachable" max_int d.(2)

let test_eccentricity () =
  Alcotest.(check int) "line end" 3 (Bfs.eccentricity (path4 ()) 0);
  Alcotest.(check int) "line middle" 2 (Bfs.eccentricity (path4 ()) 1)

let test_dijkstra_matches_bfs_on_unit_lengths () =
  let st = Random.State.make [| 5 |] in
  let g = Dcn_topology.Rrg.jellyfish st ~n:30 ~r:4 in
  let lengths = Array.make (Graph.num_arcs g) 1.0 in
  for src = 0 to 4 do
    let tree = Dijkstra.shortest_tree g ~lengths ~src in
    let bfs = Bfs.distances g src in
    Array.iteri
      (fun v d ->
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "dist %d->%d" src v)
          (float_of_int d) tree.Dijkstra.dist.(v))
      bfs
  done

let test_dijkstra_weighted () =
  (* 0->2 direct is longer than 0->1->2 under these lengths. *)
  let b = Graph.builder 3 in
  Graph.add_edge b 0 1;
  Graph.add_edge b 1 2;
  Graph.add_edge b 0 2;
  let g = Graph.freeze b in
  let lengths = Array.make (Graph.num_arcs g) 1.0 in
  (* Make the direct 0-2 edge expensive in both directions. *)
  Graph.iter_arcs g (fun a ->
      let u = Graph.arc_src g a and v = Graph.arc_dst g a in
      if (u, v) = (0, 2) || (u, v) = (2, 0) then lengths.(a) <- 10.0);
  let tree = Dijkstra.shortest_tree g ~lengths ~src:0 in
  Alcotest.(check (float 1e-9)) "dist via middle" 2.0 tree.Dijkstra.dist.(2);
  let arcs = Dijkstra.path_arcs g tree 2 in
  Alcotest.(check int) "two hops" 2 (List.length arcs);
  Alcotest.(check (float 1e-9)) "path length" 2.0
    (Dijkstra.path_length ~lengths arcs)

let test_dijkstra_skips_zero_capacity () =
  let b = Graph.builder 3 in
  Graph.add_arc b 0 1;
  (* Reverse stub of this arc has zero capacity; 1 cannot reach 0. *)
  let g = Graph.freeze b in
  let lengths = Array.make (Graph.num_arcs g) 1.0 in
  let tree = Dijkstra.shortest_tree g ~lengths ~src:1 in
  Alcotest.(check (float 0.0)) "unreachable" infinity tree.Dijkstra.dist.(0)

let test_negative_length_rejected () =
  let g = path4 () in
  let lengths = Array.make (Graph.num_arcs g) (-1.0) in
  Alcotest.check_raises "negative length"
    (Invalid_argument "Dijkstra: negative arc length") (fun () ->
      ignore (Dijkstra.shortest_tree g ~lengths ~src:0))

let test_dijkstra_sweep_allocates_nothing () =
  (* The heap hands keys over through float arrays, so a sweep on a reused
     scratch allocates a constant handful of words, not one boxed float per
     relaxation and pop (thousands on this graph). *)
  let st = Random.State.make [| 7 |] in
  let g = Dcn_topology.Rrg.jellyfish st ~n:200 ~r:12 in
  let lengths =
    Array.init (Graph.num_arcs g) (fun _ -> 1.0 +. Random.State.float st 1.0)
  in
  let csr = Graph.csr g in
  let scratch = Dijkstra.make_scratch (Graph.n g) in
  let tree =
    { Dijkstra.dist = Array.make (Graph.n g) infinity;
      parent_arc = Array.make (Graph.n g) (-1) }
  in
  (* Every node a target: a full sweep. *)
  let targets = List.init (Graph.n g) Fun.id in
  Dijkstra.shortest_tree_targets scratch csr ~lengths ~src:0 ~targets tree;
  let calls = 50 in
  let before = Gc.minor_words () in
  for src = 1 to calls do
    Dijkstra.shortest_tree_targets scratch csr ~lengths ~src ~targets tree
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per sweep <= 16" per_call)
    true (per_call <= 16.0)

let test_aspl_line () =
  (* Line 0-1-2-3: pair distances 1,2,3,1,2,1 (x2 directions) / 12. *)
  let aspl, diam = Graph_metrics.aspl_and_diameter (path4 ()) in
  Alcotest.(check (float 1e-9)) "aspl" (20.0 /. 12.0) aspl;
  Alcotest.(check int) "diameter" 3 diam

let test_aspl_complete () =
  let edges = ref [] in
  for u = 0 to 4 do
    for v = u + 1 to 4 do
      edges := (u, v, 1.0) :: !edges
    done
  done;
  let g = Graph.of_edges 5 !edges in
  Alcotest.(check (float 1e-9)) "K5 aspl" 1.0 (Graph_metrics.aspl g);
  Alcotest.(check int) "K5 diameter" 1 (Graph_metrics.diameter g)

let test_aspl_disconnected_rejected () =
  let g = Graph.of_edges 4 [ (0, 1, 1.0); (2, 3, 1.0) ] in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Graph_metrics: graph is disconnected") (fun () ->
      ignore (Graph_metrics.aspl g))

let test_weighted_pair_distance () =
  let g = path4 () in
  (* One pair at distance 3 with weight 1, one at distance 1 with weight 3:
     mean = (3 + 3) / 4 = 1.5. *)
  let d =
    Graph_metrics.weighted_pair_distance_array g
      ~pairs:[| (0, 3, 1.0); (0, 1, 3.0) |]
  in
  Alcotest.(check (float 1e-9)) "weighted distance" 1.5 d

let test_degree_histogram () =
  let g = path4 () in
  Alcotest.(check (list (pair int int))) "histogram" [ (1, 2); (2, 2) ]
    (Graph_metrics.degree_histogram g);
  Alcotest.(check (float 1e-9)) "mean degree" 1.5 (Graph_metrics.mean_degree g)

(* Property: ASPL of a random regular graph is at least the Cerf bound. *)
let prop_aspl_at_least_bound =
  QCheck.Test.make ~name:"RRG ASPL >= Cerf bound" ~count:30
    QCheck.(pair (int_range 8 40) (int_range 3 5))
    (fun (n, r) ->
      let n = if n * r mod 2 = 1 then n + 1 else n in
      QCheck.assume (r < n);
      let st = Random.State.make [| n; r |] in
      let g = Dcn_topology.Rrg.jellyfish st ~n ~r in
      Graph_metrics.aspl g >= Dcn_bounds.Aspl_bound.d_star ~n ~r -. 1e-9)

let suite =
  ( "paths-metrics",
    [
      Alcotest.test_case "bfs on a line" `Quick test_bfs_line;
      Alcotest.test_case "bfs unreachable" `Quick test_bfs_unreachable;
      Alcotest.test_case "eccentricity" `Quick test_eccentricity;
      Alcotest.test_case "dijkstra = bfs on unit lengths" `Quick
        test_dijkstra_matches_bfs_on_unit_lengths;
      Alcotest.test_case "dijkstra weighted routing" `Quick test_dijkstra_weighted;
      Alcotest.test_case "dijkstra honors capacity" `Quick
        test_dijkstra_skips_zero_capacity;
      Alcotest.test_case "negative lengths rejected" `Quick
        test_negative_length_rejected;
      Alcotest.test_case "dijkstra sweep allocation-free" `Quick
        test_dijkstra_sweep_allocates_nothing;
      Alcotest.test_case "aspl of a line" `Quick test_aspl_line;
      Alcotest.test_case "aspl of K5" `Quick test_aspl_complete;
      Alcotest.test_case "aspl requires connectivity" `Quick
        test_aspl_disconnected_rejected;
      Alcotest.test_case "weighted pair distance" `Quick test_weighted_pair_distance;
      Alcotest.test_case "degree histogram" `Quick test_degree_histogram;
      QCheck_alcotest.to_alcotest prop_aspl_at_least_bound;
    ] )
