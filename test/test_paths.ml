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
  (* The kernel keeps its heap's keys in a float array in the scratch and
     its float locals unboxed, so a sweep on a reused scratch allocates a
     constant handful of words, not one boxed float per relaxation and pop
     (thousands on this graph). *)
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

(* Tie order: with every length 1.0 nearly every relaxation ties, so
   which parent a node keeps depends on the order the heap pops equal
   keys. The digest covers every source's full tree (all [dist] bits and
   [parent_arc]) and a target-limited tree on a reused scratch (each
   target's [dist] bits and tree path; the list repeats one target), on a
   jellyfish graph and on a masked copy of it. *)
let tie_order_digest g =
  let n = Graph.n g in
  let lengths = Array.make (Graph.num_arcs g) 1.0 in
  let b = Buffer.create (1 lsl 16) in
  let add_int i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ' '
  in
  let add_dist d = add_int (Int64.to_int (Int64.bits_of_float d)) in
  let csr = Graph.csr g in
  let scratch = Dijkstra.make_scratch n in
  let tree =
    { Dijkstra.dist = Array.make n infinity; parent_arc = Array.make n (-1) }
  in
  for src = 0 to n - 1 do
    let full = Dijkstra.shortest_tree g ~lengths ~src in
    Array.iter add_dist full.Dijkstra.dist;
    Array.iter add_int full.Dijkstra.parent_arc;
    let targets =
      ((src + 1) mod n)
      :: List.filter (fun v -> ((7 * v) + src) mod 5 = 0) (List.init n Fun.id)
      @ [ (src + 1) mod n ]
    in
    Dijkstra.shortest_tree_targets scratch csr ~lengths ~src ~targets tree;
    List.iter
      (fun v ->
        add_dist tree.Dijkstra.dist.(v);
        if tree.Dijkstra.dist.(v) < infinity then
          List.iter add_int (Dijkstra.path_arcs g tree v))
      targets;
    Buffer.add_char b '\n'
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let tie_order_graph () =
  Dcn_topology.Rrg.jellyfish (Random.State.make [| 100; 12 |]) ~n:100 ~r:12

let test_tie_order_pinned () =
  Alcotest.(check string) "digest" "a5d739845293e2ce5b930486b6320cb6"
    (tie_order_digest (tie_order_graph ()))

let test_tie_order_masked_pinned () =
  let g = tie_order_graph () in
  (* Every 7th link down, both directions. *)
  let arcs = List.filter (fun a -> a mod 14 = 0) (List.init (Graph.num_arcs g) Fun.id) in
  Alcotest.(check string) "digest" "411885d4701c19b379c5b3f93f0260c9"
    (tie_order_digest (Graph.mask_arcs g ~arcs))

let fresh_tree n =
  { Dijkstra.dist = Array.make n infinity; parent_arc = Array.make n (-1) }

let bits = Int64.bits_of_float

(* Reference distances over positive-capacity arcs: [n] rounds of
   relaxing every arc. Each path sum is built source-side first, as in
   Dijkstra, so the two agree bit for bit. *)
let bellman_ford g ~lengths ~src =
  let dist = Array.make (Graph.n g) infinity in
  dist.(src) <- 0.0;
  for _ = 1 to Graph.n g do
    Graph.iter_arcs g (fun a ->
        if Graph.arc_cap g a > 0.0 then begin
          let nd = dist.(Graph.arc_src g a) +. lengths.(a) in
          let v = Graph.arc_dst g a in
          if nd < dist.(v) then dist.(v) <- nd
        end)
  done;
  dist

(* [v]'s parent chain is tight back to [src]: every arc is usable and
   [dist v = dist (arc_src a) +. len a] exactly. *)
let tight_chain g ~lengths ~src (tree : Dijkstra.tree) v =
  let rec walk v steps =
    if v = src then tree.parent_arc.(v) = -1 && bits tree.dist.(v) = bits 0.0
    else
      let a = tree.parent_arc.(v) in
      steps < Graph.n g && a >= 0
      && Graph.arc_dst g a = v
      && Graph.arc_cap g a > 0.0
      && bits tree.dist.(v)
         = bits (tree.dist.(Graph.arc_src g a) +. lengths.(a))
      && walk (Graph.arc_src g a) (steps + 1)
  in
  walk v 0

(* A random multigraph on [n] nodes: parallel links, one-way arcs (zero
   capacity backwards), about a fifth of the arcs masked, isolated nodes
   likely; lengths from a small set, zero included, so ties and rounding
   both occur. Targets may repeat. *)
let random_case st n =
  let b = Graph.builder n in
  for _ = 1 to Random.State.int st ((3 * n) + 1) do
    let u = Random.State.int st n and v = Random.State.int st n in
    if u <> v then
      if Random.State.bool st then Graph.add_edge b u v else Graph.add_arc b u v
  done;
  let g = Graph.freeze b in
  let m = Graph.num_arcs g in
  let arcs = List.filter (fun _ -> Random.State.int st 5 = 0) (List.init m Fun.id) in
  let g = Graph.mask_arcs g ~arcs in
  let choices = [| 0.0; 0.1; 0.3; 0.5; 1.0; 1.0; 2.0 |] in
  let lengths =
    Array.init m (fun _ -> choices.(Random.State.int st (Array.length choices)))
  in
  let targets () =
    List.init (Random.State.int st ((2 * n) + 1)) (fun _ -> Random.State.int st n)
  in
  (g, lengths, targets)

let prop_matches_bellman_ford =
  QCheck.Test.make ~name:"dijkstra = bellman-ford" ~count:300
    QCheck.(pair (int_range 1 12) int)
    (fun (n, seed) ->
      let st = Random.State.make [| seed |] in
      let g, lengths, targets = random_case st n in
      let scratch = Dijkstra.make_scratch n and tree = fresh_tree n in
      (* Two target-limited runs on one scratch, then the full tree. *)
      List.for_all
        (fun src ->
          let reference = bellman_ford g ~lengths ~src in
          let targets = targets () in
          Dijkstra.shortest_tree_targets scratch (Graph.csr g) ~lengths ~src
            ~targets tree;
          let full = Dijkstra.shortest_tree g ~lengths ~src in
          let agrees (t : Dijkstra.tree) v =
            bits t.dist.(v) = bits reference.(v)
            && (Float.equal t.dist.(v) infinity || tight_chain g ~lengths ~src t v)
          in
          List.for_all (agrees tree) targets
          && List.for_all (agrees full) (List.init n Fun.id))
        [ Random.State.int st n; Random.State.int st n ])

let test_negative_arc_stops () =
  let raises f =
    Alcotest.check_raises "negative length"
      (Invalid_argument "Dijkstra: negative arc length") f
  in
  (* Reached only after positive arcs: the run is well under way. *)
  let g = Graph.of_edges 5 [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0); (3, 4, 1.0) ] in
  let lengths = Array.make (Graph.num_arcs g) 1.0 in
  lengths.(4) <- -0.5;
  (* arc 4 is 2 -> 3 *)
  raises (fun () -> ignore (Dijkstra.shortest_tree g ~lengths ~src:0));
  let scratch = Dijkstra.make_scratch 5 and tree = fresh_tree 5 in
  raises (fun () ->
      Dijkstra.shortest_tree_targets scratch (Graph.csr g) ~lengths ~src:0
        ~targets:[ 4; 4; 1 ] tree);
  (* The failed run leaves no target marks behind: the same scratch then
     answers as a fresh one. *)
  lengths.(4) <- 1.0;
  Dijkstra.shortest_tree_targets scratch (Graph.csr g) ~lengths ~src:4
    ~targets:[ 1 ] tree;
  Alcotest.(check (float 0.0)) "dist after reuse" 3.0 tree.Dijkstra.dist.(1);
  Alcotest.(check (float 0.0)) "far side final" 4.0
    (Dijkstra.shortest_tree g ~lengths ~src:4).Dijkstra.dist.(0);
  (* A negative cycle: every arc of a directed triangle. *)
  let b = Graph.builder 3 in
  Graph.add_arc b 0 1;
  Graph.add_arc b 1 2;
  Graph.add_arc b 2 0;
  let g = Graph.freeze b in
  let lengths = Array.make (Graph.num_arcs g) (-1.0) in
  raises (fun () -> ignore (Dijkstra.shortest_tree g ~lengths ~src:0))

let test_scratch_reuse_across_graphs () =
  (* One scratch serves graphs of the same node count and growing arc
     count, as a per-domain FPTAS workspace does. *)
  let n = 60 in
  let sparse = Graph.of_edges n (List.init (n - 1) (fun v -> (v, v + 1, 1.0))) in
  let dense = Dcn_topology.Rrg.jellyfish (Random.State.make [| 3 |]) ~n ~r:10 in
  let scratch = Dijkstra.make_scratch n and tree = fresh_tree n in
  let targets = [ 5; n - 1; 17; 5 ] in
  List.iter
    (fun g ->
      let st = Random.State.make [| Graph.num_arcs g |] in
      let lengths =
        Array.init (Graph.num_arcs g) (fun _ -> 0.5 +. Random.State.float st 1.0)
      in
      for src = 0 to 3 do
        Dijkstra.shortest_tree_targets scratch (Graph.csr g) ~lengths ~src
          ~targets tree;
        let full = Dijkstra.shortest_tree g ~lengths ~src in
        List.iter
          (fun v ->
            Alcotest.(check int64) "dist bits" (bits full.Dijkstra.dist.(v))
              (bits tree.Dijkstra.dist.(v));
            Alcotest.(check (list int)) "path" (Dijkstra.path_arcs g full v)
              (Dijkstra.path_arcs g tree v))
          targets
      done)
    [ sparse; dense; sparse ]

let test_heap_takes_every_push () =
  (* Lengths [2 (v - u) - 1] on the arcs u -> v of a complete graph with
     u < v: nodes expand in index order and each expansion improves every
     later node, so all k (k - 1) / 2 forward arcs push. A full run pops
     every entry: the source's plus one per relaxation. *)
  let k = 24 in
  let b = Graph.builder k in
  for u = 0 to k - 1 do
    for v = u + 1 to k - 1 do
      Graph.add_edge b u v
    done
  done;
  let g = Graph.freeze b in
  let lengths =
    Array.init (Graph.num_arcs g) (fun a ->
        let u = Graph.arc_src g a and v = Graph.arc_dst g a in
        if u < v then float_of_int ((2 * (v - u)) - 1) else 1000.0)
  in
  Dcn_obs.Metrics.set_enabled true;
  let tree, snap =
    Fun.protect
      (fun () ->
        let tree = Dijkstra.shortest_tree g ~lengths ~src:0 in
        (tree, Dcn_obs.Metrics.snapshot ()))
      ~finally:(fun () ->
        Dcn_obs.Metrics.set_enabled false;
        Dcn_obs.Metrics.reset ())
  in
  let count = Dcn_obs.Metrics.counter_value snap in
  Alcotest.(check int) "every forward arc relaxed" (k * (k - 1) / 2)
    (count "dijkstra.arcs_relaxed");
  Alcotest.(check int) "pops" (1 + (k * (k - 1) / 2)) (count "dijkstra.heap_pops");
  Array.iteri
    (fun v d -> Alcotest.(check (float 0.0)) "dist" (float_of_int v) d)
    tree.Dijkstra.dist

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
      Alcotest.test_case "dijkstra tie order pinned" `Quick test_tie_order_pinned;
      Alcotest.test_case "dijkstra masked tie order" `Quick
        test_tie_order_masked_pinned;
      Alcotest.test_case "negative arc stops the run" `Quick test_negative_arc_stops;
      Alcotest.test_case "scratch reuse, more arcs" `Quick
        test_scratch_reuse_across_graphs;
      Alcotest.test_case "heap takes every push" `Quick test_heap_takes_every_push;
      QCheck_alcotest.to_alcotest prop_matches_bellman_ford;
      Alcotest.test_case "aspl of a line" `Quick test_aspl_line;
      Alcotest.test_case "aspl of K5" `Quick test_aspl_complete;
      Alcotest.test_case "aspl requires connectivity" `Quick
        test_aspl_disconnected_rejected;
      Alcotest.test_case "weighted pair distance" `Quick test_weighted_pair_distance;
      Alcotest.test_case "degree histogram" `Quick test_degree_histogram;
      QCheck_alcotest.to_alcotest prop_aspl_at_least_bound;
    ] )
