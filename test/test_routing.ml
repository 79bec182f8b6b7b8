(* Tests for Yen's k-shortest paths and ECMP enumeration. *)

open Dcn_graph
module Ksp = Dcn_routing.Ksp
module Ecmp = Dcn_routing.Ecmp

let diamond () =
  (* Two disjoint 2-hop paths 0->1->3 and 0->2->3, plus a 3-hop detour
     0->1->2->3 etc. via the 1-2 edge. *)
  Graph.of_edges 4 [ (0, 1, 1.0); (0, 2, 1.0); (1, 3, 1.0); (2, 3, 1.0); (1, 2, 1.0) ]

let line () = Graph.of_edges 3 [ (0, 1, 1.0); (1, 2, 1.0) ]

let path_valid g ~src ~dst arcs =
  let rec check at = function
    | [] -> at = dst
    | a :: rest -> Graph.arc_src g a = at && check (Graph.arc_dst g a) rest
  in
  check src arcs

let is_simple g ~src arcs =
  let nodes = Ksp.path_nodes g ~src arcs in
  List.length nodes = List.length (List.sort_uniq compare nodes)

let test_shortest_path () =
  let g = line () in
  match Ksp.shortest_path g ~src:0 ~dst:2 with
  | Some arcs ->
      Alcotest.(check int) "two hops" 2 (List.length arcs);
      Alcotest.(check bool) "valid" true (path_valid g ~src:0 ~dst:2 arcs)
  | None -> Alcotest.fail "path exists"

let test_shortest_path_disconnected () =
  let g = Graph.of_edges 3 [ (0, 1, 1.0) ] in
  Alcotest.(check bool) "none" true (Ksp.shortest_path g ~src:0 ~dst:2 = None)

let test_k_shortest_diamond () =
  let g = diamond () in
  let paths = Ksp.k_shortest g ~src:0 ~dst:3 ~k:4 in
  Alcotest.(check int) "found 4" 4 (List.length paths);
  (* Nondecreasing lengths, all valid, all simple, all distinct. *)
  let lengths = List.map List.length paths in
  Alcotest.(check (list int)) "lengths" [ 2; 2; 3; 3 ] lengths;
  List.iter
    (fun p ->
      Alcotest.(check bool) "valid" true (path_valid g ~src:0 ~dst:3 p);
      Alcotest.(check bool) "simple" true (is_simple g ~src:0 p))
    paths;
  Alcotest.(check int) "distinct" 4
    (List.length (List.sort_uniq compare paths))

let test_k_shortest_fewer_available () =
  let g = line () in
  let paths = Ksp.k_shortest g ~src:0 ~dst:2 ~k:5 in
  Alcotest.(check int) "only one simple path" 1 (List.length paths)

let test_k_shortest_args () =
  let g = line () in
  Alcotest.check_raises "k<1" (Invalid_argument "Ksp.k_shortest: k < 1")
    (fun () -> ignore (Ksp.k_shortest g ~src:0 ~dst:2 ~k:0));
  Alcotest.check_raises "src=dst" (Invalid_argument "Ksp.k_shortest: src = dst")
    (fun () -> ignore (Ksp.k_shortest g ~src:0 ~dst:0 ~k:1))

let test_k_shortest_on_rrg () =
  let st = Random.State.make [| 3 |] in
  let g = Dcn_topology.Rrg.jellyfish st ~n:24 ~r:4 in
  let paths = Ksp.k_shortest g ~src:0 ~dst:13 ~k:8 in
  Alcotest.(check bool) "found several" true (List.length paths >= 4);
  let sorted = List.map List.length paths in
  Alcotest.(check (list int)) "nondecreasing" (List.sort compare sorted) sorted;
  List.iter
    (fun p ->
      Alcotest.(check bool) "valid" true (path_valid g ~src:0 ~dst:13 p);
      Alcotest.(check bool) "simple" true (is_simple g ~src:0 p))
    paths

let test_ecmp_count_diamond () =
  Alcotest.(check int) "two shortest" 2
    (Ecmp.count_shortest_paths (diamond ()) ~src:0 ~dst:3);
  Alcotest.(check int) "disconnected" 0
    (Ecmp.count_shortest_paths (Graph.of_edges 3 [ (0, 1, 1.0) ]) ~src:0 ~dst:2)

let test_ecmp_enumeration () =
  let g = diamond () in
  let paths = Ecmp.shortest_paths g ~src:0 ~dst:3 ~limit:10 in
  Alcotest.(check int) "both shortest paths" 2 (List.length paths);
  List.iter
    (fun p -> Alcotest.(check int) "length 2" 2 (List.length p))
    paths;
  let limited = Ecmp.shortest_paths g ~src:0 ~dst:3 ~limit:1 in
  Alcotest.(check int) "limit respected" 1 (List.length limited)

let test_ecmp_count_matches_enumeration () =
  let st = Random.State.make [| 8 |] in
  let g = Dcn_topology.Rrg.jellyfish st ~n:20 ~r:4 in
  for dst = 1 to 8 do
    let count = Ecmp.count_shortest_paths g ~src:0 ~dst in
    let enumerated = List.length (Ecmp.shortest_paths g ~src:0 ~dst ~limit:1000) in
    Alcotest.(check int) "count = enumeration" count enumerated
  done

let prop_ksp_sorted_and_simple =
  QCheck.Test.make ~name:"k-shortest paths sorted, simple, distinct" ~count:30
    QCheck.(int_range 1 1000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let g = Dcn_topology.Rrg.jellyfish st ~n:14 ~r:3 in
      let dst = 1 + Random.State.int st 13 in
      let paths = Ksp.k_shortest g ~src:0 ~dst ~k:5 in
      let lengths = List.map List.length paths in
      lengths = List.sort compare lengths
      && List.length (List.sort_uniq compare paths) = List.length paths
      && List.for_all
           (fun p -> path_valid g ~src:0 ~dst p && is_simple g ~src:0 p)
           paths)

(* One Ksp scratch and one Ecmp scratch reused over 200 pairs of a graph
   with failed links answer each pair as a fresh scratch does. Sources
   often repeat back to back, so the ECMP scratch both keeps and replaces
   its source's distances. *)
let test_scratch_reuse () =
  let st = Random.State.make [| 27 |] in
  let g = Dcn_topology.Rrg.jellyfish st ~n:60 ~r:6 in
  let edges = Array.of_list (Graph.to_edge_list_ids g) in
  let g =
    Graph.mask_arcs g
      ~arcs:(List.init 20 (fun _ ->
                 snd edges.(Random.State.int st (Array.length edges))))
  in
  let ks = Ksp.scratch g and es = Ecmp.scratch g in
  let src = ref 0 in
  for _ = 1 to 200 do
    if Random.State.bool st then src := Random.State.int st 60;
    let src = !src in
    let dst = (src + 1 + Random.State.int st 59) mod 60 in
    let k = 1 + Random.State.int st 8 and limit = 1 + Random.State.int st 64 in
    let label = Printf.sprintf "%d>%d" src dst in
    Alcotest.(check (list (list int))) (label ^ " ksp")
      (Ksp.k_shortest g ~src ~dst ~k)
      (Ksp.k_shortest_in ks ~src ~dst ~k);
    Alcotest.(check (list (list int))) (label ^ " ecmp")
      (Ecmp.shortest_paths g ~src ~dst ~limit)
      (Ecmp.shortest_paths_in es ~src ~dst ~limit)
  done

(* ---- Path sets on the routing benchmark instance ----

   rrg:100,24,12 at seed 1 with a permutation traffic matrix, built the
   way `topobench routing` builds it: the VLB intermediates draw from the
   traffic generator's advanced state. *)

let routing_instance () =
  let topo = Core.Cli.build_topology (Core.Cli.Rrg (100, 24, 12)) ~seed:1 in
  let st = Random.State.make [| 1; 1 |] in
  let cs =
    Core.Traffic.to_commodities
      (Core.Traffic.permutation st ~servers:topo.Core.Topology.servers)
  in
  (topo.Core.Topology.graph, st, cs)

let render_path_sets buf model (rcs : Core.Mcmf_paths.commodity array) =
  Buffer.add_string buf model;
  Buffer.add_char buf '\n';
  Array.iter
    (fun (c : Core.Mcmf_paths.commodity) ->
      Printf.bprintf buf "%d>%d:%s\n" c.Core.Mcmf_paths.src c.Core.Mcmf_paths.dst
        (String.concat ";"
           (List.map
              (fun p -> String.concat "," (List.map string_of_int p))
              c.Core.Mcmf_paths.paths)))
    rcs

(* The digest pins every path set, in order, to the output of the
   list-based implementations in Routing_reference. Only integers are
   rendered, so it is the same on every platform. *)
let test_path_sets_golden () =
  let g, st, cs = routing_instance () in
  let buf = Buffer.create (1 lsl 20) in
  render_path_sets buf "ksp:8" (Core.Mcmf_paths.of_k_shortest g ~k:8 cs);
  render_path_sets buf "ecmp:64" (Core.Mcmf_paths.of_ecmp g ~limit:64 cs);
  render_path_sets buf "vlb:8" (Core.Vlb.restrict st g ~intermediates:8 cs);
  render_path_sets buf "single" (Core.Mcmf_paths.of_k_shortest g ~k:1 cs);
  Alcotest.(check string) "path-set digest" "ab94f497670501aa86f1b30ace2defb9"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let minor_words f =
  let before = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. before)

(* Allocation budgets on the same instance: Yen's spur searches share one
   BFS scratch, and the path-restricted solver runs on flat arrays. The
   sets are built with the pool off: [Gc.minor_words] counts this
   domain's allocation only. *)
let test_allocation_budgets () =
  let g, _, cs = routing_instance () in
  let rcs, build_words =
    Test_parallel_sweep.with_workers 0 (fun () ->
        minor_words (fun () -> Core.Mcmf_paths.of_k_shortest g ~k:8 cs))
  in
  Alcotest.(check bool)
    (Printf.sprintf "ksp:8 build allocates %.1fM minor words (<= 10M)"
       (build_words /. 1e6))
    true (build_words <= 10e6);
  let params = Core.Cli.params_of 0.05 0.05 in
  let _, solve_words =
    minor_words (fun () -> Core.Mcmf_paths.solve ~params g rcs)
  in
  Alcotest.(check bool)
    (Printf.sprintf "ksp:8 solve allocates %.2fM minor words (<= 1M)"
       (solve_words /. 1e6))
    true (solve_words <= 1e6)

let suite =
  ( "routing",
    [
      Alcotest.test_case "shortest path" `Quick test_shortest_path;
      Alcotest.test_case "shortest path disconnected" `Quick
        test_shortest_path_disconnected;
      Alcotest.test_case "k-shortest on diamond" `Quick test_k_shortest_diamond;
      Alcotest.test_case "k exceeds available" `Quick test_k_shortest_fewer_available;
      Alcotest.test_case "k-shortest argument checks" `Quick test_k_shortest_args;
      Alcotest.test_case "k-shortest on RRG" `Quick test_k_shortest_on_rrg;
      Alcotest.test_case "ecmp counting" `Quick test_ecmp_count_diamond;
      Alcotest.test_case "ecmp enumeration" `Quick test_ecmp_enumeration;
      Alcotest.test_case "ecmp count = enumeration" `Quick
        test_ecmp_count_matches_enumeration;
      QCheck_alcotest.to_alcotest prop_ksp_sorted_and_simple;
      Alcotest.test_case "scratch reuse over 200 pairs" `Quick
        test_scratch_reuse;
      Alcotest.test_case "path sets golden digest" `Quick test_path_sets_golden;
      Alcotest.test_case "path-set allocation budgets" `Quick
        test_allocation_budgets;
    ] )
