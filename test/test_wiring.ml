(* Tests for random stub wiring (configuration model + repair). *)

module Wiring = Dcn_topology.Wiring

let st () = Random.State.make [| 999 |]

let degree_of edges n =
  let deg = Array.make n 0 in
  List.iter
    (fun (u, v) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    edges;
  deg

let test_matching_preserves_degrees () =
  let stubs = [| 0; 0; 0; 1; 1; 2; 2; 3 |] in
  let edges = Wiring.random_matching (st ()) stubs in
  Alcotest.(check int) "edge count" 4 (List.length edges);
  Alcotest.(check (array int)) "degrees" [| 3; 2; 2; 1 |] (degree_of edges 4)

let test_matching_no_self_loops () =
  let stubs = Array.concat [ Array.make 6 0; Array.make 6 1; Array.make 6 2 ] in
  for seed = 0 to 19 do
    let edges = Wiring.random_matching (Random.State.make [| seed |]) stubs in
    List.iter (fun (u, v) -> if u = v then Alcotest.fail "self loop") edges
  done

let test_matching_odd_rejected () =
  Alcotest.check_raises "odd stubs"
    (Invalid_argument "Wiring.random_matching: odd stub count") (fun () ->
      ignore (Wiring.random_matching (st ()) [| 0; 1; 2 |]))

let test_matching_impossible_self_loops () =
  (* All stubs on one node: self-loops are unavoidable. *)
  (match Wiring.random_matching (st ()) [| 0; 0; 0; 0 |] with
  | _ -> Alcotest.fail "expected failure"
  | exception Failure _ -> ())

let test_matching_avoids_multi_edges_when_possible () =
  (* 4 nodes with 3 stubs each can form a simple 3-regular graph (K4). *)
  let stubs = Array.init 12 (fun i -> i / 3) in
  let all_simple = ref true in
  for seed = 0 to 19 do
    let edges = Wiring.random_matching (Random.State.make [| 100 + seed |]) stubs in
    let canon = List.map (fun (u, v) -> (min u v, max u v)) edges in
    if List.length (List.sort_uniq compare canon) <> List.length canon then
      all_simple := false
  done;
  Alcotest.(check bool) "always simple" true !all_simple

let test_matching_hub_keeps_parallels () =
  (* A hub with more stubs than distinct peers must keep parallel links but
     never self-loops. *)
  let stubs = Array.concat [ Array.make 6 0; Array.make 3 1; Array.make 3 2 ] in
  let edges = Wiring.random_matching (st ()) stubs in
  List.iter (fun (u, v) -> if u = v then Alcotest.fail "self loop") edges;
  Alcotest.(check int) "edges" 6 (List.length edges)

let test_bipartite_matching () =
  let left = [| 0; 0; 1 |] and right = [| 2; 3; 3 |] in
  let edges = Wiring.random_bipartite_matching (st ()) left right in
  Alcotest.(check int) "count" 3 (List.length edges);
  List.iter
    (fun (u, v) ->
      if not (List.mem u [ 0; 1 ]) then Alcotest.fail "left side wrong";
      if not (List.mem v [ 2; 3 ]) then Alcotest.fail "right side wrong")
    edges

let test_bipartite_size_mismatch () =
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Wiring.random_bipartite_matching: side size mismatch")
    (fun () ->
      ignore (Wiring.random_bipartite_matching (st ()) [| 0 |] [| 1; 2 |]))

let prop_degrees_preserved =
  QCheck.Test.make ~name:"matching preserves stub degrees" ~count:100
    QCheck.(pair small_int (list_of_size (Gen.int_range 2 8) (int_range 1 4)))
    (fun (seed, degs) ->
      (* Ensure no node holds more than half the stubs, and even total. *)
      let degs = Array.of_list degs in
      let total = Array.fold_left ( + ) 0 degs in
      let degs = if total mod 2 = 1 then (degs.(0) <- degs.(0) + 1; degs) else degs in
      let total = Array.fold_left ( + ) 0 degs in
      let max_deg = Array.fold_left max 0 degs in
      QCheck.assume (2 * max_deg <= total);
      let stubs =
        Array.concat
          (Array.to_list (Array.mapi (fun i d -> Array.make d i) degs))
      in
      let edges = Wiring.random_matching (Random.State.make [| seed |]) stubs in
      degree_of edges (Array.length degs) = degs
      && List.for_all (fun (u, v) -> u <> v) edges)

(* Bit-identity pins: MD5 of [Graph.to_edge_list] (endpoints and [%h]
   capacities) for every public construction built on [Wiring]. A change
   to the repair's draws, pass structure or multiplicities moves them. *)

module Graph = Dcn_graph.Graph
module Hetero = Dcn_topology.Hetero
module Topology = Dcn_topology.Topology

let graph_digest g =
  let b = Buffer.create 4096 in
  List.iter
    (fun (u, v, c) -> Buffer.add_string b (Printf.sprintf "%d %d %h\n" u v c))
    (Graph.to_edge_list g);
  Digest.to_hex (Digest.string (Buffer.contents b))

let edges_digest edges =
  let b = Buffer.create 4096 in
  List.iter
    (fun (u, v) -> Buffer.add_string b (Printf.sprintf "%d %d\n" u v))
    edges;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_pin_two_class_forced_parallel () =
  (* Few servers per large switch and little cross-connectivity: the large
     side cannot be wired simple, so repair runs all its passes. *)
  let large = { Hetero.count = 20; ports = 30; servers_each = 6 } in
  let small = { Hetero.count = 30; ports = 20; servers_each = 6 } in
  let t =
    Hetero.two_class ~cross_fraction:0.2 (Random.State.make [| 26 |]) ~large
      ~small
  in
  Alcotest.(check string) "forced-parallel two_class"
    "40f4d51e9f10223c471b508efcfe409d"
    (graph_digest t.Topology.graph)

let test_pin_two_class_simple () =
  let large = { Hetero.count = 10; ports = 12; servers_each = 4 } in
  let small = { Hetero.count = 20; ports = 8; servers_each = 3 } in
  let t = Hetero.two_class (Random.State.make [| 27 |]) ~large ~small in
  Alcotest.(check string) "simple two_class" "5fa6019227f954c60af04e5ec6acdc27"
    (graph_digest t.Topology.graph)

let test_pin_with_highspeed () =
  let large = { Hetero.count = 10; ports = 12; servers_each = 4 } in
  let small = { Hetero.count = 20; ports = 8; servers_each = 3 } in
  let t =
    Hetero.with_highspeed ~cross_fraction:0.5 (Random.State.make [| 28 |])
      ~large ~small ~h_links:2 ~h_speed:4.0
  in
  Alcotest.(check string) "with_highspeed" "476ad5ae61169594f826c6c8cf0b2362"
    (graph_digest t.Topology.graph)

let test_pin_power_law () =
  let st = Random.State.make [| 29 |] in
  let ports = Hetero.power_law_ports st ~n:40 ~avg:10.0 () in
  let servers = Hetero.place_servers_power ~total:120 ~ports ~beta:1.0 in
  let t = Hetero.random_topology_with_ports st ~ports ~servers ~name:"pl" in
  Alcotest.(check string) "random_topology_with_ports"
    "705228ec844e1574225d0d650d78ada0"
    (graph_digest t.Topology.graph)

let test_pin_rewire () =
  let t =
    Dcn_topology.Rewire.create (Random.State.make [| 30 |]) ~tors:24 ~da:8
      ~di:6 ()
  in
  Alcotest.(check string) "Rewire.create" "e5f6f2192f516125c65cf13ff5c7f757"
    (graph_digest t.Topology.graph)

let test_pin_rrg_pairing () =
  let t =
    Dcn_topology.Rrg.topology ~construction:`Pairing
      (Random.State.make [| 31 |]) ~n:60 ~k:12 ~r:7
  in
  Alcotest.(check string) "Rrg pairing" "112691f2e9026358c3121e2e9047a952"
    (graph_digest t.Topology.graph)

let test_pin_bare_matchings () =
  let st = Random.State.make [| 32 |] in
  let existing = [ (0, 1); (1, 2); (2, 3); (0, 1) ] in
  let stubs = Array.init 48 (fun i -> i mod 8) in
  Alcotest.(check string) "random_matching ~existing"
    "6d1867b8b51df67bbd205ab6b01a8cf7"
    (edges_digest (Wiring.random_matching ~existing st stubs));
  let left = Array.init 30 (fun i -> i mod 5)
  and right = Array.init 30 (fun i -> 5 + (i mod 6)) in
  Alcotest.(check string) "random_bipartite_matching"
    "6376c3ef3f2e9c87f156d74b8aa38e9f"
    (edges_digest (Wiring.random_bipartite_matching st left right))

let suite =
  ( "wiring",
    [
      Alcotest.test_case "degrees preserved" `Quick test_matching_preserves_degrees;
      Alcotest.test_case "no self loops" `Quick test_matching_no_self_loops;
      Alcotest.test_case "odd stub count rejected" `Quick test_matching_odd_rejected;
      Alcotest.test_case "impossible self-loop case fails" `Quick
        test_matching_impossible_self_loops;
      Alcotest.test_case "simple graph when possible" `Quick
        test_matching_avoids_multi_edges_when_possible;
      Alcotest.test_case "hub keeps parallels, no loops" `Quick
        test_matching_hub_keeps_parallels;
      Alcotest.test_case "bipartite matching" `Quick test_bipartite_matching;
      Alcotest.test_case "bipartite size mismatch" `Quick
        test_bipartite_size_mismatch;
      QCheck_alcotest.to_alcotest prop_degrees_preserved;
      Alcotest.test_case "pin forced-parallel two_class" `Quick
        test_pin_two_class_forced_parallel;
      Alcotest.test_case "pin simple two_class" `Quick test_pin_two_class_simple;
      Alcotest.test_case "pin with_highspeed" `Quick test_pin_with_highspeed;
      Alcotest.test_case "pin power-law ports" `Quick test_pin_power_law;
      Alcotest.test_case "pin Rewire.create" `Quick test_pin_rewire;
      Alcotest.test_case "pin rrg pairing" `Quick test_pin_rrg_pairing;
      Alcotest.test_case "pin bare matchings" `Quick test_pin_bare_matchings;
    ] )
