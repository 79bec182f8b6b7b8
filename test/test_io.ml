(* Tests for the plain-text topology and traffic-matrix formats. *)

module Topology = Dcn_topology.Topology
module Topology_io = Dcn_io.Topology_io
module Traffic_io = Dcn_io.Traffic_io
module Traffic = Dcn_traffic.Traffic
module Graph = Dcn_graph.Graph

let st () = Random.State.make [| 88 |]

let test_topology_roundtrip () =
  let topo =
    Dcn_topology.Hetero.two_class (st ())
      ~large:{ Dcn_topology.Hetero.count = 4; ports = 6; servers_each = 2 }
      ~small:{ Dcn_topology.Hetero.count = 4; ports = 4; servers_each = 1 }
  in
  let restored = Topology_io.of_string (Topology_io.to_string topo) in
  Alcotest.(check bool) "graph preserved" true
    (Graph.equal_structure topo.Topology.graph restored.Topology.graph);
  Alcotest.(check (array int)) "servers" topo.Topology.servers
    restored.Topology.servers;
  Alcotest.(check (array int)) "clusters" topo.Topology.cluster
    restored.Topology.cluster;
  Alcotest.(check string) "name" topo.Topology.name restored.Topology.name

let test_topology_parse_basics () =
  let text =
    "# a comment\n\
     name test topo\n\
     switches 3\n\
     servers 0 2\n\
     cluster 2 1\n\
     link 0 1 1.0\n\
     link 1 2 2.5 # trailing comment\n"
  in
  let topo = Topology_io.of_string text in
  Alcotest.(check string) "multi-word name" "test topo" topo.Topology.name;
  Alcotest.(check int) "switches" 3 (Topology.num_switches topo);
  Alcotest.(check int) "servers" 2 (Topology.num_servers topo);
  Alcotest.(check (list (triple int int (float 1e-9)))) "links"
    [ (0, 1, 1.0); (1, 2, 2.5) ]
    (Graph.to_edge_list topo.Topology.graph)

let test_topology_parallel_links () =
  let text = "switches 2\nlink 0 1 1\nlink 0 1 1\n" in
  let topo = Topology_io.of_string text in
  Alcotest.(check bool) "multigraph" true
    (Graph.has_multi_edge topo.Topology.graph)

let expect_parse_failure name text =
  match Topology_io.of_string text with
  | _ -> Alcotest.fail (name ^ ": expected failure")
  | exception Failure _ -> ()

let test_topology_parse_errors () =
  expect_parse_failure "no switches" "link 0 1 1\n";
  expect_parse_failure "out of range" "switches 2\nlink 0 5 1\n";
  expect_parse_failure "bad number" "switches 2\nlink 0 1 abc\n";
  expect_parse_failure "self loop" "switches 2\nlink 1 1 1\n";
  expect_parse_failure "unknown directive" "switches 2\nfrobnicate 1\n";
  expect_parse_failure "double declaration" "switches 2\nswitches 3\n";
  expect_parse_failure "negative servers" "switches 2\nservers 0 -1\n"

let test_topology_file_roundtrip () =
  let topo = Dcn_topology.Fat_tree.create ~k:4 () in
  let path = Filename.temp_file "topo" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Topology_io.save path topo;
      let restored = Topology_io.load path in
      Alcotest.(check bool) "file roundtrip" true
        (Graph.equal_structure topo.Topology.graph restored.Topology.graph))

let test_traffic_roundtrip () =
  let servers = [| 3; 3; 3; 3 |] in
  let tm = Traffic.permutation (st ()) ~servers in
  let restored = Traffic_io.of_string (Traffic_io.to_string tm) in
  Alcotest.(check string) "name" tm.Traffic.name restored.Traffic.name;
  Alcotest.(check int) "flows per server" tm.Traffic.flows_per_server
    restored.Traffic.flows_per_server;
  Alcotest.(check bool) "demands" true (tm.Traffic.demands = restored.Traffic.demands)

let test_traffic_parse_errors () =
  let expect name text =
    match Traffic_io.of_string text with
    | _ -> Alcotest.fail (name ^ ": expected failure")
    | exception Failure _ -> ()
  in
  expect "intra-switch" "demand 1 1 1\n";
  expect "zero demand" "demand 0 1 0\n";
  expect "bad flows" "flows_per_server 0\n";
  expect "unknown" "nonsense 1 2\n"

let prop_topology_roundtrip =
  QCheck.Test.make ~name:"topology text roundtrip" ~count:40
    QCheck.(pair (int_range 1 5_000) (int_range 3 6))
    (fun (seed, r) ->
      let st = Random.State.make [| seed |] in
      let n = 2 * (4 + Random.State.int st 10) in
      QCheck.assume (r < n);
      let topo = Dcn_topology.Rrg.topology st ~n ~k:(r + 2) ~r in
      let restored = Topology_io.of_string (Topology_io.to_string topo) in
      Graph.equal_structure topo.Topology.graph restored.Topology.graph
      && topo.Topology.servers = restored.Topology.servers)

let test_traffic_file_roundtrip () =
  let servers = Array.make 6 2 in
  let tm = Traffic.chunky (st ()) ~servers ~fraction:0.5 in
  let path = Filename.temp_file "traffic" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Traffic_io.save path tm;
      let restored = Traffic_io.load path in
      Alcotest.(check bool) "demands preserved" true
        (tm.Traffic.demands = restored.Traffic.demands))

(* Every topology family must serialize losslessly, and the serialization
   must be canonical: parsing and re-serializing reproduces the exact
   bytes, which is what the result store's content addressing relies on. *)
let family_topologies () =
  let st = st () in
  [
    ("rrg", Dcn_topology.Rrg.topology st ~n:16 ~k:8 ~r:5);
    ("fat-tree", Dcn_topology.Fat_tree.create ~k:4 ());
    ("vl2", Dcn_topology.Vl2.create ~da:4 ~di:4 ());
    ("bcube", Dcn_topology.Bcube.create ~n:3 ~k:1);
    ("dcell", Dcn_topology.Dcell.create ~n:3 ~l:1);
    ("dragonfly", Dcn_topology.Dragonfly.create ~a:3 ~h:2 ());
    ("hypercube", Dcn_topology.Hypercube.topology ~dim:4 ~servers_per_switch:2);
    ( "torus",
      Dcn_topology.Torus.topology ~dims:[ 3; 3; 2 ] ~servers_per_switch:1 );
    ( "hetero",
      Dcn_topology.Hetero.two_class st
        ~large:{ Dcn_topology.Hetero.count = 3; ports = 8; servers_each = 2 }
        ~small:{ Dcn_topology.Hetero.count = 6; ports = 4; servers_each = 1 } );
  ]

let capacities topo =
  List.map (fun (_, _, c) -> c) (Graph.to_edge_list topo.Topology.graph)

let test_all_families_roundtrip () =
  List.iter
    (fun (family, topo) ->
      let text = Topology_io.to_string topo in
      let restored = Topology_io.of_string text in
      Alcotest.(check bool)
        (family ^ ": graph structure") true
        (Graph.equal_structure topo.Topology.graph restored.Topology.graph);
      Alcotest.(check bool)
        (family ^ ": capacities exact") true
        (capacities topo = capacities restored);
      Alcotest.(check (array int)) (family ^ ": servers") topo.Topology.servers
        restored.Topology.servers;
      Alcotest.(check (array int)) (family ^ ": clusters") topo.Topology.cluster
        restored.Topology.cluster;
      Alcotest.(check string) (family ^ ": name") topo.Topology.name
        restored.Topology.name;
      Alcotest.(check string)
        (family ^ ": canonical (parse . print idempotent)")
        text
        (Topology_io.to_string restored))
    (family_topologies ())

let test_traffic_generators_roundtrip () =
  let st = st () in
  let servers = [| 2; 3; 0; 1; 2; 2 |] in
  let matrices =
    [
      ("permutation", Traffic.permutation st ~servers);
      ("all-to-all", Traffic.all_to_all ~servers);
      ("chunky", Traffic.chunky st ~servers ~fraction:0.4);
    ]
  in
  List.iter
    (fun (gen, tm) ->
      let text = Traffic_io.to_string tm in
      let restored = Traffic_io.of_string text in
      Alcotest.(check bool)
        (gen ^ ": demands exact") true
        (List.sort compare tm.Traffic.demands
        = List.sort compare restored.Traffic.demands);
      Alcotest.(check int)
        (gen ^ ": flows per server")
        tm.Traffic.flows_per_server restored.Traffic.flows_per_server;
      Alcotest.(check string)
        (gen ^ ": canonical (parse . print idempotent)")
        text
        (Traffic_io.to_string restored))
    matrices

(* Awkward capacities (non-representable decimals, tiny and huge values)
   must survive the text format bit-for-bit. *)
let prop_capacity_exact =
  QCheck.Test.make ~name:"capacity text roundtrip exact" ~count:200
    QCheck.(pair pos_float (int_range 0 1000))
    (fun (cap, salt) ->
      QCheck.assume (Float.is_finite cap && cap > 0.0);
      let cap = cap +. (float_of_int salt *. 1e-7) in
      QCheck.assume (Float.is_finite cap && cap > 0.0);
      let topo =
        {
          Topology.name = "cap-test";
          graph = Graph.of_edges 2 [ (0, 1, cap) ];
          servers = [| 1; 1 |];
          cluster = [| 0; 0 |];
        }
      in
      let restored = Topology_io.of_string (Topology_io.to_string topo) in
      match Graph.to_edge_list restored.Topology.graph with
      | [ (0, 1, c) ] -> Int64.bits_of_float c = Int64.bits_of_float cap
      | _ -> false)

(* [float_of_string] reads "inf" and "nan"; neither is a demand. *)
let test_traffic_non_finite_demand () =
  List.iter
    (fun d ->
      match Traffic_io.of_string ("demand 0 1 " ^ d ^ "\n") with
      | _ -> Alcotest.fail (d ^ ": expected failure")
      | exception Failure _ -> ())
    [ "inf"; "nan" ]

let suite =
  ( "io",
    [
      Alcotest.test_case "topology roundtrip" `Quick test_topology_roundtrip;
      Alcotest.test_case "topology parsing" `Quick test_topology_parse_basics;
      Alcotest.test_case "parallel links" `Quick test_topology_parallel_links;
      Alcotest.test_case "topology parse errors" `Quick test_topology_parse_errors;
      Alcotest.test_case "topology file roundtrip" `Quick
        test_topology_file_roundtrip;
      Alcotest.test_case "traffic roundtrip" `Quick test_traffic_roundtrip;
      Alcotest.test_case "traffic parse errors" `Quick test_traffic_parse_errors;
      Alcotest.test_case "traffic non-finite demand" `Quick
        test_traffic_non_finite_demand;
      Alcotest.test_case "traffic file roundtrip" `Quick test_traffic_file_roundtrip;
      QCheck_alcotest.to_alcotest prop_topology_roundtrip;
      Alcotest.test_case "all families roundtrip + canonical" `Quick
        test_all_families_roundtrip;
      Alcotest.test_case "traffic generators roundtrip + canonical" `Quick
        test_traffic_generators_roundtrip;
      QCheck_alcotest.to_alcotest prop_capacity_exact;
    ] )
