(* The random generators against the reference copies in
   Generator_reference: the Jellyfish construction, the traffic generators
   that aggregate server pairs, and the configuration-model wiring must
   return the same graphs, demands and edge lists as the references, and
   leave their random streams in the same state. Failures must match too. *)

module Ref = Generator_reference
module Graph = Dcn_graph.Graph
module Rrg = Dcn_topology.Rrg
module Wiring = Dcn_topology.Wiring
module Traffic = Dcn_traffic.Traffic

(* A generator's result and the next draw of its stream, or the message of
   the exception it raised. *)
let run ~seed gen show =
  let st = Random.State.make [| seed |] in
  match gen st with
  | v -> Ok (show v, Random.State.bits st)
  | exception (Failure msg | Invalid_argument msg) -> Error msg

let same_run ~seed ~lib ~reference show =
  let a = run ~seed lib show and b = run ~seed reference show in
  match (a, b) with
  | Ok (ta, da), Ok (tb, db) -> String.equal ta tb && da = db
  | Error ma, Error mb -> String.equal ma mb
  | _ -> false

let graph_text g =
  String.concat ";"
    (List.map
       (fun (u, v, c) -> Printf.sprintf "%d %d %h" u v c)
       (Graph.to_edge_list g))

let edges_text edges =
  String.concat ";" (List.map (fun (u, v) -> Printf.sprintf "%d %d" u v) edges)

let traffic_text (t : Traffic.t) =
  String.concat ";"
    (t.Traffic.name
    :: string_of_int t.Traffic.flows_per_server
    :: List.map
         (fun (u, v, d) -> Printf.sprintf "%d %d %h" u v d)
         t.Traffic.demands)

(* ---- Rrg.jellyfish ---- *)

let same_jellyfish ~seed ~n ~r =
  same_run ~seed
    ~lib:(fun st -> Rrg.jellyfish st ~n ~r)
    ~reference:(fun st -> Ref.jellyfish st ~n ~r)
    graph_text

(* (n, r, seed) with n * r even; a third of the cases are dense (n <= 20,
   r >= n - 2), where the construction deadlocks most often. *)
let rrg_case =
  QCheck.Gen.(
    let* dense = int_bound 2 in
    let* n = if dense = 0 then int_range 4 20 else int_range 3 60 in
    let* r =
      if dense = 0 then int_range (max 2 (n - 2)) (n - 1)
      else int_range 2 (min (n - 1) 16)
    in
    let* seed = int_bound 10_000 in
    let n = if n * r mod 2 = 1 then n + 1 else n in
    return (n, r, seed))

let prop_jellyfish =
  QCheck.Test.make ~name:"jellyfish matches the reference" ~count:300
    (QCheck.make
       ~print:(fun (n, r, seed) -> Printf.sprintf "n=%d r=%d seed=%d" n r seed)
       rrg_case)
    (fun (n, r, seed) -> same_jellyfish ~seed ~n ~r)

let test_jellyfish_dense () =
  let before = Atomic.get Ref.splices in
  for n = 4 to 20 do
    for r = n - 2 to n - 1 do
      if r >= 2 && n * r mod 2 = 0 then
        for seed = 0 to 4 do
          if not (same_jellyfish ~seed ~n ~r) then
            Alcotest.failf "n=%d r=%d seed=%d differs" n r seed
        done
    done
  done;
  Alcotest.(check bool)
    "some builds reach the deadlock splice" true
    (Atomic.get Ref.splices - before > 10)

let test_jellyfish_served_sizes () =
  List.iter
    (fun (n, r, seed) ->
      if not (same_jellyfish ~seed ~n ~r) then
        Alcotest.failf "n=%d r=%d seed=%d differs" n r seed)
    [ (40, 8, 2001); (40, 8, 7919); (100, 12, 1); (200, 12, 1) ]

(* ---- Traffic generators ---- *)

(* Server placements with empty switches among the others. *)
let placement =
  QCheck.Gen.(
    array_size (int_range 1 12)
      (frequency [ (1, return 0); (3, int_range 1 6) ]))

let traffic_case = QCheck.Gen.(triple placement (float_bound_inclusive 1.0) int)

let prop_traffic =
  QCheck.Test.make ~name:"traffic generators match the reference" ~count:300
    (QCheck.make
       ~print:(fun (servers, fraction, seed) ->
         Printf.sprintf "servers=[%s] fraction=%h seed=%d"
           (String.concat ";" (Array.to_list (Array.map string_of_int servers)))
           fraction seed)
       traffic_case)
    (fun (servers, fraction, seed) ->
      let racks = Array.fold_left (fun a s -> if s > 0 then a + 1 else a) 0 servers in
      let same lib reference = same_run ~seed ~lib ~reference traffic_text in
      same
        (fun st -> Traffic.permutation st ~servers)
        (fun st -> Ref.Traffic.permutation st ~servers)
      && List.for_all
           (fun fraction ->
             same
               (fun st -> Traffic.chunky st ~servers ~fraction)
               (fun st -> Ref.Traffic.chunky st ~servers ~fraction))
           [ 0.0; fraction; 1.0 ]
      && List.for_all
           (fun targets ->
             same
               (fun st -> Traffic.hotspot st ~servers ~targets)
               (fun st -> Ref.Traffic.hotspot st ~servers ~targets))
           [ 1; max 1 (racks / 2); racks ])

(* ---- Wiring ---- *)

(* Stub arrays dominated by one or two hubs, so that parallel links (and
   sometimes self-loops) cannot all be repaired. *)
let hub_stubs =
  QCheck.Gen.(
    let* hubs = int_range 1 2 in
    let* hub_ports = int_range 3 9 in
    let* others = list_size (int_range 1 6) (int_range 1 3) in
    let degrees = List.init hubs (fun _ -> hub_ports) @ others in
    let stubs =
      List.concat (List.mapi (fun node d -> List.init d (fun _ -> node)) degrees)
    in
    return (Array.of_list stubs))

let wiring_case =
  QCheck.Gen.(
    quad hub_stubs bool (list_size (int_bound 3) (pair (int_bound 3) (int_bound 3))) int)

let print_wiring (stubs, avoid_multi, existing, seed) =
  Printf.sprintf "stubs=[%s] avoid_multi=%b existing=[%s] seed=%d"
    (String.concat ";" (Array.to_list (Array.map string_of_int stubs)))
    avoid_multi (edges_text existing) seed

let prop_matching =
  QCheck.Test.make ~name:"random_matching matches the reference" ~count:200
    (QCheck.make ~print:print_wiring wiring_case)
    (fun (stubs, avoid_multi, existing, seed) ->
      (* An even stub count; the odd case is rejected before any draw. *)
      let stubs =
        if Array.length stubs mod 2 = 1 then Array.append stubs [| 0 |] else stubs
      in
      same_run ~seed
        ~lib:(fun st -> Wiring.random_matching ~existing ~avoid_multi st stubs)
        ~reference:(fun st ->
          Ref.Wiring.random_matching ~existing ~avoid_multi st stubs)
        edges_text)

let prop_bipartite =
  QCheck.Test.make ~name:"random_bipartite_matching matches the reference"
    ~count:100
    (QCheck.make ~print:print_wiring wiring_case)
    (fun (stubs, avoid_multi, existing, seed) ->
      (* The hubs on the left; the right side's nodes are numbered after
         them, with stubs spread over few nodes so links repeat. *)
      let k = Array.length stubs in
      let right = Array.init k (fun i -> 20 + (i mod 3)) in
      same_run ~seed
        ~lib:(fun st ->
          Wiring.random_bipartite_matching ~existing ~avoid_multi st stubs right)
        ~reference:(fun st ->
          Ref.Wiring.random_bipartite_matching ~existing ~avoid_multi st stubs
            right)
        edges_text)

let suite =
  ( "generator oracle",
    [
      Alcotest.test_case "jellyfish dense cases" `Quick test_jellyfish_dense;
      Alcotest.test_case "jellyfish served sizes" `Quick
        test_jellyfish_served_sizes;
      QCheck_alcotest.to_alcotest prop_jellyfish;
      QCheck_alcotest.to_alcotest prop_traffic;
      QCheck_alcotest.to_alcotest prop_matching;
      QCheck_alcotest.to_alcotest prop_bipartite;
    ] )
