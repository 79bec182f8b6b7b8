(* Oracle tests for the path-restricted routing leg: Ksp, Ecmp, Vlb and
   Mcmf_paths must reproduce the list-based reference implementations in
   Routing_reference exactly — same paths in the same order, the same
   random draws, bit-identical solver output — on random jellyfish graphs
   with random link failures. *)

open Dcn_graph
module Ksp = Dcn_routing.Ksp
module Ecmp = Dcn_routing.Ecmp
module Vlb = Dcn_flow.Vlb
module Mcmf_paths = Dcn_flow.Mcmf_paths
module Mcmf_fptas = Dcn_flow.Mcmf_fptas
module Commodity = Dcn_flow.Commodity
module Ref = Routing_reference

(* Mask a random set of failed links, up to a fifth of them. *)
let fail_links st g =
  let edges = Array.of_list (Graph.to_edge_list_ids g) in
  let failures = Random.State.int st (1 + (Array.length edges / 5)) in
  let arcs =
    List.init failures (fun _ ->
        snd edges.(Random.State.int st (Array.length edges)))
  in
  Graph.mask_arcs g ~arcs

(* A jellyfish graph with n in 8..40 and r in 3..6, then failed links. *)
let failed_jellyfish st =
  let n = 8 + Random.State.int st 33 in
  let r = 3 + Random.State.int st 4 in
  let n = if n * r mod 2 = 1 then n + 1 else n in
  fail_links st (Dcn_topology.Rrg.jellyfish st ~n ~r)

let random_pair st n =
  let src = Random.State.int st n in
  let dst = (src + 1 + Random.State.int st (n - 1)) mod n in
  (src, dst)

(* Commodities over random pairs; a few pairs repeat, exercising the
   per-pair path-set caches. *)
let random_commodities st g count =
  let pairs = Array.init count (fun _ -> random_pair st (Graph.n g)) in
  Array.init count (fun i ->
      let src, dst =
        if i > 0 && Random.State.int st 4 = 0 then pairs.(Random.State.int st i)
        else pairs.(i)
      in
      Commodity.make ~src ~dst ~demand:(0.5 +. Random.State.float st 1.5))

let prop_ksp_matches_reference =
  QCheck.Test.make ~name:"Ksp = list-based reference (masked jellyfish)"
    ~count:60 QCheck.(int_range 1 100_000)
    (fun seed ->
      let st = Random.State.make [| seed; 14 |] in
      let g = failed_jellyfish st in
      let k = 1 + Random.State.int st 8 in
      List.for_all
        (fun _ ->
          let src, dst = random_pair st (Graph.n g) in
          Ksp.k_shortest g ~src ~dst ~k = Ref.k_shortest g ~src ~dst ~k
          && Ksp.shortest_path g ~src ~dst = Ref.shortest_path g ~src ~dst
          && Ksp.shortest_path g ~src ~dst:src = Some [])
        (List.init 6 Fun.id))

let prop_ecmp_matches_reference =
  QCheck.Test.make ~name:"Ecmp = unpruned reference DFS (masked jellyfish)"
    ~count:60 QCheck.(int_range 1 100_000)
    (fun seed ->
      let st = Random.State.make [| seed; 15 |] in
      let g = failed_jellyfish st in
      let limit = 1 + Random.State.int st 64 in
      List.for_all
        (fun _ ->
          let src, dst = random_pair st (Graph.n g) in
          Ecmp.shortest_paths g ~src ~dst ~limit
          = Ref.ecmp_paths g ~src ~dst ~limit)
        (List.init 6 Fun.id))

let same_path_sets (a : Mcmf_paths.commodity array) b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (x : Mcmf_paths.commodity) (y : Mcmf_paths.commodity) ->
         x.Mcmf_paths.src = y.Mcmf_paths.src
         && x.Mcmf_paths.dst = y.Mcmf_paths.dst
         && Float.equal x.Mcmf_paths.demand y.Mcmf_paths.demand
         && x.Mcmf_paths.paths = y.Mcmf_paths.paths)
       a b

(* The next draws agree iff both generators are in the same state. *)
let same_rng_state a b =
  List.for_all (fun _ -> Random.State.bits a = Random.State.bits b)
    (List.init 4 Fun.id)

let prop_vlb_matches_reference =
  QCheck.Test.make ~name:"Vlb = reference paths and RNG state (masked jellyfish)"
    ~count:60 QCheck.(int_range 1 100_000)
    (fun seed ->
      let st = Random.State.make [| seed; 16 |] in
      let g = failed_jellyfish st in
      let intermediates = Random.State.int st 9 in
      let cs = random_commodities st g (1 + Random.State.int st 12) in
      let st_new = Random.State.copy st and st_ref = Random.State.copy st in
      let restricted = Vlb.restrict st_new g ~intermediates cs in
      let expected = Ref.vlb_restrict st_ref g ~intermediates cs in
      let src, dst = random_pair st (Graph.n g) in
      let single = Vlb.paths st_new g ~src ~dst ~intermediates in
      let single_ref = Ref.vlb_paths st_ref g ~src ~dst ~intermediates in
      same_path_sets restricted expected
      && single = single_ref
      && same_rng_state st_new st_ref)

let same_result (a : Mcmf_paths.result) (b : Mcmf_paths.result) =
  Float.equal a.Mcmf_paths.lambda_lower b.Mcmf_paths.lambda_lower
  && Float.equal a.Mcmf_paths.lambda_upper b.Mcmf_paths.lambda_upper
  && Array.length a.Mcmf_paths.arc_flow = Array.length b.Mcmf_paths.arc_flow
  && Array.for_all2 Float.equal a.Mcmf_paths.arc_flow b.Mcmf_paths.arc_flow
  && a.Mcmf_paths.phases = b.Mcmf_paths.phases
  && Bool.equal a.Mcmf_paths.converged b.Mcmf_paths.converged

(* Path sets with at least one path per commodity: k-shortest sets over
   pairs that survived the failures. *)
let routable_instance st =
  let g = failed_jellyfish st in
  let k = 1 + Random.State.int st 8 in
  let cs =
    random_commodities st g (2 + Random.State.int st 12)
    |> Array.to_list
    |> List.filter (fun (c : Commodity.t) ->
           Ksp.shortest_path g ~src:c.Commodity.src ~dst:c.Commodity.dst <> None)
    |> Array.of_list
  in
  (g, Mcmf_paths.of_k_shortest g ~k cs)

let prop_paths_solver_matches_reference =
  QCheck.Test.make ~name:"Mcmf_paths.solve bit-identical to reference"
    ~count:40 QCheck.(int_range 1 100_000)
    (fun seed ->
      let st = Random.State.make [| seed; 17 |] in
      let g, rcs = routable_instance st in
      QCheck.assume (Array.length rcs > 0);
      let params =
        {
          Mcmf_fptas.eps = [| 0.05; 0.1; 0.2 |].(Random.State.int st 3);
          gap = [| 0.005; 0.02; 0.05 |].(Random.State.int st 3);
          max_phases = 400;
        }
      in
      same_result (Mcmf_paths.solve ~params g rcs) (Ref.solve ~params g rcs))

(* A tight gap on a contended instance makes the certified ratio stall, so
   the adaptive step halves eps past the requested step (the reference
   counts the halvings). *)
let test_solver_matches_reference_across_eps_halving () =
  let st = Random.State.make [| 1402 |] in
  let topo = Dcn_topology.Rrg.topology st ~n:20 ~k:8 ~r:5 in
  let g = topo.Dcn_topology.Topology.graph in
  let cs =
    Dcn_traffic.Traffic.to_commodities
      (Dcn_traffic.Traffic.permutation st
         ~servers:topo.Dcn_topology.Topology.servers)
  in
  let rcs = Mcmf_paths.of_k_shortest g ~k:4 cs in
  let params = { Mcmf_fptas.eps = 0.2; gap = 0.002; max_phases = 3000 } in
  let halvings = ref 0 in
  let expected = Ref.solve ~params ~halvings g rcs in
  (* The routine coarse-to-fine halving, then at least one stall halving. *)
  Alcotest.(check bool) "reference halved eps twice" true (!halvings >= 2);
  Alcotest.(check bool) "bit-identical result" true
    (same_result (Mcmf_paths.solve ~params g rcs) expected)

(* Path sets large enough to fan out to the pool: a masked rrg:100-sized
   jellyfish (100 switches of degree 12, so 28 distinct pairs already
   reach the fan-out threshold) and 150 commodities with repeated pairs,
   built with the pool off, at one worker and at three. *)
let prop_path_sets_across_workers =
  QCheck.Test.make
    ~name:"of_k_shortest, of_ecmp = reference at 0, 1, 3 workers (rrg:100)"
    ~count:3 QCheck.(int_range 1 100_000)
    (fun seed ->
      let st = Random.State.make [| seed; 18 |] in
      let g = fail_links st (Dcn_topology.Rrg.jellyfish st ~n:100 ~r:12) in
      let cs = random_commodities st g 150 in
      let k = 1 + Random.State.int st 8 and limit = 1 + Random.State.int st 64 in
      let expected enumerate =
        Array.map
          (fun (c : Commodity.t) ->
            let src = c.Commodity.src and dst = c.Commodity.dst in
            { Mcmf_paths.src; dst; demand = c.Commodity.demand;
              paths = enumerate ~src ~dst })
          cs
      in
      let ksp = expected (Ref.k_shortest g ~k)
      and ecmp = expected (Ref.ecmp_paths g ~limit) in
      List.for_all
        (fun workers ->
          Test_parallel_sweep.with_workers workers (fun () ->
              same_path_sets (Mcmf_paths.of_k_shortest g ~k cs) ksp
              && same_path_sets (Mcmf_paths.of_ecmp g ~limit cs) ecmp))
        Test_parallel_sweep.worker_counts)

let suite =
  ( "path oracle",
    [
      QCheck_alcotest.to_alcotest prop_ksp_matches_reference;
      QCheck_alcotest.to_alcotest prop_ecmp_matches_reference;
      QCheck_alcotest.to_alcotest prop_vlb_matches_reference;
      QCheck_alcotest.to_alcotest prop_paths_solver_matches_reference;
      QCheck_alcotest.to_alcotest prop_path_sets_across_workers;
      Alcotest.test_case "solver = reference across eps halving" `Quick
        test_solver_matches_reference_across_eps_halving;
    ] )
