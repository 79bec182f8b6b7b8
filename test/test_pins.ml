(* Bit-for-bit pins of the unrestricted FPTAS and the solve digest. The
   expected values are the [%h] renderings of certified intervals and the
   phase counts of fixed instances: any change to the solver's float
   trajectory (length init, rescale, congestion, dual sweeps, stopping or
   eps halving) shows up here, not only as a shifted-but-valid interval.
   A deliberate change of the numbers must bump
   [Digest_key.solver_version] and re-pin. *)

open Dcn_flow
module Rrg = Dcn_topology.Rrg
module Topology = Dcn_topology.Topology
module Resilience = Dcn_topology.Resilience
module Traffic = Dcn_traffic.Traffic
module Digest_key = Dcn_store.Digest_key

let params = { Mcmf_fptas.eps = 0.1; gap = 0.05; max_phases = 100_000 }

let instance ~seed =
  let st = Random.State.make [| seed |] in
  let topo = Rrg.topology st ~n:24 ~k:6 ~r:5 in
  let tm = Traffic.permutation st ~servers:topo.Topology.servers in
  (topo.Topology.graph, Traffic.to_commodities tm)

let pin label ~lower ~upper ~phases (r : Mcmf_fptas.result) =
  Alcotest.(check string) (label ^ " lambda_lower") lower
    (Printf.sprintf "%h" r.Mcmf_fptas.lambda_lower);
  Alcotest.(check string) (label ^ " lambda_upper") upper
    (Printf.sprintf "%h" r.Mcmf_fptas.lambda_upper);
  Alcotest.(check int) (label ^ " phases") phases r.Mcmf_fptas.phases

let test_cold_seed_1 () =
  let g, cs = instance ~seed:1 in
  pin "cold s1" ~lower:"0x1.c5cc4c3950cdp+0" ~upper:"0x1.db6843887b441p+0"
    ~phases:384 (Mcmf_fptas.solve ~params g cs)

let test_cold_seed_2 () =
  let g, cs = instance ~seed:2 in
  pin "cold s2" ~lower:"0x1.c8faca59c033ap+0" ~upper:"0x1.de83c00ed5a38p+0"
    ~phases:375 (Mcmf_fptas.solve ~params g cs)

(* Warm start across a demand change: the seed's lengths and reached eps
   carry over, the demand scale is recomputed. *)
let test_warm_start () =
  let g, cs = instance ~seed:3 in
  let seed = Mcmf_fptas.solve_with_state ~params g cs in
  let scaled =
    Array.map
      (fun (c : Commodity.t) ->
        { c with Commodity.demand = c.Commodity.demand *. 1.3 })
      cs
  in
  let st =
    Mcmf_fptas.solve_with_state ~params ~warm:seed.Mcmf_fptas.warm g scaled
  in
  pin "warm" ~lower:"0x1.490c80fcb5a26p+0" ~upper:"0x1.588d94d9d42c3p+0"
    ~phases:65 st.Mcmf_fptas.result

(* Delta-solve after a 10% link failure: peeling, tree repair, re-ship,
   precheck and (if needed) further phases. *)
let test_resolve_after_failure () =
  let g, cs = instance ~seed:4 in
  let base = Mcmf_fptas.solve_with_state ~params ~track_groups:true g cs in
  let st = Random.State.make [| 515; 1 |] in
  let masked, failed = Resilience.fail_arcs_connected st g ~fraction:0.1 in
  let delta =
    Mcmf_fptas.resolve_after_failure ~params ~warm:base.Mcmf_fptas.warm
      ~failed masked cs
  in
  pin "delta" ~lower:"0x1.d0a2abcd97695p-1" ~upper:"0x1.dec787f155e98p-1"
    ~phases:159 delta.Mcmf_fptas.result

(* Keys keep the text they had while the dual-check cadence was a
   parameter, so stores written then still hit. The cadence argument
   survives only as the constant 1. *)
let test_digest_key () =
  let g, cs = instance ~seed:1 in
  let hex = "08e5f12baeb7b59b9c2771673ea6e305" in
  Alcotest.(check string) "of_solve hex" hex
    (Digest_key.of_solve ~kind:"fptas" ~params g cs);
  Alcotest.(check string) "explicit cadence 1" hex
    (Digest_key.of_solve ~kind:"fptas" ~params ~dual_check_every:1 g cs);
  Alcotest.check_raises "other cadence"
    (Invalid_argument "Digest_key.of_solve: dual_check_every must be 1")
    (fun () ->
      ignore
        (Digest_key.of_solve ~kind:"fptas" ~params ~dual_check_every:8 g cs))

let suite =
  ( "pins",
    [
      Alcotest.test_case "fptas cold seed 1" `Quick test_cold_seed_1;
      Alcotest.test_case "fptas cold seed 2" `Quick test_cold_seed_2;
      Alcotest.test_case "fptas warm start" `Quick test_warm_start;
      Alcotest.test_case "fptas resolve after failure" `Quick
        test_resolve_after_failure;
      Alcotest.test_case "digest key" `Quick test_digest_key;
    ] )
