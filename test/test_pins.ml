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
module Metrics = Dcn_obs.Metrics

let params = { Mcmf_fptas.eps = 0.1; gap = 0.05; max_phases = 100_000 }

let rrg_instance ~n ~k ~r ~seed =
  let st = Random.State.make [| seed |] in
  let topo = Rrg.topology st ~n ~k ~r in
  let tm = Traffic.permutation st ~servers:topo.Topology.servers in
  (topo.Topology.graph, Traffic.to_commodities tm)

let instance ~seed = rrg_instance ~n:24 ~k:6 ~r:5 ~seed

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

(* One pin per delta-solve branch. The baseline is a group-tracked solve
   of the seed-4 instance at gap 0.025, the failures come from the stream
   [[| fs; 1 |]], and the delta-solve runs at [params]. Besides the
   interval, each pin checks the phases the call itself routed
   ([w_executed]) and whether it counted as a delta-solve
   ([fptas.delta_solves]), which a fallback that discards the inherited
   flow before peeling does not. *)
let delta_pin label ?(n = 24) ?(k = 6) ?(r = 5) ?(track_groups = true)
    ~fraction ~fs ~lower ~upper ~phases ~executed ~delta_solves () =
  let g, cs = rrg_instance ~n ~k ~r ~seed:4 in
  let base =
    Mcmf_fptas.solve_with_state
      ~params:{ params with Mcmf_fptas.gap = 0.025 }
      ~track_groups g cs
  in
  let st = Random.State.make [| fs; 1 |] in
  let masked, failed = Resilience.fail_arcs_connected st g ~fraction in
  Metrics.set_enabled true;
  let delta =
    Fun.protect
      ~finally:(fun () ->
        Metrics.set_enabled false;
        Metrics.reset ())
      (fun () ->
        let delta =
          Mcmf_fptas.resolve_after_failure ~params ~warm:base.Mcmf_fptas.warm
            ~failed masked cs
        in
        Alcotest.(check int) (label ^ " fptas.delta_solves") delta_solves
          (Metrics.counter_value (Metrics.snapshot ()) "fptas.delta_solves");
        delta)
  in
  pin label ~lower ~upper ~phases delta.Mcmf_fptas.result;
  Alcotest.(check int) (label ^ " w_executed") executed
    delta.Mcmf_fptas.warm.Mcmf_fptas.w_executed

(* One failed link whose peeled flow re-ships onto the repaired trees:
   the inherited certificate is within the gap, so no phase is routed. *)
let test_delta_precheck () =
  delta_pin "precheck" ~fraction:0.017 ~fs:1 ~lower:"0x1.299b0fa8c276ap+0"
    ~upper:"0x1.35315ecbf1bbbp+0" ~phases:277 ~executed:0 ~delta_solves:1 ()

(* Peeling keeps most of the flow, the re-ship leaves the certificate
   between 1 + gap and 1 + 2·gap, so phases continue from the inherited
   ledger. *)
let test_delta_peel_keep_route () =
  delta_pin "peel" ~fraction:0.017 ~fs:2 ~lower:"0x1.39a00d781381p+0"
    ~upper:"0x1.48f12225f70acp+0" ~phases:534 ~executed:257 ~delta_solves:1 ()

(* The repaired certificate misses the gap by more than 2×: the inherited
   flow is dropped and the loop restarts from cold lengths with the
   carried dual bound. *)
let test_delta_dead_weight () =
  delta_pin "dead weight" ~n:40 ~k:15 ~r:10 ~fraction:0.005 ~fs:1
    ~lower:"0x1.0682773cae428p+0" ~upper:"0x1.12e5699fcb287p+0" ~phases:173
    ~executed:173 ~delta_solves:1 ()

(* The existing pin's instance without group state: nothing to peel, so
   the call restarts from cold lengths with the carried dual bound. *)
let test_delta_no_groups () =
  delta_pin "no groups" ~track_groups:false ~fraction:0.1 ~fs:515
    ~lower:"0x1.d0a2abcd97695p-1" ~upper:"0x1.dec787f155e98p-1" ~phases:159
    ~executed:159 ~delta_solves:0 ()

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
      Alcotest.test_case "fptas delta precheck certifies" `Quick
        test_delta_precheck;
      Alcotest.test_case "fptas delta peel, keep, route" `Quick
        test_delta_peel_keep_route;
      Alcotest.test_case "fptas delta dead-weight drop" `Quick
        test_delta_dead_weight;
      Alcotest.test_case "fptas delta without group state" `Quick
        test_delta_no_groups;
      Alcotest.test_case "digest key" `Quick test_digest_key;
    ] )
