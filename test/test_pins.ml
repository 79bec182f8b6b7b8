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
  pin "cold s1" ~lower:"0x1.c5ce5928d7b24p+0" ~upper:"0x1.db5bf4a97ecc1p+0"
    ~phases:165 (Mcmf_fptas.solve ~params g cs)

let test_cold_seed_2 () =
  let g, cs = instance ~seed:2 in
  pin "cold s2" ~lower:"0x1.c7fb5e7270d5dp+0" ~upper:"0x1.de662b1acd828p+0"
    ~phases:256 (Mcmf_fptas.solve ~params g cs)

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
  pin "warm" ~lower:"0x1.4959446891763p+0" ~upper:"0x1.588e7dc17f906p+0"
    ~phases:72 st.Mcmf_fptas.result

(* Failure re-solve after a 10% link failure: a cold solve of the
   survivor graph that starts from the baseline's dual bound. *)
let test_resolve_after_failure () =
  let g, cs = instance ~seed:4 in
  let base = Mcmf_fptas.solve_with_state ~params g cs in
  let st = Random.State.make [| 515; 1 |] in
  let masked, failed = Resilience.fail_arcs_connected st g ~fraction:0.1 in
  let delta =
    Mcmf_fptas.resolve_after_failure ~params ~warm:base.Mcmf_fptas.warm
      ~failed masked cs
  in
  pin "delta" ~lower:"0x1.cf263f7b28a25p-1" ~upper:"0x1.e219e523aeee1p-1"
    ~phases:172 delta.Mcmf_fptas.result

(* Failure re-solves against a tighter baseline: a solve of the seed-4
   instance at gap 0.025 (group-tracked unless told otherwise, which must
   not matter), failures from the stream [[| fs; 1 |]], the re-solve at
   [params]. Besides the interval, each pin checks that the call routed
   every one of its phases itself ([fptas.phases]) and counted as one
   [fptas.delta_solves]. [carried] pins that the baseline's dual bound is
   the certified upper bound. The next three cases keep the names of the
   flow-reuse branches (precheck, peel-and-route, dead-weight drop) their
   instances were chosen to reach, so each pin's history reads through
   one name. *)
let delta_pin label ?(n = 24) ?(k = 6) ?(r = 5) ?(track_groups = true)
    ?(carried = false) ~fraction ~fs ~lower ~upper ~phases () =
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
        let snap = Metrics.snapshot () in
        Alcotest.(check int) (label ^ " fptas.delta_solves") 1
          (Metrics.counter_value snap "fptas.delta_solves");
        Alcotest.(check int) (label ^ " fptas.phases") phases
          (Metrics.counter_value snap "fptas.phases");
        delta)
  in
  pin label ~lower ~upper ~phases delta.Mcmf_fptas.result;
  if carried then
    Alcotest.(check string) (label ^ " carried upper bound")
      (Printf.sprintf "%h" base.Mcmf_fptas.result.Mcmf_fptas.lambda_upper)
      (Printf.sprintf "%h" delta.Mcmf_fptas.result.Mcmf_fptas.lambda_upper)

(* One failed link; the re-solve's own dual sweeps beat the carried
   bound. *)
let test_delta_one_link () =
  delta_pin "one link" ~fraction:0.017 ~fs:10 ~lower:"0x1.2cb251ef19b2ap+0"
    ~upper:"0x1.3a772caee5da3p+0" ~phases:129 ()

(* One failed link that leaves the optimum near the baseline's: the
   carried bound is the certified upper bound, reached in 30 phases. *)
let test_delta_carried_bound () =
  delta_pin "carried" ~carried:true ~fraction:0.017 ~fs:7
    ~lower:"0x1.3d92f75adc89ap+0" ~upper:"0x1.4c9a37187104ep+0" ~phases:30 ()

(* A denser instance (40 switches of degree 10), two failed links. *)
let test_delta_rrg40 () =
  delta_pin "rrg:40" ~n:40 ~k:15 ~r:10 ~fraction:0.005 ~fs:1
    ~lower:"0x1.08aad77de3834p+0" ~upper:"0x1.151496f9b8049p+0" ~phases:131
    ()

(* The first pin's failure against an untracked baseline: the same
   answer. *)
let test_delta_no_groups () =
  delta_pin "no groups" ~track_groups:false ~fraction:0.1 ~fs:515
    ~lower:"0x1.cf263f7b28a25p-1" ~upper:"0x1.e219e523aeee1p-1" ~phases:172
    ()

(* ---- pins above the sweep's fan-out threshold ----

   The pins above use instances whose dual sweep stays one plain loop.
   These solve rrg:100,24,12 (100 sources on 1,200 arcs), large enough
   that the sweep runs as pool chunks when workers exist. Besides the
   interval and phases, each pin checks an MD5 of the returned arrays'
   bits: the certified flow, the warm state's lengths and, when tracked,
   the group flows. A stop or an eps halving that kept a phase it should
   have discarded shows up in these digests. *)

let large_instance () = rrg_instance ~n:100 ~k:24 ~r:12 ~seed:1

let digest arrays =
  let b = Buffer.create 4096 in
  Array.iter
    (Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)))
    arrays;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pin_state label ~lower ~upper ~phases ~flow ~lengths ?gs_flow
    (st : Mcmf_fptas.solve_state) =
  pin label ~lower ~upper ~phases st.Mcmf_fptas.result;
  Alcotest.(check string) (label ^ " arc_flow digest") flow
    (digest [| st.Mcmf_fptas.result.Mcmf_fptas.arc_flow |]);
  Alcotest.(check string) (label ^ " w_lengths digest") lengths
    (digest [| st.Mcmf_fptas.warm.Mcmf_fptas.w_lengths |]);
  match (gs_flow, st.Mcmf_fptas.warm.Mcmf_fptas.w_group_flow) with
  | None, None -> ()
  | Some expected, Some gf ->
      Alcotest.(check string) (label ^ " gs_flow digest") expected (digest gf)
  | _ -> Alcotest.failf "%s: group flows present on one side only" label

(* Gap 0.03 halves eps twice: the routine coarse-to-fine halving, then
   one after a 30-phase stall. *)
let test_large_halving () =
  let g, cs = large_instance () in
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    (fun () ->
      let st =
        Mcmf_fptas.solve_with_state
          ~params:{ params with Mcmf_fptas.gap = 0.03 }
          g cs
      in
      Alcotest.(check int) "halving fptas.eps_halvings" 2
        (Metrics.counter_value (Metrics.snapshot ()) "fptas.eps_halvings");
      pin_state "halving" ~lower:"0x1.d4ef81dfe5d1cp-2"
        ~upper:"0x1.e2ea31e4cd9c6p-2" ~phases:234
        ~flow:"1fd0a63f15e09c4e740bb5ebd1947964"
        ~lengths:"a794a6c81562d54a1e4fef0db5476aa6" st)

(* Out of budget after 12 phases, far from the gap. *)
let test_large_budget () =
  let g, cs = large_instance () in
  let st =
    Mcmf_fptas.solve_with_state
      ~params:{ params with Mcmf_fptas.max_phases = 12 }
      g cs
  in
  Alcotest.(check bool) "budget converged" false
    st.Mcmf_fptas.result.Mcmf_fptas.converged;
  pin_state "budget" ~lower:"0x1.6969696969697p-2"
    ~upper:"0x1.ebda3a2f366bfp-2" ~phases:12
    ~flow:"6e010fa6362403887c9dccffa52aa280"
    ~lengths:"bd135a93bea82ce3c15505f9a906a1ae" st

let large_tracked () =
  let g, cs = large_instance () in
  (g, cs, Mcmf_fptas.solve_with_state ~params ~track_groups:true g cs)

let test_large_tracked () =
  let _, _, st = large_tracked () in
  pin_state "tracked" ~lower:"0x1.ce9e89bf06811p-2"
    ~upper:"0x1.e57b9c67b5c74p-2" ~phases:129
    ~flow:"e3bec6476ea3851346616d50771ee025"
    ~lengths:"3546929a47d0be745d807399401f0a5f"
    ~gs_flow:"48171d61d41d57a6a297943f18bd350c" st

(* A tracked failure re-solve of the tracked baseline: 74 phases. *)
let test_large_delta () =
  let g, cs, base = large_tracked () in
  let st = Random.State.make [| 1; 1 |] in
  let masked, failed = Resilience.fail_arcs_connected st g ~fraction:0.005 in
  let delta =
    Mcmf_fptas.resolve_after_failure
      ~params:{ params with Mcmf_fptas.gap = 0.07 }
      ~track_groups:true ~warm:base.Mcmf_fptas.warm ~failed masked cs
  in
  pin_state "large delta" ~lower:"0x1.c53ef368eb05bp-2"
    ~upper:"0x1.e30094b0262cep-2" ~phases:74
    ~flow:"bbc6a9dbe4acfac9b199b830e4603a3d"
    ~lengths:"48981028d8528612471bc92efe550879"
    ~gs_flow:"6a3510927009fb55d5c80d51110f5ff5" delta

let test_large_paths () =
  let g, cs = large_instance () in
  let r = Mcmf_paths.solve ~params g (Mcmf_paths.of_k_shortest g ~k:4 cs) in
  pin "paths" ~lower:"0x1.97f2beefb944fp-2" ~upper:"0x1.ac37e73ef08eep-2"
    ~phases:245 r;
  Alcotest.(check string) "paths arc_flow digest"
    "fe9cb01b026f431351c7bbb47c403a45"
    (digest [| r.Mcmf_fptas.arc_flow |])

(* The four path-restricted solves of `topobench routing rrg:100,24,12
   --seed 1`, in its order and with its instance and parameters: VLB
   draws from the traffic generator's advanced state. With pool workers,
   path sets this size are built as pool chunks, and every solve's
   routing pass also reads the dual bound's α. *)
let test_routing_paths () =
  let topo = Rrg.topology (Random.State.make [| 1 |]) ~n:100 ~k:24 ~r:12 in
  let g = topo.Topology.graph in
  let st = Random.State.make [| 1; 1 |] in
  let cs =
    Traffic.to_commodities
      (Traffic.permutation st ~servers:topo.Topology.servers)
  in
  let params = { params with Mcmf_fptas.eps = 0.05 } in
  let check label ~lower ~upper ~phases ~flow rcs =
    let r = Mcmf_paths.solve ~params g rcs in
    pin label ~lower ~upper ~phases r;
    Alcotest.(check string) (label ^ " arc_flow digest") flow
      (digest [| r.Mcmf_fptas.arc_flow |])
  in
  check "routing ksp:8" ~lower:"0x1.c609a90e7d955p-2"
    ~upper:"0x1.dc9948703c301p-2" ~phases:127
    ~flow:"30ae3d0db21c65212fdb5ac2313c667b"
    (Mcmf_paths.of_k_shortest g ~k:8 cs);
  check "routing ecmp" ~lower:"0x1.249249249248fp-3"
    ~upper:"0x1.330ddfcd4cb62p-3" ~phases:45
    ~flow:"567dc95b9dfbb1d641a4d6b73e6482d6"
    (Mcmf_paths.of_ecmp g ~limit:64 cs);
  check "routing vlb:8" ~lower:"0x1.855a0b5c1b6aap-2"
    ~upper:"0x1.98ad1100ff1b3p-2" ~phases:263
    ~flow:"95913de7f8e64a3d997092cf0469dc9f"
    (Vlb.restrict st g ~intermediates:8 cs);
  check "routing single" ~lower:"0x1.9999999999996p-4"
    ~upper:"0x1.ac8b5d8ae2492p-4" ~phases:32
    ~flow:"5713cf2dfa50fc74d3a2f777a403b6e4"
    (Mcmf_paths.of_k_shortest g ~k:1 cs)

(* Keys keep the text they had while the dual-check cadence was a
   parameter, so stores written then still hit. The cadence argument
   survives only as the constant 1. *)
let test_digest_key () =
  let g, cs = instance ~seed:1 in
  let hex = "39940b5d2862a0e6d10004f401a9c68f" in
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
        test_delta_one_link;
      Alcotest.test_case "fptas delta peel, keep, route" `Quick
        test_delta_carried_bound;
      Alcotest.test_case "fptas delta dead-weight drop" `Quick
        test_delta_rrg40;
      Alcotest.test_case "fptas delta without group state" `Quick
        test_delta_no_groups;
      Alcotest.test_case "fptas rrg:100 eps halving" `Quick test_large_halving;
      Alcotest.test_case "fptas rrg:100 budget stop" `Quick test_large_budget;
      Alcotest.test_case "fptas rrg:100 tracked" `Quick test_large_tracked;
      Alcotest.test_case "fptas rrg:100 delta-solve" `Quick test_large_delta;
      Alcotest.test_case "paths rrg:100 ksp:4" `Quick test_large_paths;
      Alcotest.test_case "routing rrg:100 restricted solves" `Quick
        test_routing_paths;
      Alcotest.test_case "digest key" `Quick test_digest_key;
    ] )
