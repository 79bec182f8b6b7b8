(* Tests for warm-started FPTAS solves and failure re-solves:
   certification of warm results, agreement with cold certificates, the
   carried dual bound, masked failure sampling equivalence, cancellation
   atomicity of warm state, and the cache round-trip of full solve
   states. *)

open Dcn_graph
open Dcn_flow
module Rrg = Dcn_topology.Rrg
module Topology = Dcn_topology.Topology
module Resilience = Dcn_topology.Resilience
module Traffic = Dcn_traffic.Traffic
module Store = Dcn_store.Store
module Codec = Dcn_store.Codec
module Solve_cache = Dcn_store.Solve_cache
module Metrics = Dcn_obs.Metrics

let params = { Mcmf_fptas.eps = 0.1; gap = 0.08; max_phases = 100_000 }

(* Slack for comparing certified ratios after the final rescale by the
   demand scale (two float multiplications). *)
let ratio_slack = 1e-9

let certified (r : Mcmf_fptas.result) =
  r.Mcmf_fptas.converged
  && (r.Mcmf_fptas.lambda_upper /. r.Mcmf_fptas.lambda_lower) -. 1.0
     <= params.Mcmf_fptas.gap +. ratio_slack

(* Two certified intervals for the same instance must overlap: both
   contain the true optimum. *)
let overlap (a : Mcmf_fptas.result) (b : Mcmf_fptas.result) =
  a.Mcmf_fptas.lambda_lower <= b.Mcmf_fptas.lambda_upper *. (1.0 +. ratio_slack)
  && b.Mcmf_fptas.lambda_lower
     <= a.Mcmf_fptas.lambda_upper *. (1.0 +. ratio_slack)

let instance ?(n = 40) ?(r = 5) ?(seed = 11) () =
  let st = Random.State.make [| seed |] in
  let topo = Rrg.topology st ~n ~k:(r + 1) ~r in
  let tm = Traffic.permutation st ~servers:topo.Topology.servers in
  (topo.Topology.graph, Traffic.to_commodities tm)

(* ---- warm-start sweep: certification and agreement with cold ---- *)

let test_warm_sweep_certified () =
  let g, cs = instance () in
  (* A sweep over scaled copies of the demand vector on one n=40 RRG:
     every point warm-started from the previous one, every point also
     solved cold for reference. *)
  let scales = [ 1.0; 1.15; 1.3; 1.45; 1.6 ] in
  let warm = ref None in
  List.iter
    (fun s ->
      let cs_s =
        Array.map
          (fun (c : Commodity.t) ->
            { c with Commodity.demand = c.Commodity.demand *. s })
          cs
      in
      let cold = Mcmf_fptas.solve ~params g cs_s in
      let st =
        Mcmf_fptas.solve_with_state ~params ?warm:!warm g cs_s
      in
      warm := Some st.Mcmf_fptas.warm;
      let w = st.Mcmf_fptas.result in
      Alcotest.(check bool) "warm point certified" true (certified w);
      Alcotest.(check bool) "cold point certified" true (certified cold);
      Alcotest.(check bool) "intervals overlap" true (overlap cold w))
    scales

let test_warm_same_instance_fast () =
  let g, cs = instance ~n:24 ~r:4 ~seed:3 () in
  let first = Mcmf_fptas.solve_with_state ~params g cs in
  let again =
    Mcmf_fptas.solve_with_state ~params ~warm:first.Mcmf_fptas.warm g cs
  in
  Alcotest.(check bool) "certified" true (certified again.Mcmf_fptas.result);
  let cold_phases = first.Mcmf_fptas.result.Mcmf_fptas.phases in
  let warm_phases = again.Mcmf_fptas.result.Mcmf_fptas.phases in
  Alcotest.(check bool)
    (Printf.sprintf "fewer phases warm (%d < %d)" warm_phases cold_phases)
    true
    (warm_phases < cold_phases)

let test_warm_shape_mismatch_falls_back_cold () =
  let g, cs = instance ~n:24 ~r:4 ~seed:3 () in
  let g2, cs2 = instance ~n:30 ~r:4 ~seed:4 () in
  let seed_state = (Mcmf_fptas.solve_with_state ~params g cs).Mcmf_fptas.warm in
  let cold = Mcmf_fptas.solve ~params g2 cs2 in
  Metrics.set_enabled true;
  let warm, snap =
    Fun.protect
      ~finally:(fun () ->
        Metrics.set_enabled false;
        Metrics.reset ())
      (fun () ->
        let warm =
          Mcmf_fptas.solve_with_state ~params ~warm:seed_state g2 cs2
        in
        (warm, Metrics.snapshot ()))
  in
  (* The dropped seed leaves a cold solve, and the counters say so. *)
  Alcotest.(check int) "no warm start counted" 0
    (Metrics.counter_value snap "fptas.warm_starts");
  Alcotest.(check int) "no phases saved" 0
    (Metrics.counter_value snap "fptas.phases_saved");
  (* Incompatible seed is ignored: bit-identical to the cold solve. *)
  Alcotest.(check bool) "identical lower" true
    (Float.equal cold.Mcmf_fptas.lambda_lower
       warm.Mcmf_fptas.result.Mcmf_fptas.lambda_lower);
  Alcotest.(check bool) "identical upper" true
    (Float.equal cold.Mcmf_fptas.lambda_upper
       warm.Mcmf_fptas.result.Mcmf_fptas.lambda_upper)

let test_solve_with_state_matches_solve () =
  let g, cs = instance ~n:24 ~r:4 ~seed:5 () in
  let plain = Mcmf_fptas.solve ~params g cs in
  let st = Mcmf_fptas.solve_with_state ~params ~track_groups:true g cs in
  let r = st.Mcmf_fptas.result in
  Alcotest.(check bool) "same lower" true
    (Float.equal plain.Mcmf_fptas.lambda_lower r.Mcmf_fptas.lambda_lower);
  Alcotest.(check bool) "same upper" true
    (Float.equal plain.Mcmf_fptas.lambda_upper r.Mcmf_fptas.lambda_upper);
  Alcotest.(check int) "same phases" plain.Mcmf_fptas.phases
    r.Mcmf_fptas.phases;
  (* Tracked group flows must sum to the aggregate exactly. *)
  match st.Mcmf_fptas.warm.Mcmf_fptas.w_group_flow with
  | None -> Alcotest.fail "group flows missing"
  | Some gflow ->
      let m = Array.length r.Mcmf_fptas.arc_flow in
      let sum = Array.make m 0.0 in
      Array.iter
        (fun gf -> Array.iteri (fun a f -> sum.(a) <- sum.(a) +. f) gf)
        gflow;
      (* Compare shape: zero where aggregate is zero, positive where
         positive. (The aggregate in the result is normalized by μ, so
         compare supports rather than magnitudes.) *)
      Array.iteri
        (fun a f ->
          let agg = r.Mcmf_fptas.arc_flow.(a) in
          if (f > 0.0) <> (agg > 0.0) then
            Alcotest.fail "group flows do not match aggregate support")
        sum

(* ---- failure re-solves ---- *)

let test_delta_matches_cold () =
  let g, cs = instance ~n:24 ~r:5 ~seed:9 () in
  let base = Mcmf_fptas.solve_with_state ~params g cs in
  Alcotest.(check bool) "baseline certified" true
    (certified base.Mcmf_fptas.result);
  let base_upper = base.Mcmf_fptas.result.Mcmf_fptas.lambda_upper in
  (* Property over several sampled single-fraction failures: the
     re-solve's certified interval must agree with a cold solve of the
     same masked instance, and its upper bound can be no higher than the
     baseline's, which it starts from: removing capacity can only lower
     λ*. Per-point cost can go either way, so cheapness is asserted in
     aggregate over the grid. *)
  let delta_total = ref 0 and cold_total = ref 0 in
  for seed = 1 to 6 do
    let st = Random.State.make [| 515; seed |] in
    let masked, failed =
      Resilience.fail_arcs_connected st g ~fraction:0.1
    in
    let delta =
      Mcmf_fptas.resolve_after_failure ~params
        ~warm:base.Mcmf_fptas.warm ~failed masked cs
    in
    let cold = Mcmf_fptas.solve ~params masked cs in
    Alcotest.(check bool) "delta certified" true
      (certified delta.Mcmf_fptas.result);
    Alcotest.(check bool) "cold certified" true (certified cold);
    Alcotest.(check bool) "intervals overlap" true
      (overlap cold delta.Mcmf_fptas.result);
    Alcotest.(check bool) "upper bound at most the baseline's" true
      (delta.Mcmf_fptas.result.Mcmf_fptas.lambda_upper <= base_upper);
    delta_total := !delta_total + delta.Mcmf_fptas.result.Mcmf_fptas.phases;
    cold_total := !cold_total + cold.Mcmf_fptas.phases
  done;
  Alcotest.(check bool)
    (Printf.sprintf "delta cheaper in aggregate (%d < %d)" !delta_total
       !cold_total)
    true
    (!delta_total < !cold_total)

let test_delta_single_link () =
  let g, cs = instance ~n:20 ~r:5 ~seed:21 () in
  let base = Mcmf_fptas.solve_with_state ~params g cs in
  (* Fail one specific link that carries flow. *)
  let failed_arc = ref (-1) in
  (try
     Array.iteri
       (fun a f ->
         if f > 0.0 && a < Graph.arc_rev g a then begin
           failed_arc := a;
           raise Exit
         end)
       base.Mcmf_fptas.result.Mcmf_fptas.arc_flow
   with Exit -> ());
  Alcotest.(check bool) "found a loaded arc" true (!failed_arc >= 0);
  let masked = Graph.mask_arcs g ~arcs:[ !failed_arc ] in
  Alcotest.(check bool) "still connected" true (Graph.is_connected masked);
  let delta =
    Mcmf_fptas.resolve_after_failure ~params ~warm:base.Mcmf_fptas.warm
      ~failed:[ !failed_arc ] masked cs
  in
  let cold = Mcmf_fptas.solve ~params masked cs in
  Alcotest.(check bool) "certified" true (certified delta.Mcmf_fptas.result);
  Alcotest.(check bool) "overlaps cold" true
    (overlap cold delta.Mcmf_fptas.result);
  (* The flow must respect the failure: nothing on the masked arcs. *)
  let r = delta.Mcmf_fptas.result in
  Alcotest.(check bool) "no flow on failed arc" true
    (Float.equal r.Mcmf_fptas.arc_flow.(!failed_arc) 0.0
    && Float.equal r.Mcmf_fptas.arc_flow.(Graph.arc_rev g !failed_arc) 0.0)

let test_delta_commodity_mismatch_rejected () =
  let g, cs = instance ~n:20 ~r:5 ~seed:21 () in
  let base = Mcmf_fptas.solve_with_state ~params g cs in
  let other =
    Array.map
      (fun (c : Commodity.t) ->
        { c with Commodity.demand = c.Commodity.demand *. 2.0 })
      cs
  in
  Alcotest.check_raises "commodities must match"
    (Invalid_argument
       "Mcmf_fptas.resolve_after_failure: commodities differ from warm state")
    (fun () ->
      ignore
        (Mcmf_fptas.resolve_after_failure ~params ~warm:base.Mcmf_fptas.warm
           ~failed:[ 0 ] (Graph.mask_arcs g ~arcs:[ 0 ]) other))

(* ---- cancellation leaves no torn warm state ---- *)

let test_cancel_no_torn_state () =
  let g, cs = instance ~n:24 ~r:4 ~seed:3 () in
  let base = Mcmf_fptas.solve_with_state ~params ~track_groups:true g cs in
  let w = base.Mcmf_fptas.warm in
  let lengths_before = Array.copy w.Mcmf_fptas.w_lengths in
  let gflow_before =
    match w.Mcmf_fptas.w_group_flow with
    | Some gf -> Array.map Array.copy gf
    | None -> [||]
  in
  (* Force very fine params so the warm re-solve needs several phases,
     then cancel after a couple of cancellation checks. *)
  let tight = { Mcmf_fptas.eps = 0.02; gap = 0.005; max_phases = 100_000 } in
  let checks = ref 0 in
  let raised =
    try
      Mcmf_fptas.with_cancel
        (fun () ->
          incr checks;
          !checks > 2)
        (fun () ->
          ignore (Mcmf_fptas.solve_with_state ~params:tight ~warm:w g cs);
          false)
    with Mcmf_fptas.Cancelled -> true
  in
  Alcotest.(check bool) "cancelled" true raised;
  (* The seed state is untouched, bit for bit. *)
  Array.iteri
    (fun i x ->
      if not (Float.equal x w.Mcmf_fptas.w_lengths.(i)) then
        Alcotest.fail "warm lengths mutated by cancelled solve")
    lengths_before;
  (match w.Mcmf_fptas.w_group_flow with
  | Some gflow ->
      Array.iteri
        (fun gi gf ->
          Array.iteri
            (fun a x ->
              if not (Float.equal x gflow.(gi).(a)) then
                Alcotest.fail "warm group flow mutated by cancelled solve")
            gf)
        gflow_before
  | None -> ());
  (* And the state still works as a seed afterwards. *)
  let retry = Mcmf_fptas.solve_with_state ~params ~warm:w g cs in
  Alcotest.(check bool) "seed still usable" true
    (certified retry.Mcmf_fptas.result)

(* ---- masked failure sampling equivalence ---- *)

let test_fail_arcs_equivalent () =
  let g, _ = instance ~n:30 ~r:5 ~seed:8 () in
  List.iter
    (fun fraction ->
      let st1 = Random.State.make [| 99; 1 |] in
      let st2 = Random.State.make [| 99; 1 |] in
      let rebuilt = Resilience.fail_links st1 g ~fraction in
      let masked, failed = Resilience.fail_arcs st2 g ~fraction in
      Alcotest.(check bool) "same survivor" true
        (Graph.equal_structure rebuilt masked);
      Alcotest.(check int) "failed count"
        (Graph.num_edges g - Graph.num_edges rebuilt)
        (List.length failed);
      (* The RNG advanced identically: the next draw agrees. *)
      Alcotest.(check int) "rng in lockstep"
        (Random.State.int st1 1_000_000)
        (Random.State.int st2 1_000_000))
    [ 0.0; 0.1; 0.25 ]

(* ---- cached solve states ---- *)

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "dcn_warm_test.%d.%d" (Unix.getpid ()) !tmp_counter)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_shared_store f =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () ->
      let store = Store.open_store dir in
      Store.set_shared (Some store);
      Fun.protect ~finally:(fun () -> Store.set_shared None) (fun () -> f ()))

let states_equal (a : Mcmf_fptas.solve_state) (b : Mcmf_fptas.solve_state) =
  let ra = a.Mcmf_fptas.result and rb = b.Mcmf_fptas.result in
  Float.equal ra.Mcmf_fptas.lambda_lower rb.Mcmf_fptas.lambda_lower
  && Float.equal ra.Mcmf_fptas.lambda_upper rb.Mcmf_fptas.lambda_upper
  && ra.Mcmf_fptas.phases = rb.Mcmf_fptas.phases
  && ra.Mcmf_fptas.converged = rb.Mcmf_fptas.converged
  && Array.for_all2 Float.equal ra.Mcmf_fptas.arc_flow rb.Mcmf_fptas.arc_flow
  &&
  let wa = a.Mcmf_fptas.warm and wb = b.Mcmf_fptas.warm in
  wa.Mcmf_fptas.w_n = wb.Mcmf_fptas.w_n
  && wa.Mcmf_fptas.w_num_arcs = wb.Mcmf_fptas.w_num_arcs
  && Float.equal wa.Mcmf_fptas.w_scale wb.Mcmf_fptas.w_scale
  && Float.equal wa.Mcmf_fptas.w_eps wb.Mcmf_fptas.w_eps
  && wa.Mcmf_fptas.w_phases = wb.Mcmf_fptas.w_phases
  && Float.equal wa.Mcmf_fptas.w_dual wb.Mcmf_fptas.w_dual
  && Array.for_all2 Float.equal wa.Mcmf_fptas.w_lengths
       wb.Mcmf_fptas.w_lengths
  &&
  match (wa.Mcmf_fptas.w_group_flow, wb.Mcmf_fptas.w_group_flow) with
  | None, None -> true
  | Some ga, Some gb ->
      Array.for_all2 (fun x y -> Array.for_all2 Float.equal x y) ga gb
  | _ -> false

let test_state_codec_roundtrip () =
  let g, cs = instance ~n:16 ~r:4 ~seed:6 () in
  let st = Mcmf_fptas.solve_with_state ~params ~track_groups:true g cs in
  match Codec.fptas_state_of_string (Codec.fptas_state_to_string st) with
  | None -> Alcotest.fail "state did not decode"
  | Some decoded ->
      Alcotest.(check bool) "bit-exact round-trip" true
        (states_equal st decoded)

let test_cached_warm_chain_deterministic () =
  let g, cs = instance ~n:16 ~r:4 ~seed:6 () in
  let masked_of seed = Resilience.fail_arcs_connected
      (Random.State.make [| 31; seed |]) g ~fraction:0.1
  in
  let run_chain () =
    let base, base_link = Solve_cache.fptas_with_state ~params g cs in
    let masked, failed = masked_of 1 in
    let delta, _ =
      Solve_cache.fptas_delta ~params ~warm:base_link ~failed masked cs
    in
    (base, delta)
  in
  with_shared_store (fun () ->
      let b1, d1 = run_chain () in
      (* Second pass: everything answered from the store. *)
      let b2, d2 = run_chain () in
      Alcotest.(check bool) "baseline replays bit-identically" true
        (states_equal b1 b2);
      Alcotest.(check bool) "delta replays bit-identically" true
        (states_equal d1 d2);
      (* Tracking groups does not move the answer. *)
      let tracked =
        Mcmf_fptas.solve_with_state ~params ~track_groups:true g cs
      in
      Alcotest.(check bool) "tracked baseline, same result" true
        (tracked.Mcmf_fptas.result = b1.Mcmf_fptas.result))

let suite =
  ( "warm",
    [
      Alcotest.test_case "warm sweep certified" `Quick
        test_warm_sweep_certified;
      Alcotest.test_case "warm same instance fast" `Quick
        test_warm_same_instance_fast;
      Alcotest.test_case "warm shape mismatch cold" `Quick
        test_warm_shape_mismatch_falls_back_cold;
      Alcotest.test_case "with_state matches solve" `Quick
        test_solve_with_state_matches_solve;
      Alcotest.test_case "delta matches cold" `Quick test_delta_matches_cold;
      Alcotest.test_case "delta single link" `Quick test_delta_single_link;
      Alcotest.test_case "delta commodity mismatch" `Quick
        test_delta_commodity_mismatch_rejected;
      Alcotest.test_case "cancel leaves no torn state" `Quick
        test_cancel_no_torn_state;
      Alcotest.test_case "fail_arcs equivalent" `Quick
        test_fail_arcs_equivalent;
      Alcotest.test_case "state codec roundtrip" `Quick
        test_state_codec_roundtrip;
      Alcotest.test_case "cached warm chain deterministic" `Quick
        test_cached_warm_chain_deterministic;
    ] )
