(* The FPTAS builds each phase's per-source shortest-path trees on the
   domain pool. Every answer must be bit-identical at any worker count:
   the same intervals, phases, flows, lengths and group flows with the
   pool off, at one worker and at three, for cold, group-tracked and
   failure re-solves, and for solves that themselves run inside a pool
   task.
   The instance is large enough that the sweep goes to the pool rather
   than staying a plain loop. *)

open Dcn_flow
module Pool = Dcn_util.Pool
module Rrg = Dcn_topology.Rrg
module Topology = Dcn_topology.Topology
module Resilience = Dcn_topology.Resilience
module Traffic = Dcn_traffic.Traffic
module Metrics = Dcn_obs.Metrics

let params = { Mcmf_fptas.eps = 0.1; gap = 0.05; max_phases = 100_000 }

(* 96 sources on 768 arcs. *)
let instance seed =
  let st = Random.State.make [| seed |] in
  let topo = Rrg.topology st ~n:96 ~k:16 ~r:8 in
  let tm = Traffic.permutation st ~servers:topo.Topology.servers in
  (topo.Topology.graph, Traffic.to_commodities tm)

let with_workers n f =
  let old = Pool.workers () in
  Pool.set_workers n;
  Fun.protect ~finally:(fun () -> Pool.set_workers old) f

let worker_counts = [ 0; 1; 3 ]

(* [f] at every worker count; each answer is checked against the
   answer with the pool off. *)
let across_workers f check =
  match List.map (fun w -> (w, with_workers w f)) worker_counts with
  | (_, serial) :: rest ->
      List.iter (fun (w, x) -> check (Printf.sprintf "workers %d" w) serial x) rest
  | [] -> assert false

let same_floats label a b =
  Alcotest.(check int) (label ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float b.(i)))
      then Alcotest.failf "%s: entry %d differs (%h vs %h)" label i x b.(i))
    a

let same_result label (a : Mcmf_fptas.result) (b : Mcmf_fptas.result) =
  let h = Printf.sprintf "%h" in
  Alcotest.(check string) (label ^ " lambda_lower") (h a.lambda_lower)
    (h b.lambda_lower);
  Alcotest.(check string) (label ^ " lambda_upper") (h a.lambda_upper)
    (h b.lambda_upper);
  Alcotest.(check int) (label ^ " phases") a.phases b.phases;
  same_floats (label ^ " arc_flow") a.arc_flow b.arc_flow

let same_state label (a : Mcmf_fptas.solve_state) (b : Mcmf_fptas.solve_state) =
  same_result label a.result b.result;
  let wa = a.warm and wb = b.warm in
  same_floats (label ^ " w_lengths") wa.w_lengths wb.w_lengths;
  match (wa.w_group_flow, wb.w_group_flow) with
  | None, None -> ()
  | Some ga, Some gb ->
      Array.iteri
        (fun gi f ->
          same_floats (Printf.sprintf "%s group %d flow" label gi) f gb.(gi))
        ga
  | _ -> Alcotest.failf "%s: group flows present on one side only" label

let test_cold () =
  let g, cs = instance 1 in
  across_workers
    (fun () -> Mcmf_fptas.solve ~params g cs)
    (fun w a b -> same_result ("cold " ^ w) a b);
  (* With a worker, every phase's sweep is a pool batch. *)
  with_workers 1 (fun () ->
      Metrics.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Metrics.set_enabled false;
          Metrics.reset ())
        (fun () ->
          let r = Mcmf_fptas.solve ~params g cs in
          Alcotest.(check int) "one sweep batch per phase" r.phases
            (Metrics.counter_value (Metrics.snapshot ()) "pool.batches")))

let test_track_groups () =
  let g, cs = instance 2 in
  across_workers
    (fun () -> Mcmf_fptas.solve_with_state ~params ~track_groups:true g cs)
    (fun w a b -> same_state ("tracked " ^ w) a b)

(* The baseline is solved once; only the failure re-solve, which starts
   from the baseline's dual bound, runs at each worker count. *)
let test_resolve_after_failure () =
  let g, cs = instance 3 in
  let base = Mcmf_fptas.solve_with_state ~params ~track_groups:true g cs in
  let st = Random.State.make [| 5; 1 |] in
  let masked, failed = Resilience.fail_arcs_connected st g ~fraction:0.02 in
  across_workers
    (fun () ->
      Metrics.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Metrics.set_enabled false;
          Metrics.reset ())
        (fun () ->
          let d =
            Mcmf_fptas.resolve_after_failure ~params ~track_groups:true
              ~warm:base.warm ~failed masked cs
          in
          Alcotest.(check int) "one delta-solve" 1
            (Metrics.counter_value (Metrics.snapshot ()) "fptas.delta_solves");
          d))
    (fun w a b -> same_state ("delta " ^ w) a b)

(* Gap 0.03 halves eps once on this instance: the phase routed ahead at
   the old eps is rolled back and routed again at the new one. *)
let test_halving () =
  let g, cs = instance 1 in
  across_workers
    (fun () ->
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
          Alcotest.(check int) "one eps halving" 1
            (Metrics.counter_value (Metrics.snapshot ()) "fptas.eps_halvings");
          st))
    (fun w a b -> same_state ("halving " ^ w) a b)

(* A budget stop rolls back the phase routed ahead, like convergence. *)
let test_budget () =
  let g, cs = instance 2 in
  across_workers
    (fun () ->
      Mcmf_fptas.solve_with_state
        ~params:{ params with Mcmf_fptas.max_phases = 7 }
        ~track_groups:true g cs)
    (fun w a b -> same_state ("budget " ^ w) a b)

(* Two solves as the tasks of one pool batch, as a figure sweep runs
   them: each solve's sweep is a batch nested in the outer one. *)
let test_nested () =
  let instances = [| instance 4; instance 5 |] in
  across_workers
    (fun () ->
      let out = Array.make 2 None in
      Pool.run ~total:2 (fun i ->
          let g, cs = instances.(i) in
          out.(i) <- Some (Mcmf_fptas.solve ~params g cs));
      Array.map Option.get out)
    (fun w a b ->
      Array.iteri (fun i r -> same_result (Printf.sprintf "nested %d %s" i w) r b.(i)) a)

(* Cancellation is checked between phases on the solving domain, so it
   still stops a solve whose sweeps run on the pool. *)
let test_cancel () =
  let g, cs = instance 1 in
  with_workers 1 (fun () ->
      let checks = ref 0 in
      Alcotest.check_raises "cancelled after a few phases" Mcmf_fptas.Cancelled
        (fun () ->
          Mcmf_fptas.with_cancel
            (fun () ->
              incr checks;
              !checks > 3)
            (fun () -> ignore (Mcmf_fptas.solve ~params g cs)));
      Alcotest.check_raises "cancelled at once" Mcmf_fptas.Cancelled (fun () ->
          Mcmf_fptas.with_cancel
            (fun () -> true)
            (fun () -> ignore (Mcmf_fptas.solve ~params g cs))))

let suite =
  ( "parallel sweep",
    [
      Alcotest.test_case "cold solve identical at any workers" `Quick test_cold;
      Alcotest.test_case "tracked solve identical at any workers" `Quick
        test_track_groups;
      Alcotest.test_case "delta-solve identical at any workers" `Quick
        test_resolve_after_failure;
      Alcotest.test_case "eps halving identical at any workers" `Quick
        test_halving;
      Alcotest.test_case "budget stop identical at any workers" `Quick
        test_budget;
      Alcotest.test_case "nested solves identical at any workers" `Quick
        test_nested;
      Alcotest.test_case "cancellation with the pool on" `Quick test_cancel;
    ] )
