(* Soundness of windowed primal certificates. When the flow of recent
   phases certifies a larger λ_lo than the whole history, the solver
   returns that window's flow, so the answer must hold up as a whole:
   the returned flow fits the capacities and ships λ_lo of every demand
   (checked through the routed stretch, which would drop below 1 if the
   window's λ were paired with any smaller flow), the interval brackets
   the LP optimum and stays under Theorem 1, and the tracked group flows
   stay the whole history. *)

open Dcn_graph
open Dcn_flow
module Metrics = Dcn_obs.Metrics
module Trace = Dcn_obs.Trace
module Json = Dcn_obs.Json

let all_to_all n =
  Array.of_list
    (List.concat_map
       (fun s ->
         List.filter_map
           (fun t ->
             if s = t then None else Some (Commodity.make ~src:s ~dst:t ~demand:1.0))
           (List.init n Fun.id))
       (List.init n Fun.id))

(* Random commodities with uneven demands on a small jellyfish graph. *)
let random_instance seed =
  let st = Random.State.make [| seed |] in
  let n = 10 + Random.State.int st 5 in
  let r = 3 + Random.State.int st 2 in
  let n = if n * r mod 2 = 1 then n + 1 else n in
  let g = Dcn_topology.Rrg.jellyfish st ~n ~r in
  let k = 3 + Random.State.int st 4 in
  let cs =
    Array.init k (fun _ ->
        let src = Random.State.int st n in
        let dst = (src + 1 + Random.State.int st (n - 1)) mod n in
        Commodity.make ~src ~dst ~demand:(0.5 +. Random.State.float st 1.5))
  in
  (g, cs)

let all_to_all_instance seed =
  let st = Random.State.make [| seed |] in
  (Dcn_topology.Rrg.jellyfish st ~n:8 ~r:3, all_to_all 8)

let coarse = { Mcmf_fptas.eps = 0.1; gap = 0.05; max_phases = 100_000 }
let fine = { Mcmf_fptas.eps = 0.05; gap = 0.01; max_phases = 100_000 }

(* Instances on which a window certifies the final answer. On the
   all-to-all ones the routed flow sits on shortest paths, so the stretch
   check has no slack to hide a flow that ships less than λ_lo. *)
let instances =
  [
    ("all-to-all rrg8 s1", all_to_all_instance 1, coarse);
    ("all-to-all rrg8 s4", all_to_all_instance 4, coarse);
    ("random s9", random_instance 9, fine);
    ("random s6", random_instance 6, fine);
  ]

let with_metrics f =
  Metrics.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())

let window_wins () =
  Metrics.counter_value (Metrics.snapshot ()) "fptas.window_wins"

let test_window_certificate_sound () =
  List.iter
    (fun (label, (g, cs), params) ->
      let t =
        with_metrics (fun () ->
            let t = Throughput.compute ~solver:(Throughput.Fptas params) g cs in
            Alcotest.(check int) (label ^ ": window won") 1 (window_wins ());
            t)
      in
      let lo, hi = t.Throughput.lambda_bounds in
      Graph.iter_arcs g (fun a ->
          let f = t.Throughput.arc_flow.(a) and c = Graph.arc_cap g a in
          if f > c *. (1.0 +. 1e-9) then
            Alcotest.failf "%s: arc %d carries %g > capacity %g" label a f c);
      if t.Throughput.stretch < 1.0 -. 1e-9 then
        Alcotest.failf "%s: stretch %.12f < 1: the flow ships less than λ_lo"
          label t.Throughput.stretch;
      let exact = (Mcmf_exact.solve g cs).Mcmf_exact.lambda in
      if not (lo <= exact +. 1e-6 && exact <= hi +. 1e-6) then
        Alcotest.failf "%s: [%g, %g] misses the LP optimum %g" label lo hi exact;
      let bound = Dcn_bounds.Throughput_bound.upper_bound_capacity g cs in
      if lo > bound *. (1.0 +. 1e-9) then
        Alcotest.failf "%s: λ_lo %g exceeds the Theorem-1 bound %g" label lo
          bound)
    instances

(* The tracked group flows are the whole history even when a window
   certified: [w_phases] is every phase run, and per source group
   the flow conserves at every node and ships [w_phases·d] out of the
   source in total and into each destination, in the solver's scaled
   units. *)
let test_window_group_ledgers () =
  List.iter
    (fun (label, (g, cs), params) ->
      let st =
        with_metrics (fun () ->
            let st = Mcmf_fptas.solve_with_state ~params ~track_groups:true g cs in
            Alcotest.(check int) (label ^ ": window won") 1 (window_wins ());
            st)
      in
      let w = st.Mcmf_fptas.warm in
      let phases = st.Mcmf_fptas.result.Mcmf_fptas.phases in
      Alcotest.(check int) (label ^ ": ledger is every phase") phases
        w.Mcmf_fptas.w_phases;
      let gf =
        match w.Mcmf_fptas.w_group_flow with
        | Some gf -> gf
        | None -> Alcotest.failf "%s: group flows missing" label
      in
      let scaled =
        Array.map
          (fun (c : Commodity.t) ->
            { c with Commodity.demand = c.Commodity.demand *. w.Mcmf_fptas.w_scale })
          cs
      in
      let groups = Commodity.group_by_source ~n:(Graph.n g) scaled in
      let p = float_of_int w.Mcmf_fptas.w_phases in
      Array.iteri
        (fun gi (s, dests) ->
          let f = gf.(gi) in
          let net = Array.make (Graph.n g) 0.0 in
          Graph.iter_arcs g (fun a ->
              if f.(a) < 0.0 then
                Alcotest.failf "%s: group %d has negative flow on arc %d"
                  label gi a;
              let u = Graph.arc_src g a and v = Graph.arc_dst g a in
              net.(u) <- net.(u) +. f.(a);
              net.(v) <- net.(v) -. f.(a));
          let expected = Array.make (Graph.n g) 0.0 in
          List.iter
            (fun (t, d) ->
              expected.(s) <- expected.(s) +. (p *. d);
              expected.(t) <- expected.(t) -. (p *. d))
            dests;
          let tol = 1e-9 *. expected.(s) in
          Array.iteri
            (fun v e ->
              if Float.abs (net.(v) -. e) > tol then
                Alcotest.failf "%s: group %d node %d nets %.12g, expected %.12g"
                  label gi v net.(v) e)
            expected)
        groups)
    instances

(* The dual-check instants carry the certificate: the last one's [hi/lo]
   is its [ratio] and its [window] is the winning window's start. *)
let test_dual_check_trace_args () =
  let _, (g, cs), params = List.hd instances in
  Trace.set_enabled true;
  Trace.reset ();
  let r, events =
    Fun.protect
      ~finally:(fun () ->
        Trace.set_enabled false;
        Trace.reset ())
      (fun () ->
        let r = Mcmf_fptas.solve ~params g cs in
        match Json.parse ("[" ^ Trace.serialize () ^ "]") with
        | Ok (Json.Arr events) -> (r, events)
        | _ -> Alcotest.fail "trace does not parse")
  in
  let checks =
    List.filter
      (fun e ->
        Option.bind (Json.member "name" e) Json.to_string_opt = Some "dual_check")
      events
  in
  Alcotest.(check int) "one dual check per phase" r.Mcmf_fptas.phases
    (List.length checks);
  let last = List.nth checks (List.length checks - 1) in
  let arg k =
    match Option.bind (Json.member "args" last) (Json.member k) with
    | Some v -> v
    | None -> Alcotest.failf "dual_check lacks %s" k
  in
  let num k = Option.get (Json.to_float_opt (arg k)) in
  Alcotest.(check int) "phase" r.Mcmf_fptas.phases
    (Option.get (Json.to_int_opt (arg "phase")));
  let window = Option.get (Json.to_int_opt (arg "window")) in
  if not (window > 0 && window < r.Mcmf_fptas.phases) then
    Alcotest.failf "window start %d outside (0, %d)" window r.Mcmf_fptas.phases;
  let ratio = num "hi" /. num "lo" in
  if Float.abs (ratio -. num "ratio") > 1e-5 *. ratio then
    Alcotest.failf "hi/lo = %g but ratio = %g" ratio (num "ratio")

let suite =
  ( "window",
    [
      Alcotest.test_case "window certificate is sound" `Quick
        test_window_certificate_sound;
      Alcotest.test_case "group ledgers stay whole history" `Quick
        test_window_group_ledgers;
      Alcotest.test_case "dual_check trace args" `Quick
        test_dual_check_trace_args;
    ] )
