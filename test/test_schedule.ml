(* The length-step schedule both solvers share ([Gk_loop.run]): a cold
   solve (and a failure re-solve) starts at twice the requested eps,
   capped below 1; an 8-phase stall halves it to the requested eps, and
   from there a 30-phase stall halves it. Neither certificate depends on
   the step, so the schedule only moves the phase count; these tests pin
   its shape through the [eps] each phase's [dual_check] instant
   reports. *)

open Dcn_flow
module Rrg = Dcn_topology.Rrg
module Topology = Dcn_topology.Topology
module Resilience = Dcn_topology.Resilience
module Traffic = Dcn_traffic.Traffic
module Trace = Dcn_obs.Trace
module Json = Dcn_obs.Json

(* [f ()] and the [eps] arg of every [dual_check] instant it emitted, in
   phase order. *)
let traced_eps f =
  Trace.set_enabled true;
  Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    (fun () ->
      let x = f () in
      match Json.parse ("[" ^ Trace.serialize () ^ "]") with
      | Ok (Json.Arr events) ->
          let arg e k = Option.bind (Json.member "args" e) (Json.member k) in
          let checks =
            List.filter_map
              (fun e ->
                if Option.bind (Json.member "name" e) Json.to_string_opt
                   = Some "dual_check"
                then
                  Some
                    ( Option.get (Option.bind (arg e "phase") Json.to_int_opt),
                      Option.get (Option.bind (arg e "eps") Json.to_float_opt) )
                else None)
              events
          in
          let by_phase = List.sort (fun (a, _) (b, _) -> Int.compare a b) in
          (x, List.map snd (by_phase checks))
      | _ -> Alcotest.fail "trace does not parse")

(* Trace args are rounded to 6 significant digits. *)
let same_eps a b = Float.abs (a -. b) <= 1e-6 *. b

let check_eps label want got =
  if not (same_eps want got) then
    Alcotest.failf "%s: eps %g, expected %g" label got want

let test_start_eps () =
  List.iter
    (fun (eps, want) ->
      let got =
        Gk_loop.start_eps { Gk_loop.eps; gap = 0.05; max_phases = 1 }
      in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "start at eps %g" eps) want got)
    [ (0.01, 0.02); (0.05, 0.1); (0.1, 0.2); (0.25, 0.5); (0.3, 0.5);
      (0.6, 0.6); (0.9, 0.9) ]

(* One arc, one unit of flow a phase, and α at half the volume: [λ_lo] is
   1 and [λ_hi] 2 at every phase, so the gap never moves. The first
   halving comes after an 8-phase stall (phases 1-9 at 2·eps), the second
   after a 30-phase one (phases 10-39 at eps). *)
let test_schedule_shape () =
  let params = { Gk_loop.eps = 0.05; gap = 0.05; max_phases = 50 } in
  let cap = [| 1.0 |] and flow = [| 0.0 |] and lengths = [| 0.0 |] in
  let eps = ref (Gk_loop.start_eps params) in
  Gk_loop.init_lengths ~eps:!eps ~cap lengths;
  let route () =
    flow.(0) <- flow.(0) +. 1.0;
    lengths.(0) <- lengths.(0) *. (1.0 +. !eps)
  in
  let step ~lengths:frozen =
    route ();
    Gk_loop.volume ~cap frozen /. 2.0
  in
  let stats =
    { Gk_loop.routed = 0; discarded = 0; eps_halvings = 0; window = 0;
      route_ns = 0; dual_ns = 0; route_wait_ns = 0 }
  in
  let (phases, converged), eps_seen =
    traced_eps (fun () ->
        Gk_loop.run ~cat:"schedule" ~params ~stats ~eps ~cap ~flow ~lengths
          ~route ~step ~settle:(fun ~keep:_ -> ())
          ~best_dual:infinity
          ~finish:(fun ~flow:_ ~phases ~lo:_ ~hi:_ ~mu:_ ~converged ->
            (phases, converged)))
  in
  Alcotest.(check int) "budget spent" 50 phases;
  Alcotest.(check bool) "not converged" false converged;
  Alcotest.(check int) "two halvings" 2 stats.Gk_loop.eps_halvings;
  Alcotest.(check int) "two halvings and the stop rolled back" 3
    stats.Gk_loop.discarded;
  Alcotest.(check int) "one dual check per phase" 50 (List.length eps_seen);
  List.iteri
    (fun i got ->
      let p = i + 1 in
      let want = if p <= 9 then 0.1 else if p <= 39 then 0.05 else 0.025 in
      check_eps (Printf.sprintf "phase %d" p) want got)
    eps_seen

(* A real solve's trace: it starts at [start], holds it for at least 9
   phases (a stall needs a phase to compare with), then halves to exactly
   [requested]; every later change halves. *)
let check_cold_schedule label ~start ~requested eps_seen =
  (match eps_seen with
  | first :: _ -> check_eps (label ^ " first phase") start first
  | [] -> Alcotest.failf "%s: no dual check" label);
  let coarse = List.length (List.filter (fun e -> same_eps start e) eps_seen) in
  if coarse < 9 then
    Alcotest.failf "%s: first halving after %d phases, before a stall" label
      coarse;
  let rec changes = function
    | a :: (b :: _ as rest) ->
        if same_eps a b then changes rest else (a, b) :: changes rest
    | _ -> []
  in
  match changes eps_seen with
  | [] -> Alcotest.failf "%s: the step never left %g" label start
  | (_, first) :: rest ->
      check_eps (label ^ " first halving") requested first;
      List.iter
        (fun (a, b) -> check_eps (label ^ " later halving") (a /. 2.0) b)
        rest

let params = { Mcmf_fptas.eps = 0.1; gap = 0.05; max_phases = 100_000 }

let rrg_instance ~n ~k ~r ~seed =
  let st = Random.State.make [| seed |] in
  let topo = Rrg.topology st ~n ~k ~r in
  let tm = Traffic.permutation st ~servers:topo.Topology.servers in
  (topo.Topology.graph, Traffic.to_commodities tm)

let test_cold_solvers () =
  let g, cs = rrg_instance ~n:24 ~k:6 ~r:5 ~seed:1 in
  let r, eps_seen = traced_eps (fun () -> Mcmf_fptas.solve ~params g cs) in
  Alcotest.(check int) "fptas: one dual check per phase" r.Mcmf_fptas.phases
    (List.length eps_seen);
  check_cold_schedule "fptas" ~start:0.2 ~requested:0.1 eps_seen;
  let rcs = Mcmf_paths.of_k_shortest g ~k:4 cs in
  let params = { params with Mcmf_fptas.gap = 0.02 } in
  let _, eps_seen = traced_eps (fun () -> Mcmf_paths.solve ~params g rcs) in
  check_cold_schedule "paths" ~start:0.2 ~requested:0.1 eps_seen

(* A failure re-solve is a cold solve of the survivor graph: it restarts
   at the cold start step, not at the seed's reached one, so its first
   phase runs at 2·eps, whether or not the baseline tracked groups. *)
let test_resolve_step () =
  let resolve label ~n ~k ~r ~fraction ~fs ~track_groups =
    let g, cs = rrg_instance ~n ~k ~r ~seed:4 in
    let base =
      Mcmf_fptas.solve_with_state
        ~params:{ params with Mcmf_fptas.gap = 0.025 }
        ~track_groups g cs
    in
    Alcotest.(check bool) (label ^ ": seed reached the requested step") true
      (base.Mcmf_fptas.warm.Mcmf_fptas.w_eps <= params.Mcmf_fptas.eps);
    let masked, failed =
      Resilience.fail_arcs_connected (Random.State.make [| fs; 1 |]) g ~fraction
    in
    let delta, eps_seen =
      traced_eps (fun () ->
          Mcmf_fptas.resolve_after_failure ~params ~warm:base.Mcmf_fptas.warm
            ~failed masked cs)
    in
    let r = delta.Mcmf_fptas.result in
    Alcotest.(check int) (label ^ ": every phase is new") r.Mcmf_fptas.phases
      (List.length eps_seen);
    check_eps (label ^ ": first phase")
      (Gk_loop.start_eps params)
      (List.hd eps_seen)
  in
  resolve "rrg:40" ~n:40 ~k:15 ~r:10 ~fraction:0.005 ~fs:1
    ~track_groups:true;
  resolve "rrg:24 untracked" ~n:24 ~k:6 ~r:5 ~fraction:0.1 ~fs:515
    ~track_groups:false

(* [--eps 0.9] parses, validates, and solves at 0.9: twice it would be
   past 1, so the cap keeps the start at the requested step. *)
let test_large_eps () =
  let cmd =
    Cmdliner.Cmd.v (Cmdliner.Cmd.info "solve")
      Cmdliner.Term.(
        const Core.Cli.params_of $ Core.Cli.eps_arg $ Core.Cli.gap_arg)
  in
  let params =
    let argv = [| "solve"; "--eps"; "0.9"; "--gap"; "0.1" |] in
    match Cmdliner.Cmd.eval_value ~argv cmd with
    | Ok (`Ok p) -> p
    | _ -> Alcotest.fail "--eps 0.9 rejected"
  in
  Gk_loop.validate params;
  Alcotest.(check (float 0.0)) "start capped" 0.9 (Gk_loop.start_eps params);
  let g, cs = rrg_instance ~n:16 ~k:5 ~r:4 ~seed:2 in
  let exact = (Mcmf_exact.solve g cs).Mcmf_exact.lambda in
  let brackets label (r : Mcmf_fptas.result) =
    if not (r.Mcmf_fptas.lambda_lower <= exact +. 1e-6
            && exact <= r.Mcmf_fptas.lambda_upper +. 1e-6) then
      Alcotest.failf "%s: [%g, %g] misses the LP optimum %g" label
        r.Mcmf_fptas.lambda_lower r.Mcmf_fptas.lambda_upper exact
  in
  let r, eps_seen = traced_eps (fun () -> Mcmf_fptas.solve ~params g cs) in
  check_eps "fptas first phase" 0.9 (List.hd eps_seen);
  Alcotest.(check bool) "fptas converged" true r.Mcmf_fptas.converged;
  brackets "fptas" r;
  let r = Mcmf_paths.solve ~params g (Mcmf_paths.of_k_shortest g ~k:4 cs) in
  Alcotest.(check bool) "paths converged" true r.Mcmf_fptas.converged;
  brackets "paths (a lower bound)" { r with Mcmf_fptas.lambda_upper = infinity }

let suite =
  ( "step schedule",
    [
      Alcotest.test_case "start step" `Quick test_start_eps;
      Alcotest.test_case "coarse window, then the 30-phase rule" `Quick
        test_schedule_shape;
      Alcotest.test_case "cold solves start coarse" `Quick test_cold_solvers;
      Alcotest.test_case "restart starts coarse" `Quick test_resolve_step;
      Alcotest.test_case "eps 0.9 under the cap" `Quick test_large_eps;
    ] )
