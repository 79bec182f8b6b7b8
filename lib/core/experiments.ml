module Table = Dcn_util.Table
module Parallel = Dcn_util.Parallel
module Topology = Dcn_topology.Topology
module Rrg = Dcn_topology.Rrg
module Resilience = Dcn_topology.Resilience
module Traffic = Dcn_traffic.Traffic
module Mcmf_fptas = Dcn_flow.Mcmf_fptas
module Solve_cache = Dcn_store.Solve_cache
module Graph_metrics = Dcn_graph.Graph_metrics
module Aspl_bound = Dcn_bounds.Aspl_bound
module Throughput_bound = Dcn_bounds.Throughput_bound
module Clock = Dcn_obs.Clock

let rrg_throughput_ratio scale ~salt ~n ~r ~traffic =
  let servers_per_switch =
    match traffic with `Permutation s | `All_to_all s -> s
  in
  let measure st =
    let topo = Rrg.topology st ~n ~k:(r + servers_per_switch) ~r in
    let servers = topo.Topology.servers in
    let tm =
      match traffic with
      | `Permutation _ -> Traffic.permutation st ~servers
      | `All_to_all _ -> Traffic.all_to_all ~servers
    in
    let cs = Traffic.to_commodities tm in
    let result =
      Solve_cache.fptas ~params:scale.Scale.params topo.Topology.graph cs
    in
    let lambda = Dcn_flow.Gk_loop.midpoint result in
    (* The Theorem-1 bound treats every server-level flow as one unit;
       all-to-all has S(S-1) flows of unit demand, a permutation has S. *)
    let s = Traffic.num_servers ~servers in
    let flows =
      match traffic with `Permutation _ -> s | `All_to_all _ -> s * (s - 1)
    in
    lambda /. Throughput_bound.upper_bound ~n ~r ~flows
  in
  Scale.averaged scale ~salt measure

let rrg_aspl scale ~salt ~n ~r =
  let measure st =
    let g = Rrg.jellyfish st ~n ~r in
    Graph_metrics.aspl g
  in
  Scale.averaged scale ~salt measure

let degree_grid scale =
  if scale.Scale.dense then [ 3; 5; 7; 9; 11; 13; 15; 17; 20; 23; 26; 29; 33 ]
  else [ 3; 5; 9; 13; 19; 25; 33 ]

let size_grid scale =
  if scale.Scale.dense then [ 15; 20; 30; 40; 60; 80; 100; 120; 140; 160; 180; 200 ]
  else [ 15; 25; 40; 70; 120; 200 ]

(* All-to-all commodity counts grow as N²; past this size the paper notes
   its own simulator stops scaling, and we skip the series as well. *)
let all_to_all_size_limit = 80

let fig1a scale =
  let n = 40 in
  let t =
    Table.create
      ~header:
        [ "degree"; "a2a_ratio"; "perm10_ratio"; "perm5_ratio"; "perm5_std" ]
  in
  (* Grid points are independent (each derives its RNGs from its salt
     alone), so they run concurrently on the shared pool; rows are appended
     in grid order, keeping the table identical to a serial run. *)
  Parallel.map
    (fun r ->
      let a2a, _ = rrg_throughput_ratio scale ~salt:(100 + r) ~n ~r ~traffic:(`All_to_all 5) in
      let p10, _ = rrg_throughput_ratio scale ~salt:(200 + r) ~n ~r ~traffic:(`Permutation 10) in
      let p5, p5_std = rrg_throughput_ratio scale ~salt:(300 + r) ~n ~r ~traffic:(`Permutation 5) in
      [ float_of_int r; a2a; p10; p5; p5_std ])
    (degree_grid scale)
  |> List.iter (Table.add_floats t);
  t

let fig1b scale =
  let n = 40 in
  let t = Table.create ~header:[ "degree"; "observed_aspl"; "aspl_lower_bound" ] in
  Parallel.map
    (fun r ->
      let aspl, _ = rrg_aspl scale ~salt:(400 + r) ~n ~r in
      [ float_of_int r; aspl; Aspl_bound.d_star ~n ~r ])
    (degree_grid scale)
  |> List.iter (Table.add_floats t);
  t

let fig2a scale =
  let r = 10 in
  let t =
    Table.create
      ~header:[ "size"; "a2a_ratio"; "perm10_ratio"; "perm5_ratio"; "perm5_std" ]
  in
  Parallel.map
    (fun n ->
      let a2a =
        if n <= all_to_all_size_limit then begin
          let v, _ = rrg_throughput_ratio scale ~salt:(500 + n) ~n ~r ~traffic:(`All_to_all 5) in
          v
        end
        else Float.nan
      in
      let p10, _ = rrg_throughput_ratio scale ~salt:(600 + n) ~n ~r ~traffic:(`Permutation 10) in
      let p5, p5_std = rrg_throughput_ratio scale ~salt:(700 + n) ~n ~r ~traffic:(`Permutation 5) in
      [ float_of_int n; a2a; p10; p5; p5_std ])
    (size_grid scale)
  |> List.iter (Table.add_floats t);
  t

let fig2b scale =
  let r = 10 in
  let t = Table.create ~header:[ "size"; "observed_aspl"; "aspl_lower_bound" ] in
  Parallel.map
    (fun n ->
      let aspl, _ = rrg_aspl scale ~salt:(800 + n) ~n ~r in
      [ float_of_int n; aspl; Aspl_bound.d_star ~n ~r ])
    (size_grid scale)
  |> List.iter (Table.add_floats t);
  t

(* ------------------------------------------------------------------ *)
(* Warm-start sweep bench (bench --sweep-warm)                         *)

type sweep_warm_point = {
  swp_label : string;
  swp_cold_phases : int;
  swp_warm_phases : int;
  swp_cold_seconds : float;
  swp_warm_seconds : float;
  swp_cold_lower : float;
  swp_cold_upper : float;
  swp_warm_lower : float;
  swp_warm_upper : float;
  swp_certified : bool;
  swp_overlap : bool;
}

type sweep_warm_report = {
  swr_name : string;
  swr_requested_gap : float;
  swr_baseline_phases : int;
  swr_baseline_seconds : float;
  swr_points : sweep_warm_point list;
  swr_cold_phases : int;
  swr_warm_phases : int;
  swr_geomean_phases : float;
  swr_geomean_wall : float;
  swr_all_certified : bool;
  swr_all_overlap : bool;
}

let speedup_phases p =
  float_of_int p.swp_cold_phases /. float_of_int (max 1 p.swp_warm_phases)

let speedup_wall p = p.swp_cold_seconds /. Float.max 1e-9 p.swp_warm_seconds

let geomean = function
  | [] -> Float.nan
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

let sweep_warm_point ~label ~requested_gap ~(cold : Mcmf_fptas.result)
    ~cold_seconds ~(warm : Mcmf_fptas.solve_state) ~warm_seconds =
  let wr = warm.Mcmf_fptas.result in
  let gap_of (r : Mcmf_fptas.result) =
    (r.Mcmf_fptas.lambda_upper /. r.Mcmf_fptas.lambda_lower) -. 1.0
  in
  {
    swp_label = label;
    swp_cold_phases = cold.Mcmf_fptas.phases;
    swp_warm_phases = wr.Mcmf_fptas.phases;
    swp_cold_seconds = cold_seconds;
    swp_warm_seconds = warm_seconds;
    swp_cold_lower = cold.Mcmf_fptas.lambda_lower;
    swp_cold_upper = cold.Mcmf_fptas.lambda_upper;
    swp_warm_lower = wr.Mcmf_fptas.lambda_lower;
    swp_warm_upper = wr.Mcmf_fptas.lambda_upper;
    swp_certified =
      wr.Mcmf_fptas.converged && gap_of wr <= requested_gap +. 1e-9;
    (* Both certified intervals contain the true optimum, so they must
       intersect; a disjoint pair would falsify one certificate. *)
    swp_overlap =
      wr.Mcmf_fptas.lambda_lower <= cold.Mcmf_fptas.lambda_upper
      && cold.Mcmf_fptas.lambda_lower <= wr.Mcmf_fptas.lambda_upper;
  }

let sweep_warm_report ~name ~requested_gap ~baseline_phases ~baseline_seconds
    points =
  {
    swr_name = name;
    swr_requested_gap = requested_gap;
    swr_baseline_phases = baseline_phases;
    swr_baseline_seconds = baseline_seconds;
    swr_points = points;
    swr_cold_phases =
      List.fold_left (fun acc p -> acc + p.swp_cold_phases) 0 points;
    swr_warm_phases =
      List.fold_left (fun acc p -> acc + p.swp_warm_phases) 0 points;
    swr_geomean_phases = geomean (List.map speedup_phases points);
    swr_geomean_wall = geomean (List.map speedup_wall points);
    swr_all_certified = List.for_all (fun p -> p.swp_certified) points;
    swr_all_overlap = List.for_all (fun p -> p.swp_overlap) points;
  }

let sweep_warm_table report =
  let t =
    Table.create
      ~header:
        [ "point"; "cold_phases"; "warm_phases"; "speedup_phases";
          "cold_s"; "warm_s"; "speedup_wall"; "certified"; "overlap" ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          p.swp_label;
          string_of_int p.swp_cold_phases;
          string_of_int p.swp_warm_phases;
          Printf.sprintf "%.1f" (speedup_phases p);
          Printf.sprintf "%.4f" p.swp_cold_seconds;
          Printf.sprintf "%.4f" p.swp_warm_seconds;
          Printf.sprintf "%.1f" (speedup_wall p);
          string_of_bool p.swp_certified;
          string_of_bool p.swp_overlap;
        ])
    report.swr_points;
  Table.add_row t
    [
      "geomean";
      string_of_int report.swr_cold_phases;
      string_of_int report.swr_warm_phases;
      Printf.sprintf "%.1f" report.swr_geomean_phases;
      "";
      "";
      Printf.sprintf "%.1f" report.swr_geomean_wall;
      string_of_bool report.swr_all_certified;
      string_of_bool report.swr_all_overlap;
    ];
  t

let sweep_warm_failures scale =
  let params = scale.Scale.params in
  (* The baseline is solved at half the requested gap, so its dual bound,
     which the re-solve carries, is tight: after a small failure the
     re-solve's flow can certify against it before its own dual sweeps
     get there. Both legs call the solver directly (never the cache), so
     the timings compare compute against compute. *)
  let base_params =
    { params with Mcmf_fptas.gap = params.Mcmf_fptas.gap /. 2.0 }
  in
  let st = Random.State.make [| scale.Scale.seed; 16000 |] in
  (* Degree 10: a single link is a tenth of one switch's capacity, so a
     random small failure usually moves λ* by less than the gap — the
     regime where the carried dual bound stays within the gap of the
     survivor's optimum. (On sparse graphs — r = 5 say — one link is 20%
     of a switch and a lucky hit moves the optimum past any reasonable gap
     budget; the carried bound then cannot help.)
     The movement also shrinks with the failed link's share of total
     capacity, so the paper-scale sweep — whose gap budget is 0.03 rather
     than 0.08 — uses a twice-larger instance: one link out of 400 moves
     λ* about half as far as one out of 200, probing the same physics
     within the tighter budget. *)
  let n = if scale.Scale.dense then 80 else 40 in
  let topo = Rrg.topology st ~n ~k:15 ~r:10 in
  let g = topo.Topology.graph in
  let tm = Traffic.permutation st ~servers:topo.Topology.servers in
  let cs = Traffic.to_commodities tm in
  let t0 = Clock.now_ns () in
  let base =
    Mcmf_fptas.solve_with_state ~params:base_params g cs
  in
  let baseline_seconds = Clock.elapsed_s t0 in
  (* Fractions are chosen so the grid fails exactly 1 / 3 / 5 links
     (n·r/2 = 200 links quick, 400 dense). The grid is weighted toward
     single-link failures — by far the most common event in deployment
     failure traces — with multi-link points keeping the tail honest. *)
  let grid =
    if scale.Scale.dense then
      [
        (0.0025, 1); (0.0025, 2); (0.0025, 3); (0.0025, 4); (0.0025, 5);
        (0.0025, 6); (0.0075, 1); (0.0075, 2); (0.0125, 1); (0.0125, 2);
      ]
    else
      [ (0.005, 1); (0.005, 2); (0.005, 3); (0.005, 4); (0.015, 1);
        (0.025, 1) ]
  in
  let points =
    List.map
      (fun (fraction, fs) ->
        let fst_ =
          Random.State.make
            [| scale.Scale.seed; 16001; fs;
               int_of_float (fraction *. 1000.0) |]
        in
        let masked, failed =
          Resilience.fail_arcs_connected fst_ g ~fraction
        in
        let label =
          Printf.sprintf "f=%.3f s=%d (%d links)" fraction fs
            (List.length failed)
        in
        let tc = Clock.now_ns () in
        let cold = Mcmf_fptas.solve ~params masked cs in
        let cold_seconds = Clock.elapsed_s tc in
        let tw = Clock.now_ns () in
        let warm =
          Mcmf_fptas.resolve_after_failure ~params
            ~warm:base.Mcmf_fptas.warm ~failed masked cs
        in
        let warm_seconds = Clock.elapsed_s tw in
        sweep_warm_point ~label ~requested_gap:params.Mcmf_fptas.gap
          ~cold ~cold_seconds ~warm ~warm_seconds)
      grid
  in
  sweep_warm_report ~name:"failures" ~requested_gap:params.Mcmf_fptas.gap
    ~baseline_phases:base.Mcmf_fptas.result.Mcmf_fptas.phases
    ~baseline_seconds points

let fig3 scale =
  let r = 4 in
  let sizes =
    (* The Moore-bound boundaries for degree 4 (17, 53, 161, 485, 1457 at
       diameters 2..6) plus midpoints, to show the "curved step" shape. *)
    let boundaries =
      match Aspl_bound.level_boundaries ~r ~max_diameter:6 with
      | _diameter_one :: rest -> rest
      | [] -> []
    in
    let rec with_midpoints = function
      | a :: (b :: _ as rest) -> a :: ((a + b) / 2) :: with_midpoints rest
      | tail -> tail
    in
    if scale.Scale.dense then with_midpoints boundaries else boundaries
  in
  let t =
    Table.create ~header:[ "size"; "observed_aspl"; "aspl_lower_bound"; "ratio" ]
  in
  Parallel.map
    (fun n ->
      let aspl, _ = rrg_aspl scale ~salt:(900 + n) ~n ~r in
      let bound = Aspl_bound.d_star ~n ~r in
      [ float_of_int n; aspl; bound; aspl /. bound ])
    sizes
  |> List.iter (Table.add_floats t);
  t
