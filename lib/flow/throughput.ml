open Dcn_graph

type solver =
  | Fptas of Mcmf_fptas.params
  | Exact

type t = {
  lambda : float;
  lambda_bounds : float * float;
  utilization : float;
  mean_shortest_path : float;
  stretch : float;
  arc_flow : float array;
}

let compute ?(solver = Fptas Mcmf_fptas.default_params) g commodities =
  let mean_shortest_path, lambda_bounds, arc_flow =
    match solver with
    | Fptas params ->
        (* One BFS sweep serves both ⟨D⟩ and the solver's demand scale. *)
        let mean_dist = Mcmf_fptas.mean_distance g commodities in
        let r =
          Mcmf_fptas.solve_with_mean_dist ~params ~mean_dist g commodities
        in
        (mean_dist, (r.lambda_lower, r.lambda_upper), r.Mcmf_fptas.arc_flow)
    | Exact ->
        let r = Mcmf_exact.solve g commodities in
        ( Mcmf_fptas.mean_distance g commodities,
          (r.lambda, r.lambda),
          r.Mcmf_exact.arc_flow )
  in
  let lambda = fst lambda_bounds in
  let total_flow = Array.fold_left ( +. ) 0.0 arc_flow in
  let utilization = total_flow /. Graph.total_capacity g in
  (* Delivered volume is λ·Σd; hop-volume of shortest routing would be
     λ·Σ(d·dist); the routed hop-volume is Σ_a flow(a). *)
  let delivered = lambda *. Commodity.total_demand commodities in
  let shortest_volume = delivered *. mean_shortest_path in
  let stretch = if shortest_volume > 0.0 then total_flow /. shortest_volume else 1.0 in
  { lambda; lambda_bounds; utilization; mean_shortest_path; stretch; arc_flow }

let lambda ?solver g commodities = (compute ?solver g commodities).lambda

let class_utilization g ~arc_flow ~cluster =
  let acc = Hashtbl.create 8 in
  Graph.iter_arcs g (fun a ->
      let cap = Graph.arc_cap g a in
      if cap > 0.0 then begin
        let cu = cluster.(Graph.arc_src g a) and cv = cluster.(Graph.arc_dst g a) in
        let key = (min cu cv, max cu cv) in
        let used, avail =
          try Hashtbl.find acc key with Not_found -> (0.0, 0.0)
        in
        Hashtbl.replace acc key (used +. arc_flow.(a), avail +. cap)
      end);
  (* Keys are unique in [acc], so ordering by key alone is total and never
     consults the float utilization. *)
  Hashtbl.fold (fun key (used, avail) l -> (key, used /. avail) :: l) acc []
  |> List.sort (fun ((a : int * int), _) ((b : int * int), _) -> compare a b)
