let upper_bound ~n ~r ~flows =
  if flows < 1 then invalid_arg "Throughput_bound.upper_bound: no flows";
  let d = Aspl_bound.d_star ~n ~r in
  float_of_int (n * r) /. (d *. float_of_int flows)

let upper_bound_with_aspl ~n ~r ~flows ~aspl =
  if flows < 1 then invalid_arg "Throughput_bound: no flows";
  if aspl <= 0.0 then invalid_arg "Throughput_bound: non-positive ASPL";
  float_of_int (n * r) /. (aspl *. float_of_int flows)

let upper_bound_capacity_dist ~total_capacity ~dist commodities =
  if Array.length commodities = 0 then
    invalid_arg "Throughput_bound.upper_bound_capacity_dist: no commodities";
  let sum = ref 0.0 in
  let disconnected = ref false in
  Array.iter
    (fun (c : Dcn_flow.Commodity.t) ->
      let d = (dist c.src).(c.dst) in
      if d = max_int then disconnected := true
      else sum := !sum +. (c.demand *. float_of_int d))
    commodities;
  (* Commodities have distinct endpoints and positive demand, so a
     connected instance always has a positive hop-weighted demand sum. *)
  if !disconnected then 0.0 else total_capacity /. !sum

let upper_bound_capacity g commodities =
  Dcn_flow.Mcmf_fptas.theorem1_bound
    ~mean_dist:(Dcn_flow.Mcmf_fptas.mean_distance g commodities)
    g commodities
