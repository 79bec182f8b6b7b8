(* The degraded serving tier: certified upper bounds instead of 503s.

   Under queue pressure the engine answers solves with cheap,
   instance-rigorous upper bounds on λ* rather than rejecting:

   - capacity bound C / Σⱼ dⱼ·dist(sⱼ,tⱼ) (LP-duality hop-count
     argument; valid for any topology, any demands, and a fortiori for
     restricted routing, whose λ* can only be lower);
   - cut bound C̄ / (cross-cluster demand) when the topology is
     clustered and some demand crosses (every crossing unit must
     traverse the cut);

   and reports min of the applicable bounds as lambda/lambda_upper with
   lambda_lower 0 — the response certifies [0, B] where the full tier
   certifies [λ_lo, λ_hi], and is marked "tier": "bound" so clients can
   tell. The Theorem-1 d* form N·r/(d*·ΣD) is attached informationally
   for degree-regular unit-capacity graphs (it is an expectation bound
   over uniform flows, not an instance guarantee, so it never caps the
   certified value).

   BFS distance tables are the only real cost, and the batch dispatcher
   memoizes them per topology, so a shed batch of K traffic variants
   costs one BFS sweep — this is what lets the tier absorb a queue
   flood. *)

module Json = Dcn_obs.Json
module Request = Dcn_serve.Request
module Server = Dcn_serve.Server

let m_bound = Dcn_obs.Metrics.counter "engine.shed.bound"

type bound_terms = {
  capacity : float;
  cut : float option;
  dstar : float option;  (* informational only *)
}

let compute_terms ~dist (resolved : Request.resolved) =
  let topo = resolved.Request.topo in
  let g = topo.Dcn_topology.Topology.graph in
  let cs = resolved.Request.commodities in
  let capacity =
    Dcn_bounds.Throughput_bound.upper_bound_capacity_dist
      ~total_capacity:(Dcn_graph.Graph.total_capacity g)
      ~dist cs
  in
  let cut =
    let cluster = topo.Dcn_topology.Topology.cluster in
    let clustered = Array.exists (fun c -> c <> cluster.(0)) cluster in
    if not clustered then None
    else begin
      let crossing = ref 0.0 in
      Array.iter
        (fun (c : Dcn_flow.Commodity.t) ->
          if cluster.(c.src) <> cluster.(c.dst) then
            crossing := !crossing +. c.demand)
        cs;
      if !crossing <= 0.0 then None
      else
        Some (Dcn_topology.Topology.cross_cluster_capacity topo /. !crossing)
    end
  in
  let dstar =
    let n = Dcn_graph.Graph.n g in
    if n < 2 then None
    else
      let r = Dcn_graph.Graph.degree g 0 in
      let regular =
        r >= 3
        && (let ok = ref true in
            for v = 1 to n - 1 do
              if Dcn_graph.Graph.degree g v <> r then ok := false
            done;
            !ok)
        && Float.equal (Dcn_graph.Graph.total_capacity g) (float_of_int (n * r))
      in
      if not regular then None
      else
        let d = Dcn_bounds.Aspl_bound.d_star ~n ~r in
        let demand = Dcn_flow.Commodity.total_demand cs in
        if d <= 0.0 || demand <= 0.0 then None
        else Some (float_of_int (n * r) /. (d *. demand))
  in
  { capacity; cut; dstar }

let certified terms =
  match terms.cut with
  | Some c -> Float.min terms.capacity c
  | None -> terms.capacity

(* Opens with Server.answer_head so clients parse one schema; the tier
   marker and the open lower end are the only semantic differences. *)
let bound_body ~digest ~req ~resolved ~terms =
  let lambda = certified terms in
  let optional name =
    Option.fold ~none:[] ~some:(fun x -> [ (name, Json.Num x) ])
  in
  Json.pretty
    (Server.answer_head ~digest ~req ~resolved
    @ [
        ("tier", Json.Str "bound");
        ("lambda", Json.Num lambda);
        ("lambda_lower", Json.Num 0.0);
        ("lambda_upper", Json.Num lambda);
        ("bound_capacity", Json.Num terms.capacity);
      ]
    @ optional "bound_cut" terms.cut
    @ optional "bound_dstar" terms.dstar
    @ [ ("shed", Json.Bool true) ])

let json_headers = [ ("Content-Type", "application/json") ]

(* The bound-tier counterpart of Server.solve_resolved: the same
   deadline pre-check (Server.deadline), a bound computation instead of a
   solve. Never cached (a later full answer must be able to replace it)
   and never coalesced (it is cheaper than the rendezvous would be). *)
let bound_served srv ~accept_ns ~dist ~digest (req : Request.t)
    (resolved : Request.resolved) : Server.served =
  match Server.deadline srv ~accept_ns ~digest req with
  | Error expired -> expired
  | Ok _ ->
      let terms = compute_terms ~dist resolved in
      Dcn_obs.Metrics.incr m_bound;
      {
        Server.resp =
          Dcn_serve.Http.response ~headers:json_headers 200
            (bound_body ~digest ~req ~resolved ~terms);
        sv_digest = Some digest;
        sv_role = Some "bound";
      }
