(** Theorem 1: the paper's throughput upper bound for homogeneous networks.

    For any r-regular topology on N switches carrying f uniform flows,
    TH(N, r, f) ≤ N·r / (⟨D⟩·f) ≤ N·r / (d*·f), with d* the
    {!Aspl_bound.d_star} lower bound. Fig. 1(a)/2(a) plot measured RRG
    throughput as a fraction of the d* form. *)

val upper_bound : n:int -> r:int -> flows:int -> float
(** The universal N·r / (d*·f) bound (unit link capacities). *)

val upper_bound_with_aspl : n:int -> r:int -> flows:int -> aspl:float -> float
(** N·r / (⟨D⟩·f) for a concrete topology's measured ASPL — tighter for
    that one topology, used in tests to sandwich the solver. *)

val upper_bound_capacity :
  Dcn_graph.Graph.t -> Dcn_flow.Commodity.t array -> float
(** Capacity form for arbitrary (heterogeneous) graphs:
    C / Σⱼ dⱼ·dist(sⱼ,tⱼ) with exact hop distances — the generalization
    used to normalize the FPTAS and to upper-bound λ in tests. One BFS
    sweep ({!Dcn_flow.Mcmf_fptas.mean_distance}), then
    {!Dcn_flow.Mcmf_fptas.theorem1_bound}: a caller holding ⟨D⟩ (a
    {!Dcn_flow.Throughput.t}'s [mean_shortest_path]) gets the same bits
    from the latter alone. *)

val upper_bound_capacity_dist :
  total_capacity:float ->
  dist:(int -> int array) ->
  Dcn_flow.Commodity.t array ->
  float
(** The same C / Σⱼ dⱼ·dist(sⱼ,tⱼ) bound with a caller-supplied
    hop-distance oracle ([dist src] as {!Dcn_graph.Bfs.distances}), so a
    batched server can share BFS trees across many traffic variants on
    one topology. Returns [0.] if some commodity's endpoints are
    disconnected — no positive λ routes that commodity. *)
