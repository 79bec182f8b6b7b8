(** The load-shedding tier: certified cheap bounds instead of 503s.

    When the engine is under queue pressure, solve requests are answered
    with instance-rigorous upper bounds on λ* — the capacity bound
    C / Σⱼ dⱼ·dist(sⱼ,tⱼ) and, for clustered topologies with crossing
    demand, the cut bound C̄ / crossing-demand — rendered in the same
    response schema as a full solve but marked ["tier": "bound"] with
    [lambda = lambda_upper = min(applicable bounds)] and
    [lambda_lower = 0]. The certified interval [0, B] always contains
    the full tier's [λ_lo, λ_hi]: B ≥ λ* ≥ λ_lo, and B·(1+gap) ≥ λ_hi
    whenever B ≥ λ* (the FPTAS promises λ_hi ≤ λ*·(1+gap)); restricted
    routing modes only lower λ*, so the bound stays valid. The paper's
    Theorem-1 d* form is attached as an informational [bound_dstar]
    field for degree-regular unit-capacity graphs only. *)

type bound_terms = {
  capacity : float;  (** C / Σⱼ dⱼ·dist(sⱼ,tⱼ); always applicable. *)
  cut : float option;
      (** C̄ / cross-cluster demand; [None] when unclustered or nothing
          crosses. *)
  dstar : float option;
      (** Theorem-1 N·r/(d*·ΣD), informational — an expectation bound,
          never part of the certified value. *)
}

val compute_terms :
  dist:(int -> int array) -> Dcn_serve.Request.resolved -> bound_terms
(** [dist] is a hop-distance oracle ({!Dcn_graph.Bfs.distances}); the
    batch dispatcher memoizes it per topology so a shed batch costs one
    BFS sweep across all its traffic variants. *)

val certified : bound_terms -> float
(** The certified upper bound: min of capacity and cut terms. *)

val bound_served :
  Dcn_serve.Server.t ->
  accept_ns:int64 ->
  dist:(int -> int array) ->
  digest:string ->
  Dcn_serve.Request.t ->
  Dcn_serve.Request.resolved ->
  Dcn_serve.Server.served
(** Render one bound-tier answer (role ["bound"], counted in
    [engine.shed.bound]). A request whose deadline has passed (its
    [timeout_s], else the server's default) gets the same 504 as the
    full tier ({!Dcn_serve.Server.deadline}). *)
