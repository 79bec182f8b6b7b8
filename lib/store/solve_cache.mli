(** Drop-in cached variants of the flow solvers.

    Each function behaves exactly like its {!Dcn_flow} counterpart when no
    store is installed ({!Store.set_shared}); with a store, results are
    looked up by the content address of the request ({!Digest_key}) and
    computed-and-published on a miss. Because the key covers the full
    canonical request (graph, commodities, parameters, solver version)
    and the codec round-trips floats exactly, a hit returns a result
    bit-identical to recomputation — the determinism guarantee of the
    parallel engine extends across process restarts.

    Safe to call from pool workers: lookups and publishes are atomic and
    the shared handle's counters are {!Atomic}. *)

val fptas :
  ?params:Dcn_flow.Mcmf_fptas.params ->
  Dcn_graph.Graph.t ->
  Dcn_flow.Commodity.t array ->
  Dcn_flow.Mcmf_fptas.result
(** Cached {!Dcn_flow.Mcmf_fptas.solve} (same defaults, same exceptions
    for invalid inputs — validation runs before the cache is consulted on
    a hit only if the entry decodes; invalid requests never get cached
    because the solver raises before {!Store.add}). *)

(** {1 Warm-started variants}

    Warm chains stay both cached and deterministic: each link's key names
    its seed's key ([wl_from], recursively content-addressed via the
    digest's warm-provenance lines), and the cached payload carries the
    full warm state bit-exactly, so replaying any prefix of a chain from
    the store yields the same bits as computing it live. Entries live
    under their own kind ("fptas-state") and never collide with {!fptas}
    entries. *)

type warm_link = {
  wl_state : Dcn_flow.Mcmf_fptas.warm_state;
  wl_from : Digest_key.t;  (** Content address of the producing entry. *)
}

val fptas_with_state :
  ?params:Dcn_flow.Mcmf_fptas.params ->
  ?warm:warm_link ->
  Dcn_graph.Graph.t ->
  Dcn_flow.Commodity.t array ->
  Dcn_flow.Mcmf_fptas.solve_state * warm_link
(** Cached {!Dcn_flow.Mcmf_fptas.solve_with_state}. The returned link
    packages this solve's warm state with its own key, ready to pass as
    [?warm] to the next point of a sweep (or to {!fptas_delta}). *)

val fptas_delta :
  ?params:Dcn_flow.Mcmf_fptas.params ->
  warm:warm_link ->
  failed:int list ->
  Dcn_graph.Graph.t ->
  Dcn_flow.Commodity.t array ->
  Dcn_flow.Mcmf_fptas.solve_state * warm_link
(** Cached {!Dcn_flow.Mcmf_fptas.resolve_after_failure}; [g] is the
    masked survivor graph (e.g. from
    {!Dcn_topology.Resilience.fail_arcs}). The failed arc ids participate
    in the key alongside the seed's address. *)

val fptas_lambda :
  ?params:Dcn_flow.Mcmf_fptas.params ->
  Dcn_graph.Graph.t ->
  Dcn_flow.Commodity.t array ->
  float
(** Cached {!Dcn_flow.Mcmf_fptas.lambda} (midpoint of the certified
    interval), sharing cache entries with {!fptas}. *)

val throughput :
  ?solver:Dcn_flow.Throughput.solver ->
  Dcn_graph.Graph.t ->
  Dcn_flow.Commodity.t array ->
  Dcn_flow.Throughput.t
(** Cached {!Dcn_flow.Throughput.compute}: the full metrics record
    (λ, bounds, utilization, ⟨D⟩, stretch, arc flows) is stored, so a hit
    also skips the shortest-path sweeps, not just the solve. Exact-solver
    requests are cached under a distinct kind and never collide with
    FPTAS entries. *)
