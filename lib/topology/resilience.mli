(** Link-failure resilience experiments.

    Jellyfish (§2's random-graph precursor) argues random graphs degrade
    gracefully under failures, while Clos designs lose structured capacity.
    This module removes uniformly random links from a topology so
    throughput-under-failure curves can be measured with the usual
    solvers. *)

open Dcn_graph

val fail_links :
  Random.State.t -> Graph.t -> fraction:float -> Graph.t
(** Remove ⌊fraction·links⌋ undirected links chosen uniformly at random
    (both directions of each). The failed network may be disconnected —
    that is part of the phenomenon — so callers should check
    {!Graph.is_connected} before running solvers that require
    connectivity. Raises [Invalid_argument] if [fraction] is outside
    [0, 1). *)

val fail_links_connected :
  ?attempts:int -> Random.State.t -> Graph.t -> fraction:float -> Graph.t
(** Like {!fail_links} but resamples (default 50 attempts) until the
    survivor is connected; raises [Failure] if it never is (the failure
    rate exceeds what the topology can absorb). *)

val fail_arcs :
  Random.State.t -> Graph.t -> fraction:float -> Graph.t * int list
(** Masked variant of {!fail_links} for failure re-solves: the same
    links are failed (identical sampling — same RNG draws, structurally
    equal survivor), but the survivor keeps the original node numbering
    and arc ids with the failed arcs' capacities zeroed
    ({!Graph.mask_arcs}), so it has the unfailed graph's shape, which
    {!Dcn_flow.Mcmf_fptas.resolve_after_failure} requires of its
    baseline. Also returns the failed forward-arc ids, which that call
    takes. *)

val fail_arcs_connected :
  ?attempts:int -> Random.State.t -> Graph.t -> fraction:float ->
  Graph.t * int list
(** {!fail_arcs} with the resampling policy of {!fail_links_connected}. *)

val degrade :
  Topology.t -> graph:Graph.t -> Topology.t
(** The same topology (servers, clusters, name annotated with "+failures")
    over a degraded graph. *)
