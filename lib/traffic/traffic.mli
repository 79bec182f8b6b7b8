(** Traffic matrices (paper §3, §8.1).

    Traffic is generated at server granularity and aggregated to
    switch-level commodities for the flow solvers; the concurrent-flow
    value is unchanged by aggregation since co-located server flows are
    interchangeable in the fluid model. Flows between servers on the same
    switch consume no switch-to-switch capacity and are dropped.

    A server placement is described by [servers : int array] giving the
    number of servers attached to each switch. *)

type t = {
  name : string;
  demands : (int * int * float) list;
      (** Aggregated switch-level (src, dst, demand); all entries have
          distinct endpoints and positive demand. *)
  flows_per_server : int;
      (** Max number of server-level flows any one server sources —
          determines the NIC bound: with unit-capacity server links, the
          achievable per-flow throughput is additionally capped at
          [1 / flows_per_server]. *)
}

val compare_demand : int * int * float -> int * int * float -> int
(** The canonical demand order ((src, dst) lexicographic, then
    [Float.compare] on volume). Serialization and generators both sort with
    this, so equal matrices render byte-identically without ever comparing
    floats polymorphically. *)

val to_commodities : t -> Dcn_flow.Commodity.t array
(** Raises [Invalid_argument] if the matrix is empty (all traffic was
    intra-switch). *)

val total_demand : t -> float

(** {1 Generators} *)

val permutation : Random.State.t -> servers:int array -> t
(** Random permutation: a uniformly random derangement of the servers;
    each server sends one unit to its image (paper's default workload). *)

val all_to_all : servers:int array -> t
(** Every server sends one unit to every other server. Aggregated demand
    between distinct switches [u], [v] is [servers.(u) * servers.(v)]. *)

val chunky :
  Random.State.t -> servers:int array -> fraction:float -> t
(** The §8.1 "x% Chunky" pattern. A [fraction] of the server-bearing
    switches (ToRs) are paired up by a ToR-level random permutation; every
    server on such a ToR sends to a distinct server on the partner ToR.
    The remaining ToRs' servers engage in a server-level random permutation
    among themselves. [fraction] must be in [0, 1]. *)

val hotspot :
  Random.State.t -> servers:int array -> targets:int -> t
(** All servers send one unit to a server chosen uniformly among the
    servers of [targets] randomly chosen "hot" switches — an adversarial
    incast-style matrix used by the extension benches. *)

(** {1 Server-placement helpers} *)

val num_servers : servers:int array -> int
