(** Path-length and degree statistics of a topology.

    Average shortest path length (ASPL, the paper's ⟨D⟩) drives both the
    Theorem-1 throughput bound and the Fig. 1(b)/2(b)/3 comparisons against
    the Cerf et al. lower bound. *)

val aspl : Graph.t -> float
(** Average hop distance over all ordered node pairs. Raises
    [Invalid_argument] if the graph is disconnected or has fewer than two
    nodes: ASPL of a disconnected network is meaningless, and topology
    construction is expected to deliver connected graphs. *)

val diameter : Graph.t -> int
(** Largest hop distance. Same preconditions as {!aspl}. *)

val aspl_and_diameter : Graph.t -> float * int
(** Both in a single all-pairs BFS sweep. *)

val weighted_pair_distance_array :
  Graph.t -> pairs:(int * int * float) array -> float
(** Demand-weighted mean hop distance between given (src, dst, weight)
    pairs — the Σᵢdᵢ/f term of Theorem 1 for a concrete traffic matrix.
    Pairs with [src = dst] contribute distance 0. *)

val degree_histogram : Graph.t -> (int * int) list
(** (degree, node count) pairs, ascending by degree. *)

val mean_degree : Graph.t -> float
