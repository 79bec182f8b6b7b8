(** Maximum concurrent flow restricted to fixed path sets.

    The LP solved everywhere else lets flow split over {e any} path; real
    networks route over a small set (ECMP's equal-cost shortest paths, or
    MPTCP's k shortest). This solver computes the max–min fair throughput
    when each commodity may only use its listed paths — quantifying the
    routing-restriction penalty the paper and Jellyfish discuss (§8): ECMP
    alone loses noticeably, 8-shortest-path multipath is near optimal.

    The multiplicative-weights scheme and its certified primal–dual
    interval are {!Gk_loop}'s, the phase loop {!Mcmf_fptas} runs on too,
    with path enumeration replacing Dijkstra: the dual uses
    [D(l) / Σⱼ dⱼ·min_{P∈paths(j)} l(P)], which is exactly the dual of
    the path-restricted LP.

    {b Flat path store.} [solve] converts the [int list list] path sets
    once into three arrays in compressed-sparse-row form: per-commodity
    offsets into the path ids, per-path offsets into one arc array, and
    the arc array itself. Commodity [j] owns path ids
    [com_off.(j) .. com_off.(j+1) - 1] in the order of its [paths] list,
    and path [p] is [arcs.(path_off.(p) .. path_off.(p+1) - 1)]. Path
    lengths, routing, the dual bound and the congestion scan then loop
    over these arrays and the graph's CSR capacities, allocating nothing
    per phase. Sums run in path order, and ties between equally long
    paths go to the earliest listed, so results are exactly those of a
    left fold over the lists.

    {b One pass per phase.} The dual bound needs each commodity's
    shortest path at the lengths the certified phase left ({!Gk_loop}'s
    frozen copy); the next phase's routing needs it at the live lengths.
    Both sums come from one loop over each path's arcs, at the
    commodity's first path choice, before its routing moves the live
    lengths; α is summed in commodity order, as a separate sweep would
    sum it. *)

open Dcn_graph

type commodity = {
  src : int;
  dst : int;
  demand : float;
  paths : int list list;  (** Arc-id paths from [src] to [dst]. *)
}

type result = Mcmf_fptas.result = {
  lambda_lower : float;
  lambda_upper : float;
  arc_flow : float array;
  phases : int;
  converged : bool;
}

val solve :
  ?params:Mcmf_fptas.params -> Graph.t -> commodity array -> result
(** Raises [Invalid_argument] if params are out of range, a commodity has
    no paths or a demand that is not positive and finite, a path does not
    run from its source to its destination or crosses a zero-capacity
    arc, or an endpoint repeats ([src = dst]). *)

val lambda :
  ?params:Mcmf_fptas.params -> Graph.t -> commodity array -> float
(** {!Gk_loop.midpoint} of {!solve}. *)

val of_k_shortest :
  Graph.t -> k:int -> Commodity.t array -> commodity array
(** Equip each commodity with its [k] shortest simple paths (Yen's
    algorithm from [Dcn_routing.Ksp]). Path sets are built once per
    distinct switch pair, and commodities of one pair share them. The
    pairs, in first-seen order, are one {!Dcn_util.Pool.run} batch over
    contiguous chunks ({!Mcmf_fptas.chunk_count}), each chunk with one
    search scratch, so the sets are the same at any worker count. *)

val of_ecmp : Graph.t -> limit:int -> Commodity.t array -> commodity array
(** Equip each commodity with its equal-cost shortest paths only (at most
    [limit] of them) — the ECMP routing model. Built as {!of_k_shortest}
    builds its sets; a chunk runs one BFS per run of pairs with the same
    source, so one per source for commodities sorted by source, as
    [Traffic.to_commodities] returns them. *)
