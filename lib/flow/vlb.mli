(** Valiant load balancing path sets.

    VL2 (§7) forwards traffic in two bounces: source → random intermediate
    switch → destination. This module builds the corresponding two-segment
    path sets so the path-restricted concurrent-flow solver
    ({!Mcmf_paths}) can measure throughput {e under VLB routing}
    rather than under optimal routing — quantifying how much of VL2's (or
    a rewired network's) capacity survives its actual routing scheme.

    Each (src, dst) pair gets up to [intermediates] two-segment paths
    [shortest(src, m) @ shortest(m, dst)] through distinct sampled
    intermediates [m ∉ {src, dst}]. Segments are shortest paths, matching
    VL2's ECMP-to-intermediate behaviour. Paths that revisit a node are
    dropped (the fluid model would double-count their capacity). The
    direct shortest path is always included as a fallback so every pair
    keeps at least one usable path.

    Segments are read off breadth-first parent trees, one per segment
    start node, each built on first use and kept for the rest of the
    call. A {!restrict} call therefore holds up to [n] trees of [n]
    entries each. The random draws are those of
    [Sampling.permutation st n] once per distinct connected switch
    pair. *)

open Dcn_graph

val paths :
  Random.State.t ->
  Graph.t ->
  src:int ->
  dst:int ->
  intermediates:int ->
  int list list
(** Raises [Invalid_argument] if [src = dst] or [intermediates < 0];
    returns [[]] only if [src] and [dst] are disconnected. *)

val restrict :
  Random.State.t ->
  Graph.t ->
  intermediates:int ->
  Commodity.t array ->
  Mcmf_paths.commodity array
(** Equip every commodity with VLB path sets (cached per switch pair). *)
