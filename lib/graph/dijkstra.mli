(** Weighted single-source shortest paths with caller-supplied arc lengths.

    The multicommodity-flow FPTAS re-runs Dijkstra under a multiplicatively
    updated length function, so lengths live in an external array indexed by
    arc id rather than in the graph. Zero-capacity arcs are skipped. *)

type tree = {
  dist : float array;  (** [dist.(v)] = length of shortest path, [infinity] if unreachable. *)
  parent_arc : int array;  (** Arc entering [v] on the tree; [-1] at the source / unreachable. *)
}

val shortest_tree : Graph.t -> lengths:float array -> src:int -> tree
(** Full shortest-path tree from [src]. Raises [Invalid_argument] if any
    scanned arc has a negative length. *)

(** {1 Hot-path variant}

    The FPTAS runs thousands of sweeps per solve; the scratch keeps the
    heap (and target marks) alive across calls so a sweep allocates
    nothing, and the target list lets it stop as soon as every destination
    it will actually read has been finalized. *)

type scratch
(** Reusable per-solver state: the target marks and the binary min-heap,
    whose key and node arrays the kernel works on inline (there is no
    separate heap module). Decrease-key is lazy deletion, so the
    [dijkstra.heap_pops] counter includes stale pops. A run holds at most
    [m + 1] entries on a graph of [m] arcs; the arrays are sized on the
    first run over a graph with more arcs than any before, then reused.
    Not thread-safe: use one scratch per concurrent solver. Code that runs
    sweeps on several domains at once (the FPTAS's parallel dual sweep)
    keeps one scratch per domain, allocated on that domain: scratches
    allocated together on one domain place their small mutable records
    (heap arrays, sweep counts) on shared cache lines, and concurrent
    sweeps then stall each other. *)

val make_scratch : int -> scratch
(** [make_scratch n] for graphs with [n] nodes. *)

val shortest_tree_targets :
  scratch -> Graph.csr -> lengths:float array -> src:int ->
  targets:int list -> tree -> unit
(** Like {!shortest_tree}, writing into [tree]'s arrays, but stops once
    every node in [targets] has been finalized. For nodes in [targets]
    (and their tree ancestors) the resulting [dist] and [parent_arc] entries are bit-identical to the full
    sweep's; entries of other nodes may be left tentative and must not be
    read. Unreachable targets keep [dist = infinity]. Duplicate targets
    are permitted. Raises [Invalid_argument] like {!shortest_tree}; the
    scratch stays usable. *)

val path_arcs : Graph.t -> tree -> int -> int list
(** Arcs of the tree path from the source to the node, source-side first.
    Empty for the source itself; raises [Not_found] if unreachable. *)

val path_length : lengths:float array -> int list -> float
(** Sum of the current lengths of the given arcs. *)
