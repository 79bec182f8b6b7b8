(** Capacitated directed multigraph in compressed-sparse-row form.

    This is the substrate under every topology in the repository. Nodes are
    switches, numbered [0 .. n-1]. Links are stored as directed {e arcs};
    an undirected data-center link of capacity [c] is a pair of arcs, one in
    each direction, each of capacity [c], cross-referenced through
    {!arc_rev}. Parallel links are permitted (the random-regular-graph
    pairing model and VL2's bipartite core both produce them), hence
    "multigraph".

    A graph is immutable once frozen from a {!builder}; all solvers index
    per-arc state (lengths, flows) by arc id, which is dense in
    [0 .. num_arcs-1]. *)

type t

(** {1 Construction} *)

type builder

val builder : int -> builder
(** [builder n] starts an empty graph over [n] nodes. *)

val add_edge : builder -> ?cap:float -> int -> int -> unit
(** [add_edge b u v] adds an undirected link of capacity [cap] (default 1.0)
    in each direction. Self-loops are rejected ([Invalid_argument]): a switch
    never cables to itself. *)

val add_arc : builder -> ?cap:float -> int -> int -> unit
(** Directed variant, used by flow-solver tests; its reverse arc is created
    with capacity 0 so residual-graph algorithms still work. *)

val freeze : builder -> t
(** Compile the builder to CSR form. The builder may be reused afterwards. *)

val of_edges : int -> (int * int * float) list -> t
(** [of_edges n edges] freezes a graph with the given undirected edges. *)

(** {1 Accessors} *)

val n : t -> int
val num_arcs : t -> int

val num_edges : t -> int
(** Number of undirected links, i.e. arcs with strictly positive capacity
    whose id is smaller than their reverse's (forward copies). *)

val arc_src : t -> int -> int
val arc_dst : t -> int -> int
val arc_cap : t -> int -> float
val arc_rev : t -> int -> int

val degree : t -> int -> int
(** Number of outgoing arcs with positive capacity — the port count used for
    switch-to-switch links in an undirected topology. *)

val iter_out : t -> int -> (int -> unit) -> unit
(** [iter_out g u f] applies [f] to each outgoing arc id of [u]. *)

(** Zero-copy view of the underlying compressed-sparse-row arrays, for
    solver inner loops where per-arc accessor calls and bounds checks are
    measurable. The arrays are shared with the graph and must be treated
    as read-only; arc ids and the [adj_off]/[adj_arc] layout are exactly
    those documented above. *)
type csr = private {
  csr_n : int;
  csr_arc_src : int array;
  csr_arc_dst : int array;
  csr_arc_cap : float array;
  csr_arc_rev : int array;  (** reverse-arc ids, as {!arc_rev}. *)
  csr_adj_off : int array;  (** length [n + 1]. *)
  csr_adj_arc : int array;  (** arc ids grouped by source node. *)
  csr_adj_dst : int array;
      (** heads in adjacency order: [adj_dst.(i) = arc_dst.(adj_arc.(i))]. *)
}

val csr : t -> csr

val mask_arcs : t -> arcs:int list -> t
(** [mask_arcs g ~arcs] returns [g] with the capacities of the given arcs
    {e and their reverses} set to zero. Node numbering, arc ids and the
    adjacency layout are unchanged (only the capacity array is copied), so
    per-arc solver state indexed by arc id carries over from [g] — the
    substrate for incremental failure re-solves. Capacity-aware consumers
    ({!to_edge_list}, {!equal_structure}, shortest paths, the flow
    solvers) see exactly the survivor subgraph, so the masked graph is
    observably equivalent to rebuilding it from the surviving links.
    Raises [Invalid_argument] on an out-of-range arc id. *)

val fold_out : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

val iter_arcs : t -> (int -> unit) -> unit

val total_capacity : t -> float
(** Sum of all arc capacities (both directions counted, matching the
    paper's definition of [C] in Theorem 1). *)

val neighbors : t -> int -> int list
(** Destination nodes of positive-capacity outgoing arcs (with
    multiplicity). *)

(** {1 Structure tests} *)

val is_connected : t -> bool
(** Weak connectivity over positive-capacity arcs. *)

val is_regular : t -> int option
(** [Some r] if every node has {!degree} [r]. *)

val has_multi_edge : t -> bool
(** True iff some node pair is joined by more than one positive-capacity
    link in the same direction. *)

val equal_structure : t -> t -> bool
(** Same node count and same multiset of (src, dst, cap) arcs. *)

(** {1 Export} *)

val to_edge_list : t -> (int * int * float) list
(** Undirected edges (forward copies only), sorted. *)

val to_edge_list_ids : t -> ((int * int * float) * int) list
(** {!to_edge_list} with each edge's forward arc id attached, in exactly
    the same order (the id does not participate in the sort). Lets failure
    samplers translate a sampled edge position into the arc ids to pass to
    {!mask_arcs}. *)

val pp : Format.formatter -> t -> unit

val to_dot : t -> string
(** Graphviz rendering of the undirected link structure. *)
