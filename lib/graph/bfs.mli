(** Unweighted shortest paths (hop counts) over positive-capacity arcs. *)

val distances : Graph.t -> int -> int array
(** [distances g src] is the hop distance from [src] to every node;
    unreachable nodes get [max_int]. *)

val distances_into : Graph.t -> int -> int array -> unit
(** Like {!distances} but fills a caller-provided array of length [n].
    A call allocates its [n]-int queue and the graph's CSR view, nothing
    per node or per arc. *)

val eccentricity : Graph.t -> int -> int
(** Largest finite distance from the node; [max_int] if some node is
    unreachable. *)
