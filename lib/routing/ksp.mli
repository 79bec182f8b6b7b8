(** k-shortest simple paths (Yen's algorithm) over hop counts.

    The packet-level validation (§8.2) routes MPTCP subflows over "as many
    as 8 shortest paths", exactly what this module provides. Paths are
    returned as arc-id lists, shortest first. Searches are breadth-first
    over positive-capacity arcs in adjacency (arc-id) order, which breaks
    ties between equally short paths deterministically; candidates of
    equal length are then taken in lexicographic arc-id order. *)

open Dcn_graph

val shortest_path : Graph.t -> src:int -> dst:int -> int list option
(** One shortest path (arc ids), or [None] if disconnected. With
    [src = dst] the answer is [Some []]. *)

val k_shortest : Graph.t -> src:int -> dst:int -> k:int -> int list list
(** Up to [k] distinct loop-free paths in nondecreasing hop length. Fewer
    are returned if the graph has fewer. Raises [Invalid_argument] for
    [k < 1] or [src = dst]. *)

type scratch
(** The O(n + m) search state of {!k_shortest}: a BFS queue, parents and
    generation-stamped visited and banned marks. Only its owner may use
    it: one scratch per domain. *)

val scratch : Graph.t -> scratch
(** Fresh scratch for searches of this graph. *)

val k_shortest_in : scratch -> src:int -> dst:int -> k:int -> int list list
(** {!k_shortest} on the graph [s] was made for, reusing [s] instead of
    allocating a scratch per call; a caller enumerating many pairs builds
    one scratch and passes it to every call. The paths are exactly those
    of {!k_shortest}, whatever earlier calls used [s]. *)

val path_nodes : Graph.t -> src:int -> int list -> int list
(** Expand an arc path to its node sequence, starting from [src]. *)
