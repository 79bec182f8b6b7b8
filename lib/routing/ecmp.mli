(** Equal-cost multi-path enumeration.

    All shortest paths between two switches (up to a cap), extracted from
    the BFS shortest-path DAG — the path diversity measure used in the
    extension benches and as an alternative subflow source for the packet
    simulator. *)

open Dcn_graph

val count_shortest_paths : Graph.t -> src:int -> dst:int -> int
(** Number of distinct shortest paths (saturating at [max_int/2]). 0 if
    disconnected. *)

val shortest_paths : Graph.t -> src:int -> dst:int -> limit:int -> int list list
(** Up to [limit] distinct shortest paths as arc lists, in a deterministic
    order. Raises [Invalid_argument] for [limit < 1] or [src = dst]. *)

type scratch
(** The last source's BFS distances. Only its owner may use it: one
    scratch per domain. *)

val scratch : Graph.t -> scratch
(** Fresh scratch for enumerations on this graph. *)

val shortest_paths_in :
  scratch -> src:int -> dst:int -> limit:int -> int list list
(** {!shortest_paths} on the graph [s] was made for. The BFS from [src]
    runs only when the previous call on [s] had another source, so a
    caller enumerating pairs grouped by source runs one BFS per source.
    The paths are exactly those of {!shortest_paths}. *)
