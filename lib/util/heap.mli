(** Mutable binary min-heap keyed by floats, with integer payloads.

    Used as the priority queue for Dijkstra's algorithm. Decrease-key is
    handled by lazy deletion: callers may insert the same payload several
    times and must ignore stale pops (see {!Dcn_graph.Dijkstra}). *)

type t

val create : int -> t
(** [create capacity_hint] is an empty heap. The hint only pre-sizes the
    backing array; the heap grows as needed. *)

val is_empty : t -> bool

val length : t -> int
(** Number of (possibly stale) entries currently stored. *)

val push : t -> float -> int -> unit
(** [push h key payload] inserts [payload] with priority [key]. *)

val pop_min : t -> (float * int) option
(** Remove and return the entry with the smallest key, or [None] if empty. *)

(** {2 Allocation-free access}

    Across modules a float argument or result is boxed (dune's dev profile
    builds with [-opaque], so nothing is inlined): [push] boxes its key,
    [pop_min] a float and a tuple. Hot loops (Dijkstra under the FPTAS)
    pass keys through float arrays instead. The pop-side calls are
    undefined on an empty heap — guard with {!is_empty}. *)

val push_at : t -> float array -> int -> unit
(** [push_at h dist v] is [push h dist.(v) v] without boxing the key. *)

val pop_into : t -> float array -> int
(** [pop_into h out] removes the minimum entry, writes its key to
    [out.(0)] and returns its payload: the same entry, ties included,
    that {!pop_min} would return. *)

val min_key : t -> float
(** Smallest key currently stored. *)

val min_payload : t -> int
(** Payload paired with {!min_key}. *)

val remove_min : t -> unit
(** Drop the minimum entry. *)

val clear : t -> unit
(** Remove all entries, keeping the backing storage. *)
