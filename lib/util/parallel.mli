(** Ordered parallel map over the shared domain {!Pool}.

    Tasks must be independent and must not share unsynchronized mutable
    state (every experiment in this repository derives its own
    [Random.State.t] from a seed, so figures, grid points and per-seed
    repetitions all qualify). Results keep input order, so output is
    bit-identical to the serial map regardless of worker count. *)

val map : ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] evaluates [f] on every element on the shared pool (caller
    included) and returns results in input order; serial when
    {!Pool.enabled} is false. If any [f] raises, the exception of the
    smallest input index is re-raised after the batch finishes — the same
    exception a serial map would surface, though later elements have
    also been evaluated by then. *)

val map_array : ('a -> 'b) -> 'a array -> 'b array
(** Array variant of {!map}, used on the experiment hot path (per-seed
    repetitions) to avoid list round-trips. Same semantics. *)
