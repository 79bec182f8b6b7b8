(** Bounded, mutex-guarded LRU cache for hot response bodies.

    Sits in front of the digest-keyed disk store: a hit returns the
    byte-identical rendered body without resolving the request, touching
    the store, or taking a pool slot. Bounded by entry count and total
    bytes (keys + values); least-recently-used entries are evicted when
    either bound is exceeded. Hits, misses, evictions, entries and bytes
    are mirrored into the {!Dcn_obs.Metrics} registry under
    [engine.cache]. *)

type t

val create : entries:int -> max_bytes:int -> t
(** At most [entries] entries and [max_bytes] bytes (keys + values). *)

val find : t -> string -> string option
(** Lookup; a hit promotes the entry to most-recently-used. Safe from
    any thread. *)

val insert : t -> string -> string -> unit
(** Insert or refresh [key -> body], then evict from the LRU end while
    over either bound. Safe from any thread. *)

type stats = {
  entries : int;
  bytes : int;  (** Sum of key + value bytes currently held. *)
  hits : int;
  misses : int;
  evictions : int;
}

val stats : t -> stats
