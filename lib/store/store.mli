(** Content-addressed on-disk result store.

    Layout under the root directory:

    {v
    root/
      objects/ab/cdef0123...   one file per entry, named by its key
      tmp/                     staging area for atomic writes
    v}

    Entries are immutable: a key is the digest of the full request
    ({!Digest_key}), so whatever value is present under a key is {e the}
    answer for that request. Writes stage into [tmp/] and [rename] into
    place, which is atomic on POSIX filesystems — concurrent writers
    (domains of one process or separate processes sharing a cache
    directory) can race freely; the loser simply overwrites the winner
    with identical bytes. Reads validate a small header carrying the
    payload length, so a truncated or corrupt entry (torn disk write,
    partial copy) degrades to a miss instead of poisoning results.

    Hit/miss/byte counters are {!Atomic} so the domain pool can solve
    through one shared handle; {!set_shared} installs that process-wide
    handle for {!Solve_cache}. *)

type t

type counters = {
  hits : int;  (** Lookups answered from disk with a decoded entry. *)
  misses : int;  (** Lookups that fell through to computation. *)
  bytes_read : int;  (** Payload bytes of hits. *)
  bytes_written : int;  (** Payload bytes of entries added. *)
}

val open_store : string -> t
(** Create (recursively) or reuse the directory. Raises [Failure] if the
    path exists and is not a directory, or cannot be created. *)

val root : t -> string

val find : t -> Digest_key.t -> decode:(string -> 'a option) -> 'a option
(** The payload under the key, decoded by [decode]; [None] (counted as a
    miss) when absent, unreadable, corrupt, or rejected by [decode]. Only
    a decoded payload counts as a hit and in [bytes_read]. Corrupt and
    rejected entries are deleted best-effort so a later write can heal
    them. Callers that keep raw bytes pass [Option.some]. *)

val add : t -> Digest_key.t -> string -> unit
(** Atomically publish a payload under its key. I/O errors are swallowed
    (a cache that cannot persist must not fail the computation); the
    entry is simply absent next time. *)

val mem : t -> Digest_key.t -> bool
(** Existence probe; does not touch counters or read the payload. *)

val counters : t -> counters

(** {1 Process-wide shared handle} *)

val set_shared : t option -> unit
(** Install (or clear) the store consulted by {!Solve_cache}. Call once at
    CLI startup, before any pool work is dispatched. *)

val shared : unit -> t option
