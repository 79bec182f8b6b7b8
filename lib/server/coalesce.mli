(** In-flight request coalescing (single-flight).

    The first caller for a key computes; concurrent callers for the same
    key block and receive the {e same} value (or the same exception). The
    window closes when the computation finishes — later callers start a
    fresh computation. The server keys cells by {!Request.digest} and
    stores rendered response bodies, making duplicate responses
    byte-identical by construction. *)

type 'a t

val create : unit -> 'a t

type 'a outcome = {
  value : ('a, exn) result;
  led : bool;  (** True for the caller that ran [f]; false for riders. *)
}

val run : 'a t -> key:string -> (unit -> 'a) -> 'a outcome
(** [run t ~key f] computes [f ()] on the calling thread if no computation
    for [key] is in flight, else blocks until the in-flight one finishes
    and shares its outcome. [f]'s exceptions are captured and delivered to
    every participant. *)

val pending : 'a t -> int
(** Number of callers inside {!run}: leaders computing plus riders
    waiting (a rider is counted before it waits). Tests use this to
    rendezvous: poll until the leader is registered (1), then hold the
    leader until its duplicate has joined (2). *)
