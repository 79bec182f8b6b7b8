(** Incremental HTTP/1.1 request parsing over a per-connection buffer:
    the engine's only request reader.

    {!feed} appends whatever bytes the socket produced; {!next} yields
    complete requests in order regardless of how they were split across
    reads, and yields pipelined requests back to back. Request heads are
    bounded by {!Dcn_serve.Http.max_header_line} /
    [max_head_bytes] / [max_header_count] (→ 431) and bodies by
    [max_body] (→ 413); chunked transfer encoding is rejected (→ 400).
    Errors are terminal for the connection: every later {!next} returns
    the same error, and the engine answers it and closes. *)

type error = { status : int; msg : string }

type t

type item =
  | Request of Dcn_serve.Http.request * bool
      (** A complete request and whether the connection should be kept
          alive afterwards (HTTP/1.1 default yes, [Connection: close]
          and HTTP/1.0 without [keep-alive] no). *)
  | Error of error  (** Terminal: answer with [error.status] and close. *)
  | More  (** Need more bytes. *)

val create : max_body:int -> unit -> t

val feed : t -> bytes -> int -> unit
(** [feed t chunk n] appends the first [n] bytes of [chunk]. *)

val next : t -> item

val buffered : t -> int
(** Bytes fed but not yet consumed into a yielded request. *)
