(** HTTP/1.1, the closed-world subset the serving layer speaks.

    Server side: the request/response types, header parsing and head
    budgets the engine's incremental parser ({!Dcn_engine.Reqstream})
    enforces, and response serialization — keep-alive by default,
    [Connection: close] when the engine is about to close. Client side:
    persistent connections ({!conn}), which hold the one request writer
    and the one response reader, and {!client_request}, a one-shot
    exchange over a fresh [conn]. Bodies are delimited by
    [Content-Length] only; chunked transfer encoding is rejected. *)

type request = {
  meth : string;
  target : string;  (** Request target as sent, e.g. ["/solve"]. *)
  headers : (string * string) list;  (** Names lowercased. *)
  body : string;
}

type response = {
  status : int;
  headers : (string * string) list;
      (** Extra headers; [Content-Length] and [Connection] are added by
          {!serialize_response}. *)
  body : string;
}

type read_error =
  | Closed  (** Peer closed before sending a message. *)
  | Bad of string  (** Malformed message. *)
  | Headers_too_large  (** A head line exceeds {!max_header_line}. *)

val reason : int -> string
(** Canonical reason phrase for the status codes the server emits. *)

val max_header_line : int
(** Bound on one request-head line (request line or header), in bytes. *)

val max_head_bytes : int
(** Bound on the whole request head (request line + headers), in bytes. *)

val max_header_count : int
(** Bound on the number of header lines in one request. *)

val response : ?headers:(string * string) list -> int -> string -> response

val parse_header : string -> (string * string, read_error) result
(** Parse one [Name: value] header line; the name comes back lowercased,
    the value trimmed. *)

val serialize_response : ?keep_alive:bool -> response -> string
(** Wire bytes of a response. [keep_alive:false] (default) appends
    [Connection: close]; [keep_alive:true] omits the Connection header
    (persistent is the HTTP/1.1 default). The status line, the other
    headers and the body are identical either way. *)

val write_response : Unix.file_descr -> response -> unit
(** Blocking write of the full response ([serialize_response
    ~keep_alive:false]) — the engine's one-shot 429 to a connection it
    will not admit. Raises [Unix.Unix_error] (e.g. [EPIPE]) if the peer
    is gone; callers ignore that — the response has no one to go to. *)

val header : string -> request -> string option
(** Case-insensitive header lookup (pass the name in lowercase). *)

val split_target : string -> string * (string * string) list
(** Split a request target into path and query parameters:
    [split_target "/trace?drain=1&epoch_ns=5"] is
    [("/trace", [("drain", "1"); ("epoch_ns", "5")])]. No
    percent-decoding — every parameter the daemon accepts is numeric. *)

val client_request :
  host:string ->
  port:int ->
  meth:string ->
  target:string ->
  ?headers:(string * string) list ->
  ?body:string ->
  ?timeout_s:float ->
  unit ->
  (int * string, string) result
(** One-shot exchange: a wrapper over {!conn} that creates a connection,
    runs one {!conn_request} with an extra [Connection: close] header,
    and closes the connection in a [finally]. Used by [topobench client],
    the orchestrator's worker client, perfbench and the tests. Errors are
    connection-level (refused, reset, timed out, malformed response —
    including a [Content-Length] that is not a non-negative decimal or
    promises more bytes than arrive), never HTTP statuses, and never
    exceptions. [timeout_s] bounds the connect and each subsequent
    read/write (kernel [SO_RCVTIMEO]/[SO_SNDTIMEO]); omitted means block
    indefinitely. [headers] adds extra request headers (e.g.
    [x-dcn-trace]) after [Host]. *)

(** {2 Persistent client connections}

    A [conn] is a lazily-connected, reusable HTTP/1.1 client connection:
    the load generator holds one per worker so a keep-alive server sees a
    long-lived socket instead of connect-per-request churn. Requests are
    sent without a [Connection] header of their own (persistent by
    default); the
    connection is dropped when the server answers [Connection: close],
    when a response is EOF-delimited, or on any transport error — the
    next send transparently reconnects. *)

type conn

val conn_create : host:string -> port:int -> ?timeout_s:float -> unit -> conn
(** No I/O happens until the first send. [timeout_s] applies to each
    connect and to each read/write on the socket, as in
    {!client_request}. *)

val conn_connects : conn -> int
(** TCP connections opened so far (reuse rate = 1 - connects/requests). *)

val conn_requests : conn -> int
(** Requests successfully written so far. *)

val conn_close : conn -> unit
(** Close the underlying socket if open; the [conn] stays usable and
    will reconnect on the next send. *)

val conn_request :
  conn ->
  meth:string ->
  target:string ->
  ?headers:(string * string) list ->
  ?body:string ->
  unit ->
  (int * string, string) result
(** Write one request (connecting first if needed), then read its
    response (status, body). Transport and framing errors — including a
    non-numeric or negative [Content-Length], or fewer body bytes than it
    declares — close the socket and come back as [Error]; the body
    buffer grows only as bytes arrive. HTTP error statuses are [Ok]. If
    the exchange fails on a connection that already served at least one
    response (the server likely closed it between exchanges), retries
    exactly once on a fresh connection before reporting the error. *)
