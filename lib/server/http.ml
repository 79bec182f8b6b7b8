(* HTTP/1.1, the small closed-world subset the serving layer needs.

   Server side: the shared types, header parsing and budgets the engine's
   incremental parser (Reqstream) uses, and response serialization.
   Client side: a blocking reader over a socket and persistent
   keep-alive connections; a one-shot exchange is a connection used for
   one request. Bodies are delimited by Content-Length only; chunked
   encoding is not accepted. *)

type request = {
  meth : string;
  target : string;
  headers : (string * string) list;  (* names lowercased *)
  body : string;
}

type response = {
  status : int;
  headers : (string * string) list;
  body : string;
}

type read_error = Closed | Bad of string | Headers_too_large

let reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 411 -> "Length Required"
  | 413 -> "Content Too Large"
  | 429 -> "Too Many Requests"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | _ -> "Status"

(* Header budgets of the engine's incremental parser: one line, the
   whole head, and the header count. The client's reader bounds its
   lines by the same [max_header_line]. *)
let max_header_line = 8192
let max_head_bytes = 32768
let max_header_count = 100

let response ?(headers = []) status body = { status; headers; body }

(* ---- buffered reading ---- *)

type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable len : int;  (* valid bytes in buf *)
  mutable pos : int;  (* next unread byte *)
}

let make_reader fd = { fd; buf = Bytes.create 8192; len = 0; pos = 0 }

let refill r =
  if r.pos >= r.len then begin
    let n = Unix.read r.fd r.buf 0 (Bytes.length r.buf) in
    r.pos <- 0;
    r.len <- n;
    n > 0
  end
  else true

let read_byte r = if refill r then begin
    let c = Bytes.get r.buf r.pos in
    r.pos <- r.pos + 1;
    Some c
  end
  else None

(* A header/request line, CRLF (or bare LF) stripped. Bounded so a rogue
   client cannot grow an unbounded line buffer. *)
let read_line r ~max =
  let buf = Buffer.create 64 in
  let rec go () =
    match read_byte r with
    | None -> if Buffer.length buf = 0 then Error Closed else Ok (Buffer.contents buf)
    | Some '\n' ->
        let s = Buffer.contents buf in
        let n = String.length s in
        Ok (if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s)
    | Some c ->
        if Buffer.length buf >= max then Error Headers_too_large
        else begin
          Buffer.add_char buf c;
          go ()
        end
  in
  go ()

(* The buffer grows only as bytes arrive: a declared length is the
   peer's claim, and a hostile one must not make us allocate it. *)
let read_exact r n =
  let out = Buffer.create (min n 65536) in
  let rec go () =
    let missing = n - Buffer.length out in
    if missing = 0 then Ok (Buffer.contents out)
    else if not (refill r) then Error (Bad "connection closed mid-body")
    else begin
      let take = min missing (r.len - r.pos) in
      Buffer.add_subbytes out r.buf r.pos take;
      r.pos <- r.pos + take;
      go ()
    end
  in
  go ()

let read_to_eof r =
  let out = Buffer.create 1024 in
  while refill r do
    Buffer.add_subbytes out r.buf r.pos (r.len - r.pos);
    r.pos <- r.len
  done;
  Buffer.contents out

let parse_header line =
  match String.index_opt line ':' with
  | None -> Error (Bad (Printf.sprintf "malformed header %S" line))
  | Some i ->
      let name = String.lowercase_ascii (String.sub line 0 i) in
      let value =
        String.trim (String.sub line (i + 1) (String.length line - i - 1))
      in
      Ok (name, value)

let header name (req : request) = List.assoc_opt name req.headers

(* Split a request target into path and query parameters. The closed
   world needs no percent-decoding: every parameter the daemon accepts is
   numeric ([drain=1], [epoch_ns=...]). A key without [=] maps to "". *)
let split_target target =
  match String.index_opt target '?' with
  | None -> (target, [])
  | Some i ->
      let path = String.sub target 0 i in
      let query = String.sub target (i + 1) (String.length target - i - 1) in
      let params =
        String.split_on_char '&' query
        |> List.filter_map (fun kv ->
               if kv = "" then None
               else
                 match String.index_opt kv '=' with
                 | None -> Some (kv, "")
                 | Some j ->
                     Some
                       ( String.sub kv 0 j,
                         String.sub kv (j + 1) (String.length kv - j - 1) ))
      in
      (path, params)

(* ---- writing ---- *)

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then begin
      let n = Unix.write_substring fd s off (len - off) in
      go (off + n)
    end
  in
  go 0

(* Keep-alive responses omit the Connection header (persistent is the
   HTTP/1.1 default); closing ones announce [Connection: close]. *)
let serialize_response ?(keep_alive = false) resp =
  let buf = Buffer.create (String.length resp.body + 256) in
  Buffer.add_string buf
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" resp.status (reason resp.status));
  List.iter
    (fun (name, value) -> Buffer.add_string buf (Printf.sprintf "%s: %s\r\n" name value))
    resp.headers;
  Buffer.add_string buf
    (Printf.sprintf "Content-Length: %d\r\n%s\r\n" (String.length resp.body)
       (if keep_alive then "" else "Connection: close\r\n"));
  Buffer.add_string buf resp.body;
  Buffer.contents buf

let write_response fd resp = write_all fd (serialize_response resp)

(* ---- client side ---- *)

(* Connect with an optional deadline: non-blocking connect, select on
   writability, then check SO_ERROR — the portable shape. On success the
   socket is switched back to blocking with kernel read/write timeouts,
   so a worker that accepts the connection and then hangs cannot pin a
   coordinator thread forever. *)
let connect_opt_timeout fd addr ~host ~port timeout_s =
  match timeout_s with
  | None -> Unix.connect fd addr
  | Some t ->
      Unix.set_nonblock fd;
      (try Unix.connect fd addr
       with Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) -> (
         match Unix.select [] [ fd ] [] t with
         | _, [], _ ->
             raise
               (Unix.Unix_error
                  (Unix.ETIMEDOUT, "connect", Printf.sprintf "%s:%d" host port))
         | _, _ :: _, _ -> (
             match Unix.getsockopt_error fd with
             | None -> ()
             | Some e ->
                 raise
                   (Unix.Unix_error (e, "connect", Printf.sprintf "%s:%d" host port)))));
      Unix.clear_nonblock fd;
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO t;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO t

(* ---- persistent client connections (keep-alive) ---- *)

type conn = {
  c_host : string;
  c_port : int;
  c_timeout : float option;
  mutable c_sock : (Unix.file_descr * reader) option;
  mutable c_used : bool;  (* current socket has carried >= 1 full response *)
  mutable c_connects : int;
  mutable c_requests : int;
}

let conn_create ~host ~port ?timeout_s () =
  {
    c_host = host;
    c_port = port;
    c_timeout = timeout_s;
    c_sock = None;
    c_used = false;
    c_connects = 0;
    c_requests = 0;
  }

let conn_connects c = c.c_connects
let conn_requests c = c.c_requests
let conn_alive c = c.c_sock <> None

let conn_close c =
  match c.c_sock with
  | None -> ()
  | Some (fd, _) ->
      c.c_sock <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())

let transport_error c fn e =
  let what =
    if e = Unix.EAGAIN || e = Unix.EWOULDBLOCK then "timed out"
    else Unix.error_message e
  in
  Printf.sprintf "%s %s:%d: %s"
    (if fn = "" then "exchange" else fn)
    c.c_host c.c_port what

let conn_ensure c : (Unix.file_descr * reader, string) result =
  match c.c_sock with
  | Some s -> Ok s
  | None -> (
      match
        try Ok (Unix.gethostbyname c.c_host).Unix.h_addr_list.(0)
        with Not_found -> (
          try Ok (Unix.inet_addr_of_string c.c_host)
          with Failure _ ->
            Error (Printf.sprintf "cannot resolve host %S" c.c_host))
      with
      | Error msg -> Error msg
      | Ok addr -> (
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          match
            connect_opt_timeout fd
              (Unix.ADDR_INET (addr, c.c_port))
              ~host:c.c_host ~port:c.c_port c.c_timeout
          with
          | exception Unix.Unix_error (e, _, _) ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Error
                (Printf.sprintf "connect %s:%d: %s" c.c_host c.c_port
                   (Unix.error_message e))
          | () ->
              (* Request/response round trips on a reused connection are
                 write-then-wait; Nagle would add a delayed-ACK stall. *)
              (try Unix.setsockopt fd Unix.TCP_NODELAY true
               with Unix.Unix_error _ -> ());
              let s = (fd, make_reader fd) in
              c.c_sock <- Some s;
              c.c_used <- false;
              c.c_connects <- c.c_connects + 1;
              Ok s))

let conn_send c ~meth ~target ?(headers = []) ?(body = "") () =
  match conn_ensure c with
  | Error msg -> Error msg
  | Ok (fd, r) -> (
      let content =
        if body = "" && meth = "GET" then ""
        else
          Printf.sprintf
            "Content-Type: application/json\r\nContent-Length: %d\r\n"
            (String.length body)
      in
      let extra =
        String.concat ""
          (List.map
             (fun (name, value) -> Printf.sprintf "%s: %s\r\n" name value)
             headers)
      in
      (* No Connection header of our own: persistent is the HTTP/1.1
         default. *)
      match
        write_all fd
          (Printf.sprintf "%s %s HTTP/1.1\r\nHost: %s\r\n%s%s\r\n%s" meth
             target c.c_host extra content body)
      with
      | () ->
          c.c_requests <- c.c_requests + 1;
          Ok r
      | exception Unix.Unix_error (e, fn, _) ->
          conn_close c;
          Error (transport_error c fn e))

(* Content-Length is digits only: a sign, a hex prefix or garbage is
   a framing error, never a reason to guess where the body ends. *)
let content_length v =
  if v <> "" && String.for_all (function '0' .. '9' -> true | _ -> false) v
  then int_of_string_opt v
  else None

(* Read one response from [r], the reader [conn_send] returned. *)
let conn_recv c r =
  let fail msg =
    conn_close c;
    Error msg
  in
  let ( let* ) res k =
    match res with
    | Ok x -> k x
    | Error Closed -> fail "server closed the connection mid-response"
    | Error (Bad msg) -> fail msg
    | Error Headers_too_large -> fail "response header too large"
  in
  let rec headers length close =
    match read_line r ~max:max_header_line with
    | Error e -> Error e
    | Ok "" -> Ok (length, close)
    | Ok line -> (
        match parse_header line with
        | Ok ("content-length", v) -> (
            match content_length v with
            | Some n -> headers (Some n) close
            | None -> Error (Bad (Printf.sprintf "bad Content-Length %S" v)))
        | Ok ("connection", v) ->
            headers length (String.lowercase_ascii v = "close")
        | Ok _ -> headers length close
        | Error e -> Error e)
  in
  try
    let* status_line = read_line r ~max:max_header_line in
    match
      match String.split_on_char ' ' status_line with
      | _ :: code :: _ -> int_of_string_opt code
      | _ -> None
    with
    | None -> fail (Printf.sprintf "bad status line %S" status_line)
    | Some status ->
        let* length, close = headers None false in
        (* Without Content-Length the body is EOF-delimited, so the
           connection cannot be reused afterwards. *)
        let* body =
          match length with Some n -> read_exact r n | None -> Ok (read_to_eof r)
        in
        c.c_used <- true;
        if close || length = None then conn_close c;
        Ok (status, body)
  with Unix.Unix_error (e, fn, _) -> fail (transport_error c fn e)

let conn_request c ~meth ~target ?headers ?body () =
  let attempt () =
    match conn_send c ~meth ~target ?headers ?body () with
    | Error msg -> Error msg
    | Ok r -> conn_recv c r
  in
  let reused = conn_alive c && c.c_used in
  match attempt () with
  | Ok r -> Ok r
  | Error _ when reused ->
      (* The server may have dropped the kept-alive connection between
         exchanges (idle timeout, or a close-per-request peer). One
         retry on a fresh connection is safe in this idempotent closed
         world. *)
      conn_close c;
      attempt ()
  | Error msg -> Error msg

(* A one-shot exchange: a fresh connection that announces it will close
   after one request, and is closed whatever happens. *)
let client_request ~host ~port ~meth ~target ?(headers = []) ?body ?timeout_s
    () =
  let c = conn_create ~host ~port ?timeout_s () in
  Fun.protect
    ~finally:(fun () -> conn_close c)
    (fun () ->
      conn_request c ~meth ~target
        ~headers:(headers @ [ ("Connection", "close") ])
        ?body ())
