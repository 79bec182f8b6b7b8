(* Incremental HTTP/1.1 request parsing over a per-connection buffer.

   The engine feeds whatever bytes the socket produced; next () yields
   complete requests in order, however the bytes were split across reads,
   which is also what makes pipelining free: back-to-back requests in one
   read simply yield twice. Bounds: Http.max_header_line /
   max_head_bytes / max_header_count, plus the caller's body bound; a
   violation is a terminal per-connection error — the engine answers it
   and closes. *)

module Http = Dcn_serve.Http

type error = { status : int; msg : string }

type state =
  | Head
  | Body of { req : Http.request; keep_alive : bool; need : int }
  | Failed of error

type t = {
  max_body : int;
  mutable data : Bytes.t;
  mutable start : int;  (* first unconsumed byte *)
  mutable len : int;  (* unconsumed byte count *)
  mutable state : state;
}

type item =
  | Request of Http.request * bool  (* keep_alive *)
  | Error of error
  | More

let create ~max_body () =
  { max_body; data = Bytes.create 8192; start = 0; len = 0; state = Head }

let buffered t = t.len

let feed t chunk n =
  (* Compact, then grow if the tail still cannot take n bytes. *)
  if t.start > 0 then begin
    Bytes.blit t.data t.start t.data 0 t.len;
    t.start <- 0
  end;
  let cap = Bytes.length t.data in
  if t.len + n > cap then begin
    let cap' =
      let rec grow c = if c >= t.len + n then c else grow (2 * c) in
      grow (2 * cap)
    in
    let data = Bytes.create cap' in
    Bytes.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  Bytes.blit chunk 0 t.data t.len n;
  t.len <- t.len + n

let fail t status msg =
  let e = { status; msg } in
  t.state <- Failed e;
  Error e

(* Find the end of the head: the first \n\n or \r\n\r\n. Returns the
   offset one past the terminator, or None. Scanning restarts from the
   buffer head each call — heads are small (bounded at 32 KiB) and
   usually arrive whole, so the simplicity wins. *)
let find_head_end t =
  let limit = t.start + t.len in
  let rec go i =
    if i >= limit then None
    else if Bytes.get t.data i = '\n' then
      if i + 1 < limit && Bytes.get t.data (i + 1) = '\n' then Some (i + 2)
      else if
        i + 2 < limit
        && Bytes.get t.data (i + 1) = '\r'
        && Bytes.get t.data (i + 2) = '\n'
      then Some (i + 3)
      else go (i + 1)
    else go (i + 1)
  in
  go t.start

let consume t n =
  t.start <- t.start + n;
  t.len <- t.len - n

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let parse_head t head_text =
  match String.split_on_char '\n' head_text with
  | [] -> fail t 400 "empty request head"
  | first :: rest -> (
      let first = strip_cr first in
      if String.length first > Http.max_header_line then
        fail t 431 "request line too long"
      else
        match String.split_on_char ' ' first with
        | [ meth; target; version ]
          when version = "HTTP/1.1" || version = "HTTP/1.0" -> (
            let rec headers acc count = function
              | [] | [ "" ] -> Ok (List.rev acc)
              | line :: tl -> (
                  let line = strip_cr line in
                  if line = "" then Ok (List.rev acc)
                  else if String.length line > Http.max_header_line then
                    Result.Error { status = 431; msg = "header line too long" }
                  else if count >= Http.max_header_count then
                    Result.Error { status = 431; msg = "too many headers" }
                  else
                    match Http.parse_header line with
                    | Ok h -> headers (h :: acc) (count + 1) tl
                    | Result.Error _ ->
                        Result.Error
                          {
                            status = 400;
                            msg = Printf.sprintf "malformed header %S" line;
                          })
            in
            match headers [] 0 rest with
            | Result.Error e ->
                t.state <- Failed e;
                Error e
            | Ok headers -> (
                let req : Http.request =
                  { meth; target; headers; body = "" }
                in
                (* Persistent by default in 1.1; 1.0 must opt in. *)
                let conn =
                  Option.map String.lowercase_ascii (Http.header "connection" req)
                in
                let keep_alive =
                  match (version, conn) with
                  | _, Some "close" -> false
                  | "HTTP/1.0", Some "keep-alive" -> true
                  | "HTTP/1.0", _ -> false
                  | _, _ -> true
                in
                match Http.header "content-length" req with
                | None ->
                    if Http.header "transfer-encoding" req <> None then
                      fail t 400 "chunked bodies are not supported"
                    else Request (req, keep_alive)
                | Some l -> (
                    match int_of_string_opt l with
                    | Some n when n >= 0 ->
                        if n > t.max_body then
                          fail t 413 "request body too large"
                        else begin
                          t.state <- Body { req; keep_alive; need = n };
                          More
                        end
                    | _ ->
                        fail t 400
                          (Printf.sprintf "bad Content-Length %S" l))))
        | _ ->
            fail t 400 (Printf.sprintf "malformed request line %S" first))

let rec next t =
  match t.state with
  | Failed e -> Error e
  | Body b ->
      if t.len < b.need then More
      else begin
        let body = Bytes.sub_string t.data t.start b.need in
        consume t b.need;
        t.state <- Head;
        Request ({ b.req with body }, b.keep_alive)
      end
  | Head -> (
      if t.len = 0 then More
      else
        match find_head_end t with
        | None ->
            if t.len > Http.max_head_bytes then
              fail t 431 "request head too large"
            else More
        | Some head_end ->
            let head_len = head_end - t.start in
            if head_len > Http.max_head_bytes then
              fail t 431 "request head too large"
            else begin
              let head_text = Bytes.sub_string t.data t.start head_len in
              consume t head_len;
              match parse_head t head_text with
              | More -> next t  (* head consumed; body may be buffered *)
              | (Request _ | Error _) as item -> item
            end)
