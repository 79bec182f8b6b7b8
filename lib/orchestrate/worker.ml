(* A worker endpoint: one dcn_served daemon the coordinator talks to
   over the existing HTTP/JSON protocol. Wraps Http.client_request with
   the /healthz decoding and the error classification the scheduler's
   retry policy keys on. *)

module Http = Dcn_serve.Http
module J = Dcn_obs.Json

type endpoint = { host : string; port : int }

let name e = Printf.sprintf "%s:%d" e.host e.port

let parse_url input =
  let s = String.trim input in
  let s =
    let p = "http://" in
    let plen = String.length p in
    if
      String.length s >= plen
      && String.lowercase_ascii (String.sub s 0 plen) = p
    then String.sub s plen (String.length s - plen)
    else s
  in
  let s =
    match String.rindex_opt s '/' with
    | Some i when i = String.length s - 1 -> String.sub s 0 i
    | Some _ | None -> s
  in
  match String.rindex_opt s ':' with
  | None ->
      Error
        (Printf.sprintf "worker %S: expected HOST:PORT or http://HOST:PORT"
           input)
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 1 && p <= 65535 && host <> "" -> Ok { host; port = p }
      | Some _ | None ->
          Error (Printf.sprintf "worker %S: bad port %S" input port))

type health = {
  ok : bool;
  solver_version : string;
  jobs : int;
  draining : bool;
}

let healthz ?(timeout_s = 2.0) e =
  match
    Http.client_request ~host:e.host ~port:e.port ~meth:"GET"
      ~target:"/healthz" ~timeout_s ()
  with
  | Error msg -> Error msg
  | Ok (200, body) -> (
      match J.parse body with
      | Error msg -> Error (Printf.sprintf "healthz: invalid JSON: %s" msg)
      | Ok json ->
          let str n = Option.bind (J.member n json) J.to_string_opt in
          let int n ~default =
            Option.value ~default (Option.bind (J.member n json) J.to_int_opt)
          in
          let boolean n ~default =
            Option.value ~default (Option.bind (J.member n json) J.to_bool_opt)
          in
          Ok
            {
              ok =
                (match str "status" with
                | Some "ok" -> true
                | Some _ | None -> false);
              solver_version = Option.value ~default:"" (str "solver_version");
              jobs = int "jobs" ~default:1;
              draining = boolean "draining" ~default:false;
            })
  | Ok (status, _) -> Error (Printf.sprintf "healthz: HTTP %d" status)

let alive ?(timeout_s = 2.0) e =
  match healthz ~timeout_s e with
  | Ok h -> h.ok && not h.draining
  | Error _ -> false

let solve ?timeout_s ?trace e ~body =
  let headers =
    match trace with Some v -> [ ("x-dcn-trace", v) ] | None -> []
  in
  match
    Http.client_request ~host:e.host ~port:e.port ~meth:"POST" ~target:"/solve"
      ~headers ~body ?timeout_s ()
  with
  | Error msg -> Error (Scheduler.Retry msg)
  | Ok (200, body) -> Ok body
  | Ok (status, resp) ->
      let msg = Printf.sprintf "HTTP %d: %s" status (String.trim resp) in
      (* 408 (deadline) and 429 (admission) are load conditions another
         worker — or a later attempt — may not hit; every other 4xx means
         the request itself is bad. *)
      if status >= 400 && status < 500 && status <> 408 && status <> 429 then
        Error (Scheduler.Fatal msg)
      else Error (Scheduler.Retry msg)

let metrics ?(timeout_s = 5.0) e =
  match
    Http.client_request ~host:e.host ~port:e.port ~meth:"GET"
      ~target:"/metrics" ~timeout_s ()
  with
  | Error msg -> Error msg
  | Ok (200, body) -> Dcn_serve.Metrics_io.snapshot_of_body body
  | Ok (status, _) -> Error (Printf.sprintf "metrics: HTTP %d" status)

let trace_dump ?(timeout_s = 10.0) ?epoch_ns ?(drain = false) e =
  let target =
    let params =
      (if drain then [ "drain=1" ] else [])
      @
      match epoch_ns with
      | Some ns -> [ Printf.sprintf "epoch_ns=%Ld" ns ]
      | None -> []
    in
    match params with
    | [] -> "/trace"
    | ps -> "/trace?" ^ String.concat "&" ps
  in
  match
    Http.client_request ~host:e.host ~port:e.port ~meth:"GET" ~target
      ~timeout_s ()
  with
  | Error msg -> Error msg
  | Ok (200, body) -> Dcn_obs.Trace.of_envelope body
  | Ok (status, _) -> Error (Printf.sprintf "trace: HTTP %d" status)
