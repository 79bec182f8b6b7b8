(* Tests for the event-loop serving engine: the incremental request
   parser (arbitrary read splits, pipelining, head/body limits), the
   bounded LRU hot cache (capacity, eviction order, byte cap, concurrent
   hits), the shed tier's certified bounds against a real FPTAS answer,
   and the engine end to end over real sockets — keep-alive reuse,
   pipelined in-order responses, byte-identity with in-process
   Server.handle, and shed escalation/recovery under a request flood.

   End-to-end tests run the engine in a background thread via
   [Engine.serve ~stop ~on_port] with the pool at zero workers: submit
   then runs batches synchronously on the loop thread, which makes the
   dispatch/shed sequencing deterministic. *)

module Http = Dcn_serve.Http
module Request = Dcn_serve.Request
module Server = Dcn_serve.Server
module Engine = Dcn_engine.Engine
module Lru = Dcn_engine.Lru
module Reqstream = Dcn_engine.Reqstream
module Shed = Dcn_engine.Shed
module Clock = Dcn_obs.Clock
module J = Dcn_serve.Json_parse

let solve_body = "{\"topology\": \"rrg:12,6,3\", \"eps\": 0.2, \"gap\": 0.2}"

let post_raw ?(version = "HTTP/1.1") ?(extra = "") body =
  Printf.sprintf "POST /solve %s\r\nHost: x\r\n%sContent-Length: %d\r\n\r\n%s"
    version extra (String.length body) body

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let count_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i acc =
    if i + n > m then acc
    else if String.sub s i n = sub then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  if n = 0 then 0 else go 0 0

(* ---- Reqstream: incremental parsing ---- *)

let feed_string t s =
  Reqstream.feed t (Bytes.of_string s) (String.length s)

let test_reqstream_byte_at_a_time () =
  let t = Reqstream.create ~max_body:1_000_000 () in
  let raw = post_raw ~extra:"Content-Type: application/json\r\n" solve_body in
  let n = String.length raw in
  String.iteri
    (fun i c ->
      feed_string t (String.make 1 c);
      match Reqstream.next t with
      | Reqstream.More ->
          if i = n - 1 then Alcotest.fail "no request after the full feed"
      | Reqstream.Request (req, keep_alive) ->
          if i < n - 1 then
            Alcotest.fail (Printf.sprintf "request yielded at byte %d/%d" i n);
          Alcotest.(check string) "meth" "POST" req.Http.meth;
          Alcotest.(check string) "target" "/solve" req.Http.target;
          Alcotest.(check (option string)) "header lowercased"
            (Some "application/json")
            (Http.header "content-type" req);
          Alcotest.(check string) "body" solve_body req.Http.body;
          Alcotest.(check bool) "keep-alive (1.1 default)" true keep_alive
      | Reqstream.Error e ->
          Alcotest.fail (Printf.sprintf "parse error %d: %s" e.status e.msg))
    raw;
  Alcotest.(check int) "buffer drained" 0 (Reqstream.buffered t)

let test_reqstream_pipelined () =
  let t = Reqstream.create ~max_body:1_000_000 () in
  feed_string t
    (post_raw solve_body
    ^ post_raw ~extra:"Connection: close\r\n" "{\"topology\": \"rrg:20,4,3\"}");
  (match Reqstream.next t with
  | Reqstream.Request (req, keep_alive) ->
      Alcotest.(check string) "first body" solve_body req.Http.body;
      Alcotest.(check bool) "first keeps alive" true keep_alive
  | _ -> Alcotest.fail "first pipelined request missing");
  (match Reqstream.next t with
  | Reqstream.Request (req, keep_alive) ->
      Alcotest.(check string) "second body" "{\"topology\": \"rrg:20,4,3\"}"
        req.Http.body;
      Alcotest.(check bool) "Connection: close honored" false keep_alive
  | _ -> Alcotest.fail "second pipelined request missing");
  (match Reqstream.next t with
  | Reqstream.More -> ()
  | _ -> Alcotest.fail "stream must be empty after both requests")

let test_reqstream_http10_defaults_close () =
  let t = Reqstream.create ~max_body:1024 () in
  feed_string t (post_raw ~version:"HTTP/1.0" "{}");
  match Reqstream.next t with
  | Reqstream.Request (_, keep_alive) ->
      Alcotest.(check bool) "1.0 defaults to close" false keep_alive
  | _ -> Alcotest.fail "HTTP/1.0 request not parsed"

let expect_error t status =
  match Reqstream.next t with
  | Reqstream.Error e -> Alcotest.(check int) "status" status e.status
  | Reqstream.Request _ -> Alcotest.fail "request accepted past a limit"
  | Reqstream.More -> Alcotest.fail "limit not enforced"

let test_reqstream_limits () =
  (* Oversized header line: 431, terminal. *)
  let t = Reqstream.create ~max_body:1024 () in
  feed_string t
    ("GET / HTTP/1.1\r\nX-Big: "
    ^ String.make (Http.max_header_line + 10) 'a'
    ^ "\r\n\r\n");
  expect_error t 431;
  expect_error t 431;
  (* Errors persist even across more input. *)
  feed_string t "GET / HTTP/1.1\r\n\r\n";
  expect_error t 431;
  (* Declared body over the limit: 413. *)
  let t = Reqstream.create ~max_body:64 () in
  feed_string t "POST /solve HTTP/1.1\r\nContent-Length: 100000\r\n\r\n";
  expect_error t 413;
  (* Chunked bodies are rejected outright: 400. *)
  let t = Reqstream.create ~max_body:1024 () in
  feed_string t "POST /solve HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
  expect_error t 400;
  (* Too many header lines: 431. *)
  let t = Reqstream.create ~max_body:1024 () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "GET / HTTP/1.1\r\n";
  for i = 0 to Http.max_header_count + 5 do
    Buffer.add_string buf (Printf.sprintf "X-H%d: v\r\n" i)
  done;
  Buffer.add_string buf "\r\n";
  feed_string t (Buffer.contents buf);
  expect_error t 431

(* ---- Lru: bounded hot cache ---- *)

let test_lru_capacity_and_order () =
  let l = Lru.create ~entries:3 () in
  Alcotest.(check bool) "enabled" true (Lru.enabled l);
  Lru.insert l "a" "1";
  Lru.insert l "b" "2";
  Lru.insert l "c" "3";
  (* Touch "a" so "b" is the least recently used. *)
  Alcotest.(check (option string)) "hit a" (Some "1") (Lru.find l "a");
  Lru.insert l "d" "4";
  Alcotest.(check (option string)) "b evicted" None (Lru.find l "b");
  Alcotest.(check (option string)) "a survives" (Some "1") (Lru.find l "a");
  Alcotest.(check (option string)) "c survives" (Some "3") (Lru.find l "c");
  Alcotest.(check (option string)) "d present" (Some "4") (Lru.find l "d");
  let s = Lru.stats l in
  Alcotest.(check int) "entries" 3 s.Lru.entries;
  Alcotest.(check int) "evictions" 1 s.Lru.evictions;
  Alcotest.(check int) "misses" 1 s.Lru.misses;
  Alcotest.(check int) "hits" 4 s.Lru.hits;
  (* Replacing a key refreshes in place, no eviction. *)
  Lru.insert l "a" "1'";
  Alcotest.(check (option string)) "replaced" (Some "1'") (Lru.find l "a");
  Alcotest.(check int) "no extra eviction" 1 (Lru.stats l).Lru.evictions

let test_lru_byte_bound () =
  (* Each entry is ~103 bytes (3-byte key + 100-byte value); a 300-byte
     budget holds two. *)
  let l = Lru.create ~entries:100 ~max_bytes:300 () in
  let v = String.make 100 'x' in
  Lru.insert l "k00" v;
  Lru.insert l "k01" v;
  Lru.insert l "k02" v;
  let s = Lru.stats l in
  Alcotest.(check bool) "byte budget enforced" true (s.Lru.bytes <= 300);
  Alcotest.(check int) "oldest evicted" 1 s.Lru.evictions;
  Alcotest.(check (option string)) "k00 evicted" None (Lru.find l "k00");
  Alcotest.(check (option string)) "k02 present" (Some v) (Lru.find l "k02")

let test_lru_disabled () =
  let l = Lru.create ~entries:0 () in
  Alcotest.(check bool) "disabled" false (Lru.enabled l);
  Lru.insert l "a" "1";
  Alcotest.(check (option string)) "never hits" None (Lru.find l "a");
  Alcotest.(check int) "no entries" 0 (Lru.stats l).Lru.entries

let test_lru_concurrent_hits () =
  let l = Lru.create ~entries:64 () in
  let key i = Printf.sprintf "key-%d" i in
  let value i = Printf.sprintf "value-%d" i in
  for i = 0 to 15 do
    Lru.insert l (key i) (value i)
  done;
  let errors = Atomic.make 0 in
  let worker t () =
    for j = 0 to 999 do
      let k = (t + j) mod 16 in
      (match Lru.find l (key k) with
      | Some v when String.equal v (value k) -> ()
      | _ -> Atomic.incr errors);
      (* Writers race the readers on a disjoint key range. *)
      if j mod 97 = 0 then Lru.insert l (key (16 + (j mod 8))) (value 99)
    done
  in
  let threads = List.init 8 (fun t -> Thread.create (worker t) ()) in
  List.iter Thread.join threads;
  Alcotest.(check int) "no stale or missing hits" 0 (Atomic.get errors);
  Alcotest.(check bool) "hits counted" true ((Lru.stats l).Lru.hits >= 8000)

(* ---- Shed: certified bounds ---- *)

let dist_oracle g =
  let memo = Hashtbl.create 8 in
  fun src ->
    match Hashtbl.find_opt memo src with
    | Some d -> d
    | None ->
        let d = Dcn_graph.Bfs.distances g src in
        Hashtbl.add memo src d;
        d

let parse_num body name =
  match
    Result.to_option (J.parse body)
    |> Fun.flip Option.bind (J.member name)
    |> Fun.flip Option.bind J.to_float_opt
  with
  | Some x -> x
  | None -> Alcotest.fail ("missing numeric field " ^ name)

let test_shed_bound_validity () =
  let req =
    match Request.of_body solve_body with
    | Ok r -> r
    | Error msg -> Alcotest.fail msg
  in
  let resolved = Request.resolve req in
  let g = resolved.Request.topo.Dcn_topology.Topology.graph in
  let terms = Shed.compute_terms ~dist:(dist_oracle g) resolved in
  let b = Shed.certified terms in
  Alcotest.(check bool) "bound positive and finite" true
    (b > 0.0 && Float.is_finite b);
  Alcotest.(check bool) "certified never above capacity term" true
    (b <= terms.Shed.capacity +. 1e-12);
  (* The full FPTAS answer for the same request: the cheap bound must
     cover its certified interval — B ≥ λ* ≥ λ_lo directly, and
     B·(1+gap) ≥ λ_hi because the solver promises λ_hi ≤ λ*·(1+gap). *)
  let srv =
    Server.create { Server.default_config with Server.default_timeout_s = None }
  in
  let resp =
    Server.handle srv ~accept_ns:(Clock.now_ns ())
      { Http.meth = "POST"; target = "/solve"; headers = []; body = solve_body }
  in
  Alcotest.(check int) "full solve 200" 200 resp.Http.status;
  let lo = parse_num resp.Http.body "lambda_lower" in
  let hi = parse_num resp.Http.body "lambda_upper" in
  Alcotest.(check bool) "B >= lambda_lower" true (b +. 1e-9 >= lo);
  Alcotest.(check bool) "B*(1+gap) >= lambda_upper" true
    (b *. (1.0 +. req.Request.gap) +. 1e-9 >= hi)

let test_shed_cut_term_clustered () =
  let topo =
    Dcn_topology.Hetero.two_class
      (Random.State.make [| 7 |])
      ~large:{ Dcn_topology.Hetero.count = 8; ports = 10; servers_each = 4 }
      ~small:{ Dcn_topology.Hetero.count = 8; ports = 10; servers_each = 4 }
  in
  let req =
    match Request.of_body "{\"topology\": \"rrg:12,6,3\"}" with
    | Ok r -> r
    | Error msg -> Alcotest.fail msg
  in
  (* Same request semantics, clustered topology injected underneath —
     exactly what the batch dispatcher does via resolve_with. *)
  let resolved = Request.resolve_with ~topo req in
  let g = topo.Dcn_topology.Topology.graph in
  let terms = Shed.compute_terms ~dist:(dist_oracle g) resolved in
  (match terms.Shed.cut with
  | Some cut ->
      Alcotest.(check bool) "cut term positive" true (cut > 0.0);
      Alcotest.(check (float 1e-9)) "certified = min(capacity, cut)"
        (Float.min terms.Shed.capacity cut)
        (Shed.certified terms)
  | None ->
      Alcotest.fail "clustered topology with crossing demand must cut-bound");
  (* The unclustered rrg has no cut term. *)
  let plain = Request.resolve req in
  let pg = plain.Request.topo.Dcn_topology.Topology.graph in
  let pterms = Shed.compute_terms ~dist:(dist_oracle pg) plain in
  Alcotest.(check bool) "unclustered has no cut term" true
    (Option.is_none pterms.Shed.cut)

(* ---- Engine end to end (real sockets, background loop) ---- *)

let with_engine ?(tune = fun (c : Engine.config) -> c) f =
  let saved_workers = Core.Pool.workers () in
  (* Zero workers: Pool.submit runs batches synchronously on the loop
     thread, making dispatch/shed sequencing deterministic. *)
  Core.Pool.set_workers 0;
  let stop = Atomic.make false in
  let port = Atomic.make 0 in
  let base =
    {
      Server.default_config with
      Server.port = 0;
      default_timeout_s = None;
    }
  in
  let cfg = tune (Engine.default base) in
  let th =
    Thread.create
      (fun () -> Engine.serve ~stop ~on_port:(fun p -> Atomic.set port p) cfg)
      ()
  in
  let rec await n =
    if Atomic.get port = 0 then
      if n > 200 then begin
        Atomic.set stop true;
        Thread.join th;
        Alcotest.fail "engine did not publish its port"
      end
      else begin
        Thread.delay 0.05;
        await (n + 1)
      end
  in
  await 0;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join th;
      Core.Pool.set_workers saved_workers)
    (fun () -> f (Atomic.get port))

let test_engine_keepalive_and_identity () =
  with_engine (fun port ->
      let c = Http.conn_create ~host:"127.0.0.1" ~port () in
      Fun.protect
        ~finally:(fun () -> Http.conn_close c)
        (fun () ->
          let once () =
            match
              Http.conn_request c ~meth:"POST" ~target:"/solve"
                ~body:solve_body ()
            with
            | Ok (200, body) -> body
            | Ok (status, body) ->
                Alcotest.fail (Printf.sprintf "HTTP %d: %s" status body)
            | Error msg -> Alcotest.fail msg
          in
          let first = once () in
          (* Identical repeat on the same connection: hot-cache hit,
             byte-identical, no reconnect. *)
          let second = once () in
          Alcotest.(check string) "hot repeat is byte-identical" first second;
          Alcotest.(check int) "single TCP connection" 1 (Http.conn_connects c);
          Alcotest.(check int) "both requests on it" 2 (Http.conn_requests c);
          Alcotest.(check bool) "marked full tier" true
            (contains ~sub:"\"tier\": \"fptas\"" first);
          (* In-process dispatch must render the same bytes. *)
          let srv =
            Server.create
              { Server.default_config with Server.default_timeout_s = None }
          in
          let resp =
            Server.handle srv ~accept_ns:(Clock.now_ns ())
              {
                Http.meth = "POST";
                target = "/solve";
                headers = [];
                body = solve_body;
              }
          in
          Alcotest.(check string) "wire body = in-process body" resp.Http.body
            first))

let read_all fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
  in
  go ();
  Buffer.contents buf

let test_engine_pipelined_responses_in_order () =
  with_engine (fun port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          (* Three pipelined requests in one write; the last is HTTP/1.0
             so the engine closes after it and read_all terminates. *)
          let raw =
            "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            ^ post_raw solve_body
            ^ "GET /healthz HTTP/1.0\r\n\r\n"
          in
          ignore (Unix.write_substring fd raw 0 (String.length raw));
          let text = read_all fd in
          Alcotest.(check int) "three 200s" 3
            (count_sub ~sub:" 200 OK\r\n" text);
          (* In-order: healthz, then the solve, then healthz. *)
          let i1 = String.index text '{' in
          Alcotest.(check bool) "first response is healthz" true
            (contains ~sub:"\"draining\": false"
               (String.sub text i1 (String.length text - i1))
            && String.length text > i1);
          Alcotest.(check bool) "solve answered between" true
            (contains ~sub:"\"tier\": \"fptas\"" text)))

let test_engine_shed_escalates_and_recovers () =
  with_engine
    ~tune:(fun c -> { c with Engine.shed_queue = 1; batch_max = 1 })
    (fun port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          (* Four solves with distinct topologies (seeds), pipelined in
             ONE write so they all queue before the first dispatch. With
             shed_queue = 1 the backlog left behind each batch turns
             shedding on, and the last request — dispatched with an
             empty backlog — recovers to the full tier. The last is
             HTTP/1.0 so the connection closes after it. *)
          let body i =
            Printf.sprintf
              "{\"topology\": \"rrg:12,6,3\", \"seed\": %d, \"eps\": 0.2, \
               \"gap\": 0.2}"
              (10 + i)
          in
          let raw =
            post_raw (body 0) ^ post_raw (body 1) ^ post_raw (body 2)
            ^ post_raw ~version:"HTTP/1.0" (body 3)
          in
          ignore (Unix.write_substring fd raw 0 (String.length raw));
          let text = read_all fd in
          Alcotest.(check int) "four 200s" 4 (count_sub ~sub:" 200 OK\r\n" text);
          let bound = count_sub ~sub:"\"tier\": \"bound\"" text in
          let full = count_sub ~sub:"\"tier\": \"fptas\"" text in
          Alcotest.(check int) "all answered, one tier each" 4 (bound + full);
          Alcotest.(check bool) "pressure shed to bounds" true (bound >= 1);
          (* Recovery: the final response (empty backlog behind it) is a
             full FPTAS answer. *)
          let last_tier_is_full =
            let i_bound = ref (-1) and i_full = ref (-1) in
            let n = String.length text in
            let scan sub r =
              let sl = String.length sub in
              for i = 0 to n - sl do
                if String.sub text i sl = sub then r := i
              done
            in
            scan "\"tier\": \"bound\"" i_bound;
            scan "\"tier\": \"fptas\"" i_full;
            !i_full > !i_bound
          in
          Alcotest.(check bool) "tail of the flood gets full service" true
            last_tier_is_full;
          (* Bound responses carry the certified-degraded schema. *)
          if bound > 0 then begin
            Alcotest.(check bool) "bound body marked shed" true
              (contains ~sub:"\"shed\": true" text);
            Alcotest.(check bool) "bound lower end open" true
              (contains ~sub:"\"lambda_lower\": 0" text)
          end))

let test_engine_rejects_oversized_header_with_431 () =
  with_engine (fun port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          let raw =
            "GET /healthz HTTP/1.1\r\nX-Big: "
            ^ String.make (Http.max_header_line + 100) 'a'
            ^ "\r\n\r\n"
          in
          (try ignore (Unix.write_substring fd raw 0 (String.length raw))
           with Unix.Unix_error (Unix.EPIPE, _, _) -> ());
          let text = read_all fd in
          Alcotest.(check bool) "431 on the wire" true
            (contains ~sub:" 431 " text)))

let suite =
  ( "engine",
    [
      Alcotest.test_case "reqstream: byte-at-a-time" `Quick
        test_reqstream_byte_at_a_time;
      Alcotest.test_case "reqstream: pipelined requests" `Quick
        test_reqstream_pipelined;
      Alcotest.test_case "reqstream: HTTP/1.0 defaults to close" `Quick
        test_reqstream_http10_defaults_close;
      Alcotest.test_case "reqstream: limits (431/413/400)" `Quick
        test_reqstream_limits;
      Alcotest.test_case "lru: capacity and eviction order" `Quick
        test_lru_capacity_and_order;
      Alcotest.test_case "lru: byte bound" `Quick test_lru_byte_bound;
      Alcotest.test_case "lru: disabled at zero entries" `Quick
        test_lru_disabled;
      Alcotest.test_case "lru: concurrent hits" `Quick test_lru_concurrent_hits;
      Alcotest.test_case "shed: bound covers the FPTAS interval" `Quick
        test_shed_bound_validity;
      Alcotest.test_case "shed: cut term on clustered topologies" `Quick
        test_shed_cut_term_clustered;
      Alcotest.test_case "engine: keep-alive + byte identity" `Quick
        test_engine_keepalive_and_identity;
      Alcotest.test_case "engine: pipelined responses in order" `Quick
        test_engine_pipelined_responses_in_order;
      Alcotest.test_case "engine: shed escalates and recovers" `Quick
        test_engine_shed_escalates_and_recovers;
      Alcotest.test_case "engine: oversized header gets 431" `Quick
        test_engine_rejects_oversized_header_with_431;
    ] )
