(* The event-loop serving engine.

   One thread owns every socket: a poll(2) readiness loop over a
   non-blocking listener and non-blocking keep-alive connections, each
   with an incremental request parser (Reqstream) and an ordered output
   queue. Solves never run on the loop — they are queued as jobs,
   grouped by topology key, and dispatched as batches to the shared
   domain pool; completed responses come back over a mutex-guarded queue
   plus a self-pipe wakeup. Pipelined requests are answered strictly in
   arrival order per connection (slot sequencing), whatever order the
   pool finishes them in.

   Every body is rendered by Server: GET endpoints and error paths go
   through Server.handle verbatim, and solves go through
   Server.solve_resolved — coalescing, deadline handling, rendering — so
   this module is transport and scheduling only. The hot LRU (Lru) fronts
   that path with already-rendered bodies, and under queue pressure the
   dispatcher switches batches to the bound tier (Shed), escalating back
   to full FPTAS service as the backlog clears. *)

module Http = Dcn_serve.Http
module Server = Dcn_serve.Server
module Request = Dcn_serve.Request
module Metrics = Dcn_obs.Metrics
module Clock = Dcn_obs.Clock
module Json = Dcn_obs.Json
module Pool = Dcn_util.Pool

type config = {
  base : Server.config;
  max_conns : int;
  idle_timeout_s : float;  (* 0 = never *)
  hot_cache_entries : int;  (* 0 = cache off *)
  hot_cache_bytes : int;
  shed_queue : int;  (* backlog high watermark; 0 = shedding off *)
  shed_latency_s : float;  (* oldest-job age watermark; 0 = off *)
  batch_max : int;
}

let default base =
  {
    base;
    max_conns = 1024;
    idle_timeout_s = 30.0;
    hot_cache_entries = 4096;
    hot_cache_bytes = 64 * 1024 * 1024;
    shed_queue = 0;
    shed_latency_s = 0.0;
    batch_max = 8;
  }

(* Parsed-but-unanswered requests allowed per connection before the loop
   stops reading from it — pipelining backpressure via TCP. *)
let max_pipeline = 64

(* ---- metrics ---- *)

let m_accepted = Metrics.counter "engine.conns.accepted"
let m_idle_closed = Metrics.counter "engine.conns.idle_closed"
let m_parse_errors = Metrics.counter "engine.parse_errors"
let m_batches = Metrics.counter "engine.batches"
let m_batch_jobs = Metrics.counter "engine.batch.jobs"
let g_conns = Metrics.gauge "engine.conns.open"
let g_queue = Metrics.gauge "engine.queue.depth"
let g_shedding = Metrics.gauge "engine.shedding"

(* ---- connections ---- *)

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_stream : Reqstream.t;
  c_out : string Queue.t;  (* serialized responses, in flush order *)
  mutable c_out_off : int;  (* bytes of the head element already written *)
  mutable c_next_slot : int;  (* next request's sequence number *)
  mutable c_flush_slot : int;  (* next slot whose response may be flushed *)
  c_ready : (int, string) Hashtbl.t;  (* out-of-order completed slots *)
  c_ka : (int, bool) Hashtbl.t;  (* slot -> keep-alive after answering *)
  mutable c_open : int;  (* parsed-but-unanswered requests *)
  mutable c_close_after_flush : bool;
  mutable c_peer_closed : bool;
  mutable c_dead : bool;
  mutable c_last_ns : int64;
}

type job = {
  j_conn : int;
  j_slot : int;
  j_accept_ns : int64;
  j_req : Request.t;
  j_cache_key : string;
  j_trace : (string * int * int) option;
}

type completion = Answer of int * int * Http.response | Batch_done

type loop = {
  cfg : config;
  srv : Server.t;
  lru : Lru.t;
  conns : (int, conn) Hashtbl.t;
  by_fd : (Unix.file_descr, int) Hashtbl.t;
  pending : job Queue.t;  (* loop thread only *)
  completions : completion Queue.t [@dcn.guarded_by "comp_lock"];
  comp_lock : Mutex.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  read_buf : Bytes.t;
  mutable next_conn_id : int;
  mutable inflight_batches : int;
  mutable shedding : bool;
  mutable draining : bool;
}

let wake lp =
  (* A full pipe already guarantees a wakeup; a closed one means the
     loop is past caring. *)
  try ignore (Unix.write lp.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error
      ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE | Unix.EBADF), _, _) -> ()

let push_completion lp c =
  Mutex.lock lp.comp_lock;
  Queue.add c lp.completions;
  Mutex.unlock lp.comp_lock;
  wake lp

let close_conn lp c =
  if not c.c_dead then begin
    c.c_dead <- true;
    Hashtbl.remove lp.conns c.c_id;
    Hashtbl.remove lp.by_fd c.c_fd;
    (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
    Metrics.set g_conns (float_of_int (Hashtbl.length lp.conns))
  end

(* Write as much of the output queue as the socket takes; close on flush
   when the protocol said so. *)
let[@dcn.event_loop] try_write lp c =
  if not c.c_dead then begin
    (try
       let progress = ref true in
       while (not (Queue.is_empty c.c_out)) && !progress do
         let s = Queue.peek c.c_out in
         let len = String.length s - c.c_out_off in
         let n =
           (Unix.write_substring c.c_fd s c.c_out_off len
           [@dcn.lint
             "loop-blocking: connection sockets are set nonblocking at \
              accept; a full buffer returns EAGAIN (handled below), never \
              blocks"])
         in
         if n = len then begin
           ignore (Queue.pop c.c_out);
           c.c_out_off <- 0
         end
         else begin
           c.c_out_off <- c.c_out_off + n;
           progress := false
         end
       done
     with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
    | Unix.Unix_error _ -> close_conn lp c);
    if
      (not c.c_dead)
      && Queue.is_empty c.c_out
      && (c.c_close_after_flush || (c.c_peer_closed && c.c_open = 0))
    then close_conn lp c
  end

(* Slot sequencing: responses become flushable only in request order, so
   pipelined clients read answers in the order they asked. *)
let rec flush_ready lp c =
  match Hashtbl.find_opt c.c_ready c.c_flush_slot with
  | None -> try_write lp c
  | Some bytes ->
      Hashtbl.remove c.c_ready c.c_flush_slot;
      Queue.add bytes c.c_out;
      c.c_open <- c.c_open - 1;
      (match Hashtbl.find_opt c.c_ka c.c_flush_slot with
      | Some false -> c.c_close_after_flush <- true
      | Some true | None -> ());
      Hashtbl.remove c.c_ka c.c_flush_slot;
      c.c_flush_slot <- c.c_flush_slot + 1;
      flush_ready lp c

let complete lp c slot resp =
  if not c.c_dead then begin
    let keep_alive =
      match Hashtbl.find_opt c.c_ka slot with Some ka -> ka | None -> false
    in
    Hashtbl.replace c.c_ready slot
      (Http.serialize_response ~keep_alive resp);
    flush_ready lp c
  end

let deliver lp conn_id slot resp =
  match Hashtbl.find_opt lp.conns conn_id with
  | None -> ()  (* connection died while the solve ran *)
  | Some c -> complete lp c slot resp

(* ---- batched dispatch ---- *)

let launch_batch lp jobs tier =
  lp.inflight_batches <- lp.inflight_batches + 1;
  Metrics.incr m_batches;
  Metrics.add m_batch_jobs (List.length jobs);
  let srv = lp.srv in
  let task () =
    (* One topology build per batch (Lazy memoizes exceptions too, so an
       invalid spec 400s every job); one BFS tree per source for the
       bound tier, shared across the batch's traffic variants. *)
    let topo =
      lazy (Request.build_topology (List.hd jobs).j_req)
    in
    let dist_tbl = Hashtbl.create 16 in
    let dist src =
      match Hashtbl.find_opt dist_tbl src with
      | Some d -> d
      | None ->
          let d =
            Dcn_graph.Bfs.distances
              (Lazy.force topo).Dcn_topology.Topology.graph src
          in
          Hashtbl.add dist_tbl src d;
          d
    in
    List.iter
      (fun j ->
        let served =
          try
            let resolved = Request.resolve_with ~topo:(Lazy.force topo) j.j_req in
            let digest = Request.digest j.j_req resolved in
            match tier with
            | `Full ->
                let sv =
                  Server.solve_resolved srv ~accept_ns:j.j_accept_ns
                    ?trace_ids:j.j_trace ~digest j.j_req resolved
                in
                (* Only full-tier 200 bodies are hot-cacheable: bound
                   answers must be replaceable by full ones, and errors
                   must stay retryable. *)
                if sv.Server.resp.Http.status = 200 then
                  Lru.insert lp.lru j.j_cache_key sv.Server.resp.Http.body;
                sv
            | `Bound ->
                Shed.bound_served srv ~accept_ns:j.j_accept_ns ~dist ~digest
                  j.j_req resolved
          with Invalid_argument msg | Failure msg | Sys_error msg ->
            Server.plain (Server.error_response 400 msg)
        in
        let resp =
          Server.account srv ~accept_ns:j.j_accept_ns ~meth:"POST"
            ~path:"/solve" served
        in
        push_completion lp (Answer (j.j_conn, j.j_slot, resp)))
      jobs;
    push_completion lp Batch_done
  in
  (* submit only refuses after Pool.shutdown, which this loop performs
     last; run inline rather than drop work if it ever races. *)
  if not (Pool.submit task) then
    (task ()
    [@dcn.lint
      "loop-blocking: inline fallback only fires after Pool.shutdown, \
       when the loop is already draining and latency tiers are moot"])

let[@dcn.event_loop] dispatch lp =
  Metrics.set g_queue (float_of_int (Queue.length lp.pending));
  let max_batches = max 1 (Pool.workers ()) in
  while
    lp.inflight_batches < max_batches && not (Queue.is_empty lp.pending)
  do
    let first = Queue.pop lp.pending in
    let key = Request.topology_key first.j_req in
    let batch = ref [ first ] in
    let taken = ref 1 in
    let rest = Queue.create () in
    Queue.iter
      (fun j ->
        if !taken < lp.cfg.batch_max && Request.topology_key j.j_req = key
        then begin
          batch := j :: !batch;
          incr taken
        end
        else Queue.add j rest)
      lp.pending;
    Queue.clear lp.pending;
    Queue.transfer rest lp.pending;
    (* Tier hysteresis, evaluated against the backlog left *behind* this
       batch: shedding starts when it exceeds the watermark (or the next
       waiter has aged past the latency bound) and stops once it falls
       to half — so the tail of a flood still gets full service. *)
    let depth = Queue.length lp.pending in
    let oldest_age =
      match Queue.peek_opt lp.pending with
      | Some j -> Clock.elapsed_s j.j_accept_ns
      | None -> 0.0
    in
    let shed_on =
      (lp.cfg.shed_queue > 0 && depth >= lp.cfg.shed_queue)
      || lp.cfg.shed_latency_s > 0.0
         && oldest_age >= lp.cfg.shed_latency_s
    in
    let shed_off =
      depth <= lp.cfg.shed_queue / 2
      && (lp.cfg.shed_latency_s <= 0.0
         || oldest_age < lp.cfg.shed_latency_s /. 2.0)
    in
    if (not lp.shedding) && shed_on then lp.shedding <- true
    else if lp.shedding && shed_off then lp.shedding <- false;
    Metrics.set g_shedding (if lp.shedding then 1.0 else 0.0);
    launch_batch lp (List.rev !batch) (if lp.shedding then `Bound else `Full)
  done;
  Metrics.set g_queue (float_of_int (Queue.length lp.pending))

(* ---- request intake (loop thread) ---- *)

let dispatch_request lp c slot (req : Http.request) =
  let accept_ns = Clock.now_ns () in
  let path, _ = Http.split_target req.Http.target in
  match (req.Http.meth, path) with
  | "POST", "/solve" when lp.draining ->
      Server.note_request lp.srv ~solve:true;
      let resp =
        Server.account lp.srv ~accept_ns ~meth:req.Http.meth ~path
          (Server.plain (Server.reject lp.srv `Draining))
      in
      complete lp c slot resp
  | "POST", "/solve" -> (
      Server.note_request lp.srv ~solve:true;
      match Request.of_body req.Http.body with
      | Error msg ->
          let resp =
            Server.account lp.srv ~accept_ns ~meth:req.Http.meth ~path
              (Server.plain (Server.error_response 400 msg))
          in
          complete lp c slot resp
      | Ok parsed -> (
          let cache_key = Request.cache_key parsed in
          match Lru.find lp.lru cache_key with
          | Some body ->
              (* Byte-identical rendered body, no resolution, no pool
                 slot. The digest lives inside the body and is not
                 re-derived; the access log records role=hot. *)
              let served =
                {
                  Server.resp =
                    Http.response
                      ~headers:[ ("Content-Type", "application/json") ]
                      200 body;
                  sv_digest = None;
                  sv_role = Some "hot";
                }
              in
              let resp =
                Server.account lp.srv ~accept_ns ~meth:req.Http.meth ~path
                  served
              in
              complete lp c slot resp
          | None ->
              Queue.add
                {
                  j_conn = c.c_id;
                  j_slot = slot;
                  j_accept_ns = accept_ns;
                  j_req = parsed;
                  j_cache_key = cache_key;
                  j_trace = Server.parse_trace_header req;
                }
                lp.pending))
  | _ ->
      (* GET /healthz, /metrics, /trace and every error path: Server's
         dispatcher verbatim, so bodies and metrics match in-process. *)
      complete lp c slot
        (Server.handle lp.srv ~accept_ns req
        [@dcn.lint
          "loop-blocking: non-solve endpoints render in-memory state \
           (health, metrics, trace snapshots); file writes happen on \
           explicit dump requests the operator issues while idle"])

let process_stream lp c =
  let continue = ref true in
  while !continue && (not c.c_dead) && c.c_open < max_pipeline do
    match Reqstream.next c.c_stream with
    | Reqstream.More -> continue := false
    | Reqstream.Error e ->
        Metrics.incr m_parse_errors;
        let slot = c.c_next_slot in
        c.c_next_slot <- slot + 1;
        c.c_open <- c.c_open + 1;
        Hashtbl.replace c.c_ka slot false;
        complete lp c slot (Server.error_response e.Reqstream.status e.Reqstream.msg);
        continue := false
    | Reqstream.Request (req, keep_alive) ->
        let slot = c.c_next_slot in
        c.c_next_slot <- slot + 1;
        c.c_open <- c.c_open + 1;
        Hashtbl.replace c.c_ka slot keep_alive;
        dispatch_request lp c slot req
  done

let[@dcn.event_loop] on_readable lp c =
  match
    (Unix.read c.c_fd lp.read_buf 0 (Bytes.length lp.read_buf)
    [@dcn.lint
      "loop-blocking: connection sockets are set nonblocking at accept; \
       an empty buffer returns EAGAIN (handled below), never blocks"])
  with
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  | exception Unix.Unix_error _ -> close_conn lp c
  | 0 ->
      c.c_peer_closed <- true;
      if c.c_open = 0 && Queue.is_empty c.c_out then close_conn lp c
  | n ->
      c.c_last_ns <- Clock.now_ns ();
      Reqstream.feed c.c_stream lp.read_buf n;
      process_stream lp c

let[@dcn.event_loop] accept_ready lp listen_fd =
  let continue = ref true in
  while !continue do
    match
      (Unix.accept listen_fd
      [@dcn.lint
        "loop-blocking: the listen socket is set nonblocking in [serve]; \
         an empty accept queue returns EAGAIN (handled below)"])
    with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        continue := false
    | fd, _ ->
        if Hashtbl.length lp.conns >= lp.cfg.max_conns then begin
          (* Best-effort 429 on the (fresh, empty-buffer) socket. *)
          (try
             Http.write_response fd (Server.reject lp.srv `Capacity)
             [@dcn.lint
               "loop-blocking: one small write into a fresh socket's empty \
                kernel buffer; cannot stall on a 64KiB-plus backlog"]
           with Unix.Unix_error _ -> ());
          try Unix.close fd with Unix.Unix_error _ -> ()
        end
        else begin
          Unix.set_nonblock fd;
          (try Unix.setsockopt fd Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ());
          let id = lp.next_conn_id in
          lp.next_conn_id <- id + 1;
          let c =
            {
              c_id = id;
              c_fd = fd;
              c_stream =
                Reqstream.create ~max_body:lp.cfg.base.Server.max_body_bytes ();
              c_out = Queue.create ();
              c_out_off = 0;
              c_next_slot = 0;
              c_flush_slot = 0;
              c_ready = Hashtbl.create 4;
              c_ka = Hashtbl.create 4;
              c_open = 0;
              c_close_after_flush = false;
              c_peer_closed = false;
              c_dead = false;
              c_last_ns = Clock.now_ns ();
            }
          in
          Hashtbl.replace lp.conns id c;
          Hashtbl.replace lp.by_fd fd id;
          Metrics.incr m_accepted;
          Metrics.set g_conns (float_of_int (Hashtbl.length lp.conns))
        end
  done

let[@dcn.event_loop] drain_completions lp =
  Mutex.lock lp.comp_lock;
  let items = Queue.create () in
  Queue.transfer lp.completions items;
  Mutex.unlock lp.comp_lock;
  Queue.iter
    (function
      | Answer (conn_id, slot, resp) -> deliver lp conn_id slot resp
      | Batch_done -> lp.inflight_batches <- lp.inflight_batches - 1)
    items

let[@dcn.event_loop] sweep_idle lp =
  if lp.cfg.idle_timeout_s > 0.0 then begin
    let victims = ref [] in
    Hashtbl.iter
      (fun _ c ->
        if
          c.c_open = 0
          && Queue.is_empty c.c_out
          && Clock.elapsed_s c.c_last_ns > lp.cfg.idle_timeout_s
        then victims := c :: !victims)
      lp.conns;
    List.iter
      (fun c ->
        Metrics.incr m_idle_closed;
        close_conn lp c)
      !victims
  end

(* ---- lifecycle ---- *)

let serve ?stop ?on_port cfg =
  let config = cfg.base in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Metrics.set_enabled true;
  if config.Server.trace_file <> None || config.Server.trace_buffer then
    Dcn_obs.Trace.set_enabled true;
  let tag =
    match config.Server.log_tag with
    | Some tag -> Printf.sprintf "[%s pid=%d] " tag (Unix.getpid ())
    | None -> ""
  in
  let stop =
    match stop with
    | Some s -> s
    | None ->
        let s = Atomic.make false in
        let on_signal = Sys.Signal_handle (fun _ -> Atomic.set s true) in
        Sys.set_signal Sys.sigterm on_signal;
        Sys.set_signal Sys.sigint on_signal;
        s
  in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  let addr =
    try Unix.inet_addr_of_string config.Server.host
    with Failure _ -> (
      try (Unix.gethostbyname config.Server.host).Unix.h_addr_list.(0)
      with Not_found ->
        failwith (Printf.sprintf "cannot resolve host %S" config.Server.host))
  in
  Unix.bind listen_fd (Unix.ADDR_INET (addr, config.Server.port));
  Unix.listen listen_fd 512;
  Unix.set_nonblock listen_fd;
  let port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.Server.port
  in
  Option.iter
    (fun path -> Json.atomic_write ~path (string_of_int port ^ "\n"))
    config.Server.port_file;
  Option.iter (fun f -> f port) on_port;
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let lp =
    {
      cfg;
      srv = Server.create config;
      lru =
        Lru.create ~max_bytes:cfg.hot_cache_bytes
          ~entries:cfg.hot_cache_entries ();
      conns = Hashtbl.create 64;
      by_fd = Hashtbl.create 64;
      pending = Queue.create ();
      completions = Queue.create ();
      comp_lock = Mutex.create ();
      wake_r;
      wake_w;
      read_buf = Bytes.create 65536;
      next_conn_id = 0;
      inflight_batches = 0;
      shedding = false;
      draining = false;
    }
  in
  Printf.printf
    "%sdcn_served: listening on %s:%d (engine=epoll, handlers=%d, cache=%d, \
     shed=%d)\n\
     %!"
    tag config.Server.host port
    (max 1 (Pool.workers ()))
    cfg.hot_cache_entries cfg.shed_queue;
  let poller = Poller.create () in
  let drain_deadline = ref Int64.max_int in
  let running = ref true in
  while !running do
    if Atomic.get stop && not lp.draining then begin
      lp.draining <- true;
      Server.set_draining lp.srv true;
      drain_deadline := Int64.add (Clock.now_ns ()) 30_000_000_000L;
      Printf.printf "%sdcn_served: draining %d queued job(s), %d batch(es)\n%!"
        tag (Queue.length lp.pending) lp.inflight_batches
    end;
    Poller.clear poller;
    Poller.add poller lp.wake_r Poller.readable;
    Poller.add poller listen_fd Poller.readable;
    Hashtbl.iter
      (fun _ c ->
        let ev = ref 0 in
        if
          (not c.c_peer_closed)
          && c.c_open < max_pipeline
          && not c.c_close_after_flush
        then ev := !ev lor Poller.readable;
        if not (Queue.is_empty c.c_out) then ev := !ev lor Poller.writable;
        if !ev <> 0 then Poller.add poller c.c_fd !ev)
      lp.conns;
    ignore
      (Poller.wait poller ~timeout_ms:200 (fun fd revents ->
           if fd = lp.wake_r then begin
             (* Drain the self-pipe; completions are picked up below. *)
             let junk = Bytes.create 256 in
             let rec drain () =
               match Unix.read lp.wake_r junk 0 256 with
               | exception
                   Unix.Unix_error
                     ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                   ()
               | 0 -> ()
               | _ -> drain ()
             in
             drain ()
           end
           else if fd = listen_fd then accept_ready lp listen_fd
           else
             match Hashtbl.find_opt lp.by_fd fd with
             | None -> ()
             | Some id -> (
                 match Hashtbl.find_opt lp.conns id with
                 | None -> ()
                 | Some c ->
                     if Poller.wants revents Poller.error then begin
                       (* Half-written responses are lost either way;
                          reads may still hold a final pipelined
                          request, so try reading first. *)
                       on_readable lp c;
                       if not c.c_dead then try_write lp c
                     end
                     else begin
                       if Poller.wants revents Poller.readable then
                         on_readable lp c;
                       if
                         (not c.c_dead)
                         && Poller.wants revents Poller.writable
                       then try_write lp c
                     end)));
    drain_completions lp;
    dispatch lp;
    sweep_idle lp;
    if lp.draining then begin
      let quiesced =
        Queue.is_empty lp.pending
        && lp.inflight_batches = 0
        && Hashtbl.fold
             (fun _ c acc -> acc && Queue.is_empty c.c_out && c.c_open = 0)
             lp.conns true
      in
      if quiesced || Clock.now_ns () > !drain_deadline then running := false
    end
  done;
  (* Teardown: no new bytes, retire the pool (any submitted batch has
     already completed — quiesced above — or the deadline passed), flush
     sinks. *)
  let open_conns = Hashtbl.fold (fun _ c acc -> c :: acc) lp.conns [] in
  List.iter (fun c -> close_conn lp c) open_conns;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Unix.close lp.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close lp.wake_w with Unix.Unix_error _ -> ());
  Printf.printf "%sdcn_served: draining pool\n%!" tag;
  Pool.shutdown ();
  Server.flush_sinks config;
  Server.close_logs lp.srv;
  Printf.printf "%sdcn_served: drained, exiting\n%!" tag
