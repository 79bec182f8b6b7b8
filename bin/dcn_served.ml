(* dcn_served — the topology-throughput solve daemon.

   Thin cmdliner shell around the event-loop engine: translate flags into
   a Dcn_engine.Engine.config (whose [base] is the Server.config the
   request handler reads), size the shared domain pool, install the
   result store, and hand the thread to Engine.serve until SIGTERM/SIGINT
   drains it. The option vocabulary (--jobs, --cache-dir, --eps defaults,
   spec syntax) is Core.Cli, the same as topobench and bench/main. *)

open Cmdliner

let host_arg =
  let doc = "Address to bind." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~doc ~docv:"ADDR")

let port_arg =
  let doc = "TCP port; 0 picks an ephemeral port (see $(b,--port-file))." in
  Arg.(value & opt int 8080 & info [ "port" ] ~doc ~docv:"PORT")

let port_file_arg =
  let doc =
    "Write the bound port to $(docv) (atomically) once listening — the \
     race-free way to use $(b,--port) $(i,0) from scripts."
  in
  Arg.(value & opt (some string) None & info [ "port-file" ] ~doc ~docv:"FILE")

let timeout_arg =
  let doc =
    "Default per-request deadline in seconds, measured from accept \
     (requests may override with \"timeout_s\"); 0 disables."
  in
  Arg.(value & opt float 300.0 & info [ "timeout" ] ~doc ~docv:"SECONDS")

let access_log_arg =
  let doc =
    "Append one JSON line per request to $(docv): method, path, status, \
     wall milliseconds, and for solves the digest plus whether this \
     process led the solve or coalesced onto a leader."
  in
  Arg.(value & opt (some string) None & info [ "access-log" ] ~doc ~docv:"FILE")

let trace_buffer_arg =
  let doc =
    "Buffer trace spans in memory for collection over $(b,GET /trace) \
     (a coordinator merges fleet buffers into one timeline). Implied by \
     $(b,--trace); with $(i,--trace-buffer) alone nothing is written \
     locally on exit."
  in
  Arg.(value & flag & info [ "trace-buffer" ] ~doc)

let log_tag_arg =
  let doc =
    "Prefix every daemon log line with [$(docv) pid=N] — how spawned \
     fleet workers keep interleaved logs attributable."
  in
  Arg.(value & opt (some string) None & info [ "log-tag" ] ~doc ~docv:"TAG")

let engine_arg =
  let doc =
    "Serving engine. $(b,epoll), the only one, is an event loop: \
     non-blocking keep-alive HTTP/1.1 with pipelining, topology-batched \
     solves, hot LRU cache, load-shedding tiers. Accepted so scripts \
     that name it keep working."
  in
  Arg.(value & opt (enum [ ("epoll", ()) ]) ()
       & info [ "engine" ] ~doc ~docv:"ENGINE")

let shed_queue_arg =
  let doc =
    "Backlog high watermark: while more than $(docv) solve jobs queue \
     behind a dispatched batch, solves are answered with certified upper \
     bounds (\"tier\": \"bound\") instead of full FPTAS runs; full service \
     resumes at half the watermark. 0 disables shedding (the default — \
     every answer is full tier)."
  in
  Arg.(value & opt int 0 & info [ "shed-queue" ] ~doc ~docv:"N")

let run host port port_file timeout jobs cache_dir no_cache metrics trace
    access_log trace_buffer log_tag () shed_queue =
  (* jobs solver domains; the main thread runs the event loop. *)
  Core.Pool.set_workers jobs;
  (match Core.Cli.setup_store cache_dir no_cache with
  | Ok _ -> ()
  | Error msg ->
      prerr_endline ("dcn_served: " ^ msg);
      exit 2);
  let base =
    {
      Dcn_serve.Server.default_config with
      host;
      port;
      default_timeout_s = (if timeout <= 0.0 then None else Some timeout);
      port_file;
      metrics_file = metrics;
      trace_file = trace;
      trace_buffer;
      access_log;
      log_tag;
    }
  in
  Dcn_engine.Engine.serve
    { Dcn_engine.Engine.base; shed_queue = max 0 shed_queue }

let cmd =
  let doc = "serve certified topology-throughput solves over HTTP" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Exposes the repository's max-concurrent-flow solver as a small \
         HTTP service: $(b,POST /solve) takes a JSON request (topology \
         spec or inline topology text, traffic model, eps/gap, routing \
         mode) and returns the certified throughput interval; \
         $(b,GET /healthz) and $(b,GET /metrics) serve liveness and the \
         metrics registry. Identical concurrent requests coalesce onto \
         one solver run; optimal-routing results land in the result store \
         when $(b,--cache-dir) is given. SIGTERM drains in-flight \
         requests and exits 0. See docs/serving.md.";
    ]
  in
  Cmd.v
    (Cmd.info "dcn_served" ~version:"1.0.0" ~doc ~man)
    Term.(
      const run $ host_arg $ port_arg $ port_file_arg $ timeout_arg
      $ Core.Cli.jobs_arg $ Core.Cli.cache_dir_arg $ Core.Cli.no_cache_arg
      $ Core.Cli.metrics_arg $ Core.Cli.trace_arg $ access_log_arg
      $ trace_buffer_arg $ log_tag_arg $ engine_arg $ shed_queue_arg)

let () = exit (Cmd.eval cmd)
