(* Local worker fleets: spawn dcn_served processes on ephemeral ports.

   Each worker gets --port 0 --port-file <scratch>/workerN.port; the
   daemon publishes its bound port atomically (fsync + rename), so
   polling the file until it parses is race-free. stdout/stderr go to a
   per-worker log file, surfaced in the error message when a worker
   dies before becoming ready. *)

type proc = {
  pid : int;
  index : int;
  port_file : string;
  log_file : string;
  mutable reaped : bool;
}

(* The daemon binary: $DCN_SERVED_EXE, else next to the calling
   executable (the dune layout for bin/topobench + bin/dcn_served), else
   ../bin relative to it (bench/main.exe in _build/default/bench). *)
let find_exe () =
  match Sys.getenv_opt "DCN_SERVED_EXE" with
  | Some p -> if Sys.file_exists p then Some p else None
  | None ->
      let self_dir = Filename.dirname Sys.executable_name in
      List.find_opt Sys.file_exists
        [
          Filename.concat self_dir "dcn_served.exe";
          Filename.concat self_dir "dcn_served";
          Filename.concat
            (Filename.concat (Filename.dirname self_dir) "bin")
            "dcn_served.exe";
        ]

let start ?(trace_buffer = false) ?(extra_args = []) ~exe ~scratch_dir ~index
    ~jobs ~cache_dir () =
  Dcn_obs.Json.mkdir_p scratch_dir;
  let port_file =
    Filename.concat scratch_dir (Printf.sprintf "worker%d.port" index)
  in
  (try Sys.remove port_file with Sys_error _ -> ());
  let log_file =
    Filename.concat scratch_dir (Printf.sprintf "worker%d.log" index)
  in
  let args =
    [ exe; "--host"; "127.0.0.1"; "--port"; "0"; "--port-file"; port_file;
      "--jobs"; string_of_int jobs;
      (* Interleaved fleet logs must stay attributable to a worker. *)
      "--log-tag"; Printf.sprintf "worker%d" index ]
    @ (match cache_dir with
      | Some d -> [ "--cache-dir"; d ]
      | None -> [ "--no-cache" ])
    @ (if trace_buffer then [ "--trace-buffer" ] else [])
    @ extra_args
  in
  let log_fd =
    Unix.openfile log_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log_fd)
      (fun () ->
        Unix.create_process exe (Array.of_list args) Unix.stdin log_fd log_fd)
  in
  { pid; index; port_file; log_file; reaped = false }

let running p =
  if p.reaped then false
  else
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | 0, _ -> true
    | _, _ ->
        p.reaped <- true;
        false
    | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
        p.reaped <- true;
        false

let log_tail p ~lines =
  match In_channel.open_text p.log_file with
  | exception Sys_error _ -> ""
  | ic ->
      Fun.protect
        ~finally:(fun () -> In_channel.close ic)
        (fun () ->
          let all = In_channel.input_lines ic in
          let n = List.length all in
          let tail =
            if n <= lines then all else List.filteri (fun i _ -> i >= n - lines) all
          in
          String.concat "\n" tail)

let endpoint ?(wait_s = 30.0) p =
  let tick = 0.05 in
  let rec go elapsed =
    let port =
      match In_channel.open_text p.port_file with
      | exception Sys_error _ -> None
      | ic ->
          Fun.protect
            ~finally:(fun () -> In_channel.close ic)
            (fun () ->
              Option.bind (In_channel.input_line ic) int_of_string_opt)
    in
    match port with
    | Some port -> Ok { Worker.host = "127.0.0.1"; port }
    | None ->
        if not (running p) then
          Error
            (Printf.sprintf
               "worker %d (pid %d) exited before publishing its port; log:\n%s"
               p.index p.pid (log_tail p ~lines:10))
        else if elapsed >= wait_s then
          Error
            (Printf.sprintf "worker %d (pid %d) did not publish %s within %gs"
               p.index p.pid p.port_file wait_s)
        else begin
          Thread.delay tick;
          go (elapsed +. tick)
        end
  in
  go 0.0

let endpoints procs =
  let rec await acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match endpoint p with
        | Ok e -> await (e :: acc) rest
        | Error msg -> Error msg)
  in
  await [] procs

let kill p =
  if not p.reaped then
    try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ()

let stop ?(grace_s = 10.0) procs =
  List.iter
    (fun p ->
      if not p.reaped then
        try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ())
    procs;
  List.iter
    (fun p ->
      let rec wait elapsed =
        if running p then
          if elapsed >= grace_s then begin
            (* Grace expired: a drain should never take this long. *)
            (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
            (try ignore (Unix.waitpid [] p.pid)
             with Unix.Unix_error (Unix.ECHILD, _, _) -> ());
            p.reaped <- true
          end
          else begin
            Thread.delay 0.05;
            wait (elapsed +. 0.05)
          end
      in
      wait 0.0)
    procs
