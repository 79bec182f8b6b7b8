type t = {
  fd : Unix.file_descr;
  path : string;
  t0 : int64;
  lock : Mutex.t;
  buf : Buffer.t;
}

let create ?t0_ns path =
  let parent = Filename.dirname path in
  if parent <> "" then Json.mkdir_p parent;
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let t0 = match t0_ns with Some t -> t | None -> Clock.now_ns () in
  { fd; path; t0; lock = Mutex.create (); buf = Buffer.create 256 }

let path t = t.path
let elapsed_ms t = Int64.to_float (Int64.sub (Clock.now_ns ()) t.t0) /. 1e6

let log t ~ev fields =
  Mutex.lock t.lock;
  Buffer.clear t.buf;
  Buffer.add_string t.buf
    (Printf.sprintf "{\"ts_ms\":%.3f,\"ev\":%s" (elapsed_ms t) (Json.quote ev));
  if fields <> [] then begin
    Buffer.add_char t.buf ',';
    Json.add_members t.buf fields
  end;
  Buffer.add_string t.buf "}\n";
  let line = Buffer.contents t.buf in
  (* One write call under O_APPEND: appends of a short line are
     effectively atomic even with several processes sharing the file, and
     a crash mid-write leaves a torn final line that [read_lines] drops.
     Telemetry must never take the run down, so write errors (disk full,
     revoked fd) are swallowed. *)
  (try
     ignore
       (Unix.write_substring t.fd line 0 (String.length line)
       [@dcn.lint
         "loop-blocking: a one-line O_APPEND write to a local log file is \
          bounded by the disk, not by a peer; the event loop tolerates it \
          the same way it tolerates its own accept-path writes"])
   with Unix.Unix_error _ -> ());
  Mutex.unlock t.lock

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let read_lines path =
  match In_channel.open_bin path with
  | exception Sys_error _ -> []
  | ic ->
      let contents =
        Fun.protect
          ~finally:(fun () -> In_channel.close ic)
          (fun () -> In_channel.input_all ic)
      in
      (* A final fragment with no terminating newline is a torn append
         (crash mid-write): drop it rather than hand back half a record. *)
      let complete =
        match String.rindex_opt contents '\n' with
        | None -> ""
        | Some i -> String.sub contents 0 (i + 1)
      in
      String.split_on_char '\n' complete
      |> List.filter (fun l -> String.trim l <> "")
