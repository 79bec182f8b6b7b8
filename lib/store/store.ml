type counters = {
  hits : int;
  misses : int;
  bytes_read : int;
  bytes_written : int;
}

type t = {
  root : string;
  hits : int Atomic.t;
  misses : int Atomic.t;
  bytes_read : int Atomic.t;
  bytes_written : int Atomic.t;
  tmp_seq : int Atomic.t;  (* uniquifies staging names within the process *)
}

let magic = "dcn-store 1"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    (* A concurrent creator is fine; only fail if the path still isn't a
       directory afterwards. *)
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    if not (try Sys.is_directory dir with Sys_error _ -> false) then
      failwith (Printf.sprintf "store: cannot create directory %s" dir)
  end
  else if not (Sys.is_directory dir) then
    failwith (Printf.sprintf "store: %s exists and is not a directory" dir)

let objects_dir t = Filename.concat t.root "objects"
let tmp_dir t = Filename.concat t.root "tmp"

let open_store root =
  let t =
    {
      root;
      hits = Atomic.make 0;
      misses = Atomic.make 0;
      bytes_read = Atomic.make 0;
      bytes_written = Atomic.make 0;
      tmp_seq = Atomic.make 0;
    }
  in
  mkdir_p (objects_dir t);
  mkdir_p (tmp_dir t);
  t

let root t = t.root

(* objects/<2-hex shard>/<remaining hex>; the shard keeps directory sizes
   bounded at ~1/256 of the entry count. *)
let object_path t key =
  let key =
    if String.length key = Digest_key.hex_length
       && String.for_all
            (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
            key
    then key
    else Digest_key.of_text key
  in
  Filename.concat (objects_dir t)
    (Filename.concat (String.sub key 0 2)
       (String.sub key 2 (String.length key - 2)))

let mem t key = Sys.file_exists (object_path t key)

(* Entry = "<magic> <payload-length>\n<payload>". The explicit length turns
   truncation into a detectable mismatch rather than a silently short
   payload. *)
let read_entry path =
  match In_channel.open_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> In_channel.close ic)
        (fun () ->
          match In_channel.input_line ic with
          | None -> None
          | Some header -> (
              match String.rindex_opt header ' ' with
              | Some i
                when String.sub header 0 i = magic -> (
                  match
                    int_of_string_opt
                      (String.sub header (i + 1)
                         (String.length header - i - 1))
                  with
                  | Some len when len >= 0 -> (
                      match In_channel.really_input_string ic len with
                      | Some payload
                        when In_channel.input_char ic = None ->
                          Some payload
                      | _ -> None)
                  | _ -> None)
              | _ -> None))

(* A hit is an entry the caller's decoder accepts: a payload with a sound
   header that does not decode is a miss, like a torn one. *)
let find t key ~decode =
  let path = object_path t key in
  let decoded =
    Option.bind (read_entry path) (fun payload ->
        Option.map (fun v -> (v, String.length payload)) (decode payload))
  in
  match decoded with
  | Some (value, bytes) ->
      Atomic.incr t.hits;
      ignore (Atomic.fetch_and_add t.bytes_read bytes);
      Some value
  | None ->
      Atomic.incr t.misses;
      (* Heal corrupt entries: deleting lets the recompute's [add] publish
         a fresh copy. Absence is indistinguishable and equally fine. *)
      if Sys.file_exists path then (try Sys.remove path with Sys_error _ -> ());
      None

let add t key payload =
  let final = object_path t key in
  let staged =
    Filename.concat (tmp_dir t)
      (Printf.sprintf "%s.%d.%d" key (Unix.getpid ())
         (Atomic.fetch_and_add t.tmp_seq 1))
  in
  try
    mkdir_p (Filename.dirname final);
    let oc = Out_channel.open_bin staged in
    Fun.protect
      ~finally:(fun () -> Out_channel.close oc)
      (fun () ->
        Out_channel.output_string oc
          (Printf.sprintf "%s %d\n" magic (String.length payload));
        Out_channel.output_string oc payload);
    (* Atomic publish; a concurrent writer of the same key wrote the same
       bytes, so either rename order yields a valid entry. *)
    Sys.rename staged final;
    ignore (Atomic.fetch_and_add t.bytes_written (String.length payload))
  with Sys_error _ | Failure _ ->
    (try Sys.remove staged with Sys_error _ -> ())

let counters t =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    bytes_read = Atomic.get t.bytes_read;
    bytes_written = Atomic.get t.bytes_written;
  }

let shared_store : t option Atomic.t = Atomic.make None
let set_shared s = Atomic.set shared_store s
let shared () = Atomic.get shared_store
