type entry = { target : string; seconds : float }

let manifest_file dir = Filename.concat dir "manifest"

let dir ~store ~fingerprint =
  let d =
    Filename.concat (Store.root store)
      (Filename.concat "runs"
         (Digest_key.of_run ~kind:"run-manifest" ~fingerprint))
  in
  Dcn_obs.Json.mkdir_p d;
  d

let parse_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "done"; seconds; target ] when target <> "" ->
      Option.map
        (fun seconds -> { target; seconds })
        (float_of_string_opt seconds)
  | _ -> None

type unit_entry = {
  u_target : string;
  u_digest : string;
  u_worker : string;
  u_seconds : float;
}

let is_hex_digest s =
  String.length s = Digest_key.hex_length
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
       s

let parse_unit_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "unit"; seconds; digest; worker; target ]
    when target <> "" && worker <> "" && is_hex_digest digest ->
      Option.map
        (fun u_seconds -> { u_target = target; u_digest = digest; u_worker = worker; u_seconds })
        (float_of_string_opt seconds)
  | _ -> None

(* One manifest file carries both record kinds; a loader for one kind
   treats the other as expected, not malformed, so figure runs and
   orchestrated runs can share the later-lines-win discipline. *)
let line_recognized line =
  String.trim line = ""
  || Option.is_some (parse_line line)
  || Option.is_some (parse_unit_line line)

let dedup_later_wins ~key entries =
  let seen = Hashtbl.create 16 in
  List.rev entries
  |> List.filter (fun e ->
         if Hashtbl.mem seen (key e) then false
         else begin
           Hashtbl.add seen (key e) ();
           true
         end)
  |> List.rev

let load_lines ~dir =
  match In_channel.open_text (manifest_file dir) with
  | exception Sys_error _ -> []
  | ic ->
      Fun.protect
        ~finally:(fun () -> In_channel.close ic)
        (fun () -> In_channel.input_lines ic)

let load ~dir =
  (* Later lines win: a resumed run may legitimately re-record a target
     (e.g. after a cache wipe changed nothing visible). *)
  load_lines ~dir |> List.filter_map parse_line
  |> dedup_later_wins ~key:(fun e -> e.target)

let default_warn line =
  Printf.eprintf "manifest: skipping malformed line %S\n%!" line

let load_units ?(warn = default_warn) ~dir () =
  load_lines ~dir
  |> List.filter_map (fun line ->
         match parse_unit_line line with
         | Some u -> Some u
         | None ->
             (* A torn tail (crash mid-append) or bit rot must degrade to
                a recompute with a visible warning, never a crash or a
                silently trusted entry. *)
             if not (line_recognized line) then warn line;
             None)
  |> dedup_later_wins ~key:(fun u -> u.u_target)

let append_line ~dir line =
  try
    let fd =
      Unix.openfile (manifest_file dir)
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
        0o644
    in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        (* One write call: appends of a short line are effectively atomic,
           and a crash mid-write leaves a torn line that the loaders skip
           (with a warning, for the orchestrated kind). *)
        ignore (Unix.write_substring fd line 0 (String.length line)))
  with Unix.Unix_error _ | Sys_error _ -> ()

let mark_done ~dir entry =
  append_line ~dir
    (Printf.sprintf "done %s %s\n"
       (Dcn_util.Float_text.to_string entry.seconds)
       entry.target)

let mark_unit ~dir u =
  append_line ~dir
    (Printf.sprintf "unit %s %s %s %s\n"
       (Dcn_util.Float_text.to_string u.u_seconds)
       u.u_digest u.u_worker u.u_target)

let write_artifact ~dir ~name payload =
  try Dcn_obs.Json.atomic_write ~path:(Filename.concat dir name) payload
  with Sys_error _ -> ()

let read_artifact ~dir ~name =
  match In_channel.open_bin (Filename.concat dir name) with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> In_channel.close ic)
        (fun () -> Some (In_channel.input_all ic))
