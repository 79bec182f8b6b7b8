module Traffic = Dcn_traffic.Traffic

(* Canonical form: demands sorted by (src, dst, demand) and rendered with
   the exact shortest decimal form, mirroring Topology_io — equal matrices
   serialize identically, which the result store's digests require. *)
let to_string (tm : Traffic.t) =
  let buf = Buffer.create 512 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "name %s\n" tm.Traffic.name;
  addf "flows_per_server %d\n" tm.Traffic.flows_per_server;
  List.iter
    (fun (u, v, d) ->
      addf "demand %d %d %s\n" u v (Dcn_util.Float_text.to_string d))
    (List.sort Traffic.compare_demand tm.Traffic.demands);
  Buffer.contents buf

let of_string text =
  let name = ref "unnamed" in
  let flows_per_server = ref 1 in
  let demands = ref [] in
  let fail lineno msg = failwith (Printf.sprintf "line %d: %s" lineno msg) in
  let parse_line lineno line =
    let line =
      match String.index_opt line '#' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    let tokens =
      String.split_on_char ' ' (String.trim line)
      |> List.filter (fun t -> t <> "")
    in
    let int_of s =
      try int_of_string s with Failure _ -> fail lineno ("bad integer " ^ s)
    in
    let float_of s =
      try float_of_string s with Failure _ -> fail lineno ("bad number " ^ s)
    in
    match tokens with
    | [] -> ()
    | "name" :: rest -> name := String.concat " " rest
    | [ "flows_per_server"; f ] ->
        let f = int_of f in
        if f < 1 then fail lineno "flows_per_server must be >= 1";
        flows_per_server := f
    | [ "demand"; u; v; d ] ->
        let u = int_of u and v = int_of v in
        if u < 0 || v < 0 then fail lineno "negative switch id";
        if u = v then fail lineno "intra-switch demand";
        let d = float_of d in
        if d <= 0.0 then fail lineno "demand must be positive";
        if not (Float.is_finite d) then fail lineno "demand must be finite";
        demands := (u, v, d) :: !demands
    | keyword :: _ -> fail lineno ("unknown directive " ^ keyword)
  in
  String.split_on_char '\n' text
  |> List.iteri (fun i line -> parse_line (i + 1) line);
  {
    Traffic.name = !name;
    demands = List.sort Traffic.compare_demand !demands;
    flows_per_server = !flows_per_server;
  }

let save path tm =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string tm))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (In_channel.input_all ic))
