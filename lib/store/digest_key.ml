module Graph = Dcn_graph.Graph
module Commodity = Dcn_flow.Commodity
module Float_text = Dcn_util.Float_text

type t = string

let hex_length = 32 (* MD5 *)

(* Bump on any change to Mcmf_fptas (or the metrics derived from its
   output) that can alter the bits of a cached result; entries written
   under an older version simply miss. "fptas-5" starts a cold solve at
   twice the requested length step and halves it after a short stall
   ({!Dcn_flow.Gk_loop.run}) on top of "fptas-4" (certifies [λ_lo] from
   the best of the whole flow history and two recent windows of phases;
   the returned flow is the winning window's), "fptas-3"
   (each phase routes on the shortest paths stored by the previous
   phase's dual sweep) and "fptas-2" (scratch-reusing Dijkstra,
   target-limited early exit). *)
let solver_version = "fptas-5"

let of_text text = Digest.to_hex (Digest.string text)

let graph_text g =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "nodes %d\n" (Graph.n g));
  List.iter
    (fun (u, v, cap) ->
      Buffer.add_string buf
        (Printf.sprintf "link %d %d %s\n" u v (Float_text.to_string cap)))
    (Graph.to_edge_list g);
  Buffer.contents buf

(* Canonical "demand src dst d" lines in array order (commodity arrays
   are already deterministic: Traffic.to_commodities is a pure function of
   the matrix). *)
let commodities_text cs =
  let buf = Buffer.create 1024 in
  Array.iter
    (fun (c : Commodity.t) ->
      Buffer.add_string buf
        (Printf.sprintf "demand %d %d %s\n" c.Commodity.src c.Commodity.dst
           (Float_text.to_string c.Commodity.demand)))
    cs;
  Buffer.contents buf

(* Every FPTAS parameter participates. The constant [dual_check_every 1]
   line, left from when the dual-check cadence was a parameter, keeps
   existing store keys valid. *)
let params_text ~params =
  Printf.sprintf "eps %s\ngap %s\nmax_phases %d\ndual_check_every 1\n"
    (Float_text.to_string params.Dcn_flow.Mcmf_fptas.eps)
    (Float_text.to_string params.Dcn_flow.Mcmf_fptas.gap)
    params.Dcn_flow.Mcmf_fptas.max_phases

let of_solve ~kind ~params ?(dual_check_every = 1) ?(extras = []) g cs =
  if dual_check_every <> 1 then
    invalid_arg "Digest_key.of_solve: dual_check_every must be 1";
  let buf = Buffer.create 8192 in
  Buffer.add_string buf (Printf.sprintf "kind %s\n" kind);
  Buffer.add_string buf (Printf.sprintf "solver %s\n" solver_version);
  Buffer.add_string buf (params_text ~params);
  List.iter (fun line -> Buffer.add_string buf (line ^ "\n")) extras;
  Buffer.add_string buf (graph_text g);
  Buffer.add_string buf (commodities_text cs);
  of_text (Buffer.contents buf)

let of_run ~kind ~fingerprint =
  of_text
    (Printf.sprintf "kind %s\nsolver %s\n%s" kind solver_version fingerprint)
