(* Typed /solve requests.

   A request names a topology (by generator spec or inline Topology_io
   text), a traffic model, solver parameters and a routing mode. Its
   identity for coalescing and caching is the digest of a canonical text
   built from the *resolved* inputs — the byte-stable serializations of
   the topology and traffic matrix — so two requests coalesce exactly
   when they would compute the same thing, regardless of how the topology
   was named (a spec and its own serialized output digest identically). *)

module Cli = Core.Cli

type topology = Spec of Cli.topo_spec | Inline of string

type routing =
  | Optimal
  | Ksp of int  (* k shortest paths *)
  | Ecmp of int  (* path limit *)
  | Vlb of int  (* intermediates *)

type t = {
  topology : topology;
  seed : int;
  traffic : Cli.traffic_kind;
  eps : float;
  gap : float;
  routing : routing;
  timeout_s : float option;
}

let routing_to_string = function
  | Optimal -> "optimal"
  | Ksp k -> Printf.sprintf "ksp:%d" k
  | Ecmp limit -> Printf.sprintf "ecmp:%d" limit
  | Vlb n -> Printf.sprintf "vlb:%d" n

let parse_routing s =
  let counted prefix make =
    let plen = String.length prefix in
    if String.length s > plen && String.sub s 0 plen = prefix then
      match int_of_string_opt (String.sub s plen (String.length s - plen)) with
      | Some n when n >= 1 -> Some (Ok (make n))
      | _ -> Some (Error (Printf.sprintf "%sN expects a positive integer" prefix))
    else None
  in
  match s with
  | "optimal" -> Ok Optimal
  | "ecmp" -> Ok (Ecmp 64)
  | _ -> (
      match
        List.find_map
          (fun (p, make) -> counted p make)
          [ ("ksp:", fun n -> Ksp n); ("ecmp:", fun n -> Ecmp n);
            ("vlb:", fun n -> Vlb n) ]
      with
      | Some r -> r
      | None ->
          Error
            (Printf.sprintf
               "cannot parse routing %S; expected optimal | ksp:K | ecmp[:LIMIT] | vlb:N"
               s))

(* ---- JSON decoding ---- *)

let ( let* ) = Result.bind
module J = Dcn_obs.Json

let field_error name what = Error (Printf.sprintf "field %S %s" name what)

let opt_field json name decode ~default =
  match J.member name json with
  | None | Some J.Null -> Ok default
  | Some ((J.Bool _ | J.Int _ | J.Num _ | J.Str _ | J.Arr _ | J.Obj _) as v) ->
      decode v

let decode_unit_open name v =
  match J.to_float_opt v with
  | Some x when x > 0.0 && x < 1.0 -> Ok x
  | Some _ -> field_error name "must be strictly between 0 and 1"
  | None -> field_error name "must be a number"

let of_json json =
  let* topology =
    match J.member "topology" json with
    | None -> Error "missing required field \"topology\""
    | Some (J.Str spec) -> (
        match Cli.parse_topo_spec spec with
        | Ok s -> Ok (Spec s)
        | Error msg -> Error msg)
    | Some (J.Obj _ as o) -> (
        match Option.bind (J.member "inline" o) J.to_string_opt with
        | Some text -> Ok (Inline text)
        | None -> field_error "topology" "object form needs a string \"inline\"")
    | Some (J.Null | J.Bool _ | J.Int _ | J.Num _ | J.Arr _) ->
        field_error "topology" "must be a spec string or {\"inline\": TEXT}"
  in
  let* seed =
    opt_field json "seed" ~default:1 (fun v ->
        match J.to_int_opt v with
        | Some s -> Ok s
        | None -> field_error "seed" "must be an integer")
  in
  let* traffic =
    opt_field json "traffic" ~default:Cli.Perm (fun v ->
        match J.to_string_opt v with
        | Some s -> Cli.parse_traffic s
        | None -> field_error "traffic" "must be a string")
  in
  let* eps = opt_field json "eps" ~default:0.05 (decode_unit_open "eps") in
  let* gap = opt_field json "gap" ~default:0.05 (decode_unit_open "gap") in
  let* routing =
    opt_field json "routing" ~default:Optimal (fun v ->
        match J.to_string_opt v with
        | Some s -> parse_routing s
        | None -> field_error "routing" "must be a string")
  in
  let* timeout_s =
    opt_field json "timeout_s" ~default:None (fun v ->
        match J.to_float_opt v with
        | Some x when x > 0.0 -> Ok (Some x)
        | Some _ -> field_error "timeout_s" "must be positive"
        | None -> field_error "timeout_s" "must be a number")
  in
  Ok { topology; seed; traffic; eps; gap; routing; timeout_s }

let of_body body =
  match J.parse body with
  | Error msg -> Error (Printf.sprintf "invalid JSON: %s" msg)
  | Ok json -> of_json json

(* ---- JSON encoding ----

   The wire form of a request, shared by [topobench client] and the
   orchestrator so every front end speaks the same bytes. Round-trips
   through [of_body] (tested), and renders every field explicitly — a
   body is self-describing even where it matches the defaults. *)

let to_body t =
  let module J = Dcn_obs.Json in
  let topology =
    match t.topology with
    | Spec spec -> J.Str (Cli.topo_spec_to_string spec)
    | Inline text -> J.Obj [ ("inline", J.Str text) ]
  in
  J.to_string
    (J.Obj
       ([
          ("topology", topology);
          ("seed", J.Int t.seed);
          ("traffic", J.Str (Cli.traffic_to_string t.traffic));
          ("eps", J.Num t.eps);
          ("gap", J.Num t.gap);
          ("routing", J.Str (routing_to_string t.routing));
        ]
       @ Option.fold ~none:[] ~some:(fun s -> [ ("timeout_s", J.Num s) ]) t.timeout_s))

(* ---- resolution ---- *)

type resolved = {
  topo : Core.Topology.t;
  matrix : Core.Traffic.t;
  commodities : Core.Commodity.t array;
}

let build_topology t =
  match t.topology with
  | Spec spec -> Cli.build_topology spec ~seed:t.seed
  | Inline text -> Core.Topology_io.of_string text

(* Resolve against an already-built topology: the engine's batched
   dispatch builds the topology (and its CSR) once per batch and resolves
   every grouped request against it. The caller owns the claim that
   [topo] is what [build_topology t] would produce — {!topology_key} is
   the grouping key that makes the claim safe. *)
let resolve_with ~topo t =
  let st = Random.State.make [| t.seed; 1 |] in
  let matrix = Cli.make_traffic t.traffic st ~servers:topo.Core.Topology.servers in
  { topo; matrix; commodities = Core.Traffic.to_commodities matrix }

let resolve t =
  (* Same derivation as the CLI front ends: traffic from stream [seed; 1],
     so "topology": "rrg:40,15,10" here measures exactly what
     `topobench throughput rrg:40,15,10` measures. *)
  resolve_with ~topo:(build_topology t) t

(* Groups requests whose [build_topology] provably returns identical
   topologies: same naming (spec spelling or inline text) and same seed.
   A heuristic for batching only — a spec and its own serialized output
   get different keys and merely miss the amortization, never identity
   (digests are computed from resolved bytes as always). *)
let topology_key t =
  match t.topology with
  | Spec spec ->
      Printf.sprintf "spec:%s#%d" (Cli.topo_spec_to_string spec) t.seed
  | Inline text ->
      Printf.sprintf "inline:%s#%d" (Core.Digest_key.of_text text) t.seed

(* Hot-cache key: the canonical wire body with the timeout stripped —
   available before resolution (so a cache hit costs no topology build),
   and timeout-blind like the digest (the timeout bounds the computation,
   it does not parameterize the result). *)
let cache_key t = to_body { t with timeout_s = None }

let params t = Cli.params_of t.eps t.gap

(* The canonical text covers everything the response bits depend on:
   resolved topology and demands (byte-stable serializations), solver
   parameters, routing mode, the seed (VLB draws its intermediates from
   it) and the solver version tag. The timeout is deliberately excluded —
   it bounds the computation, it does not parameterize the result. *)
let canonical_text ?(solver_version = Core.Digest_key.solver_version) t resolved =
  let f = Core.Float_text.to_string in
  String.concat "\n"
    [
      "serve-solve-request/1";
      "version " ^ solver_version;
      "eps " ^ f t.eps;
      "gap " ^ f t.gap;
      "routing " ^ routing_to_string t.routing;
      "seed " ^ string_of_int t.seed;
      "topology";
      Core.Topology_io.to_string resolved.topo;
      "traffic";
      Core.Traffic_io.to_string resolved.matrix;
    ]

let digest ?solver_version t resolved =
  Core.Digest_key.of_text (canonical_text ?solver_version t resolved)
