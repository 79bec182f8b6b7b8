(** Typed [/solve] requests and their content identity.

    A request names a topology (generator spec or inline
    {!Dcn_io.Topology_io} text), a traffic model, FPTAS parameters and a
    routing mode. Identity for coalescing and caching is {!digest}: the
    hash of a canonical text built from the {e resolved} inputs, so a
    generator spec and its own serialized output digest identically, and
    requests differing in any result-relevant field (eps, gap, routing,
    seed, solver version) digest differently. *)

type topology = Spec of Core.Cli.topo_spec | Inline of string

type routing =
  | Optimal  (** Unrestricted max concurrent flow (cached in the store). *)
  | Ksp of int  (** k shortest paths per commodity. *)
  | Ecmp of int  (** Equal shortest paths, up to the limit. *)
  | Vlb of int  (** Valiant load balancing over N intermediates. *)

type t = {
  topology : topology;
  seed : int;  (** Drives generator, traffic and VLB randomness. *)
  traffic : Core.Cli.traffic_kind;
  eps : float;
  gap : float;
  routing : routing;
  timeout_s : float option;  (** Per-request deadline override. *)
}

val routing_to_string : routing -> string
(** Canonical form; {!parse_routing} round-trips it. *)

val parse_routing : string -> (routing, string) result
(** [optimal | ksp:K | ecmp[:LIMIT] | vlb:N] (bare [ecmp] means limit 64). *)

val of_body : string -> (t, string) result
(** Parse and decode a request body. Only ["topology"] is required;
    defaults: seed 1, permutation traffic, eps 0.05, gap 0.05, optimal
    routing, no per-request timeout. *)

val to_body : t -> string
(** Canonical JSON wire form; [of_body (to_body t) = Ok t]. Shared by
    [topobench client] and the orchestrator's work units so every front
    end sends the same bytes for the same request. *)

type resolved = {
  topo : Core.Topology.t;
  matrix : Core.Traffic.t;
  commodities : Core.Commodity.t array;
}

val resolve : t -> resolved
(** Build the topology and traffic matrix. Deterministic: the topology
    draws from [Random.State.make [| seed |]] and the traffic from
    [[| seed; 1 |]], the same derivation as the CLI front ends. May raise
    ([Invalid_argument], [Failure]) on semantically invalid specs; the
    server maps those to 400. *)

val build_topology : t -> Core.Topology.t
(** Just the topology construction step of {!resolve}. *)

val resolve_with : topo:Core.Topology.t -> t -> resolved
(** {!resolve} against an already-built topology, for batched dispatch
    that amortizes topology (and CSR) construction across requests
    sharing a {!topology_key}. The caller is responsible for [topo]
    being what {!build_topology} would return. *)

val topology_key : t -> string
(** Batching key: equal keys (same spec spelling or inline text, same
    seed) provably build identical topologies. A heuristic for
    amortization only — distinct keys can still resolve to equal
    topologies and merely miss the batch; identity always comes from
    {!digest}. *)

val cache_key : t -> string
(** Hot-cache key: the canonical wire body with [timeout_s] stripped.
    Computable without resolving (a cache hit costs no topology build)
    and timeout-blind like {!digest}. Distinct spellings of the same
    resolved instance (a spec vs its inline serialization) get distinct
    cache keys — they miss the hot cache and fall through to the
    digest-keyed disk store. *)

val params : t -> Core.Mcmf_fptas.params

val digest : ?solver_version:string -> t -> resolved -> Core.Digest_key.t
(** Digest of a canonical text covering everything the response bits
    depend on and nothing else — in particular the timeout is excluded
    (it bounds the computation, it does not parameterize the result).
    [solver_version] defaults to {!Core.Digest_key.solver_version} and
    exists so tests can check that version bumps change digests. *)
