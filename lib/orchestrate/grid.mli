(** Declarative parameter grids and their expansion into work units.

    A grid is the cross product of the sweep axes — topology x seed x
    traffic x eps x gap x routing — in the {!Core.Cli} spec vocabulary.
    {!expand} turns it into digest-keyed work units: each carries the
    exact [/solve] wire body and the request's content digest
    ({!Dcn_serve.Request.digest} over the resolved inputs), which is the
    unit's identity everywhere downstream — the store key its result
    lands under, the manifest record a resume re-verifies, and what
    makes hedged duplicates safe to race (responses are byte-identical
    by digest). *)

type t = {
  topos : Core.Cli.topo_spec list;
  seeds : int list;
  traffics : Core.Cli.traffic_kind list;
  epses : float list;
  gaps : float list;
  routings : Dcn_serve.Request.routing list;
}

type unit_ = {
  id : int;  (** Dense 0-based index in expansion order. *)
  label : string;  (** Whitespace-free human-readable point name. *)
  request : Dcn_serve.Request.t;
  body : string;  (** {!Dcn_serve.Request.to_body} of [request]. *)
  digest : Core.Digest_key.t;  (** Result identity (store key). *)
}

val create :
  topos:Core.Cli.topo_spec list ->
  ?seeds:int list ->
  ?traffics:Core.Cli.traffic_kind list ->
  ?epses:float list ->
  ?gaps:float list ->
  ?routings:Dcn_serve.Request.routing list ->
  unit ->
  t
(** Defaults: seed 1, permutation traffic, eps/gap 0.05, optimal routing
    — the same defaults as the [/solve] schema. Raises
    [Invalid_argument] on an empty axis. *)

val size : t -> int
(** Cross-product cardinality before digest dedup. *)

val expand : t -> unit_ list
(** Deterministic expansion, nested left-to-right in declaration order,
    deduplicated by digest (first occurrence wins). Resolves each
    (topology, seed, traffic) instance once. Raises [Invalid_argument]
    naming the topology spec and {!Dcn_serve.Request.resolve}'s message
    when a spec is semantically invalid (e.g. an RRG degree at least its
    switch count). *)

val fingerprint : unit_ list -> string
(** Run identity for {!Dcn_store.Manifest.dir}: the ordered unit
    digests. Changing any axis value or the solver version relocates
    the manifest, so resumes never mix incompatible results. *)

val to_json : t -> string
(** The grid as JSON, recorded as a manifest artifact for audit. *)
