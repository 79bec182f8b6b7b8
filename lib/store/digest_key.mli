(** Content addresses for solve requests.

    A cache entry's key is the hex digest of a {e canonical request text}:
    the canonical serialization of the inputs (the byte-identical forms
    guaranteed by {!Dcn_io.Topology_io.to_string} and
    {!Dcn_io.Traffic_io.to_string}), the solver parameters, and
    {!solver_version}. Content addressing makes the cache safe by
    construction — two requests share an entry iff their canonical texts
    are equal, so topology generators, RNG seeding, and scheduling order
    are all irrelevant — and the version tag invalidates every entry
    whenever the solver's numerical behavior changes. *)

type t = string
(** Lowercase hex digest; fixed width ({!hex_length}). *)

val hex_length : int

val solver_version : string
(** Version tag mixed into every key. Bump whenever {!Dcn_flow.Mcmf_fptas}
    (or anything else that determines the bits of a cached result) changes
    behavior: old entries then become unreachable rather than stale. *)

val of_text : string -> t
(** Digest of an arbitrary canonical request text (already including any
    version salt the caller wants). Building block for the typed keys. *)

val graph_text : Dcn_graph.Graph.t -> string
(** Canonical "link u v cap" lines — the link section a topology with this
    graph would serialize to, sorted as {!Dcn_io.Topology_io.to_string}
    sorts it, preceded by the node count. *)

val of_solve :
  kind:string ->
  params:Dcn_flow.Mcmf_fptas.params ->
  ?dual_check_every:int ->
  ?extras:string list ->
  Dcn_graph.Graph.t ->
  Dcn_flow.Commodity.t array ->
  t
(** Key of one solver invocation. [kind] names the cached computation
    ("fptas", "throughput-fptas", ...) so different result payloads never
    collide even on identical inputs. Includes {!solver_version}.

    [dual_check_every] must be [1] (the default), else [Invalid_argument].

    [extras] (default none) are additional canonical lines folded into the
    digest — the warm-provenance channel: a warm-started solve's result
    depends on its seed, so its key must name the seed (the producing
    entry's key, recursively content-addressed) or it would collide with
    the cold solve of the same instance. *)

val of_run :
  kind:string -> fingerprint:string -> t
(** Key of a whole experiment run (used to place run manifests): digest of
    [kind], the caller's scale fingerprint, and {!solver_version}. *)
