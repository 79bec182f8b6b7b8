(** Shared command-line vocabulary.

    All four front ends — [bin/topobench], [bench/main], the serving
    daemon [bin/dcn_served] and the [topobench client] load generator —
    parse their arguments with cmdliner and the terms below, so they
    accept the same option surface ([--jobs], [--cache-dir],
    [--no-cache], [--metrics]/[--trace]/[--progress], ...) with the same
    validation. The parsers live here once, as plain
    [string -> (_, string) result] functions with cmdliner terms wrapped
    around them, so validation messages cannot drift between tools; the
    serving layer's JSON request schema reuses the same topology and
    traffic spec syntax ({!parse_topo_spec}, {!parse_traffic}). *)

(** {1 Topology specs} *)

type topo_spec =
  | Rrg of int * int * int  (** n switches, k ports, r network links *)
  | Vl2 of int * int  (** da, di *)
  | Rewired of int * int * int  (** da, di, tors *)
  | Fat_tree of int
  | Hypercube of int * int  (** dim, servers per switch *)
  | Bcube of int * int
  | Dcell of int * int
  | Dragonfly of int * int
  | From_file of string

val parse_topo_spec : string -> (topo_spec, string) result
val topo_spec_to_string : topo_spec -> string
(** Canonical rendering; [parse_topo_spec] round-trips it. *)

val build_topology : topo_spec -> seed:int -> Dcn_topology.Topology.t
(** Deterministic given (spec, seed): the generator draws from
    [Random.State.make [| seed |]]. May raise ([Invalid_argument] from
    generators, [Sys_error]/[Failure] from [file:PATH]). *)

(** {1 Traffic specs} *)

type traffic_kind = Perm | A2a | Chunky of float  (** fraction in [0,1] *)

val parse_traffic : string -> (traffic_kind, string) result
val traffic_to_string : traffic_kind -> string

val make_traffic :
  traffic_kind -> Random.State.t -> servers:int array -> Dcn_traffic.Traffic.t

(** {1 Cmdliner terms} *)

val unit_open_conv : string -> float Cmdliner.Arg.conv

val eps_arg : float Cmdliner.Term.t
(** [--eps], default 0.05. *)

val gap_arg : float Cmdliner.Term.t
(** [--gap], default 0.05. *)

val params_of : float -> float -> Dcn_flow.Mcmf_fptas.params
(** FPTAS params with the CLI phase budget (100k). *)

val jobs_arg : int Cmdliner.Term.t
(** [--jobs], validated >= 1, default [Domain.recommended_domain_count ()]. *)

val seed_arg : int Cmdliner.Term.t
(** [--seed], default 1. *)

val topo_conv : topo_spec Cmdliner.Arg.conv
(** For positional topology arguments. *)

val traffic_conv : traffic_kind Cmdliner.Arg.conv

val traffic_arg : traffic_kind Cmdliner.Term.t
(** [--traffic], default permutation. *)

(** {1 Result-store options} *)

val cache_dir_arg : string option Cmdliner.Term.t
val no_cache_arg : bool Cmdliner.Term.t

val open_store : string -> (Dcn_store.Store.t, string) result
(** {!Dcn_store.Store.open_store}, with its [Failure] on an unusable
    directory (a regular file in the way) as [Error "store: ..."]. *)

val setup_store : string option -> bool -> (bool, string) result
(** Install the shared store from (--cache-dir, --no-cache); [Ok true]
    when caching is active. Front ends print the error as
    ["<tool>: store: ..."] and exit 2. *)

val report_cache_stats : unit -> unit
(** Print the shared store's hit/miss counters, if one is installed. *)

(** {1 Observability options} *)

val metrics_arg : string option Cmdliner.Term.t
val trace_arg : string option Cmdliner.Term.t

val obs_args : (string option * string option * bool) Cmdliner.Term.t
(** (--metrics, --trace, --progress) bundled. *)

val with_obs : string option * string option * bool -> (unit -> 'a) -> 'a
(** Enable the requested sinks, run the body, and publish the files
    afterwards — also on exceptions, so a failed run still leaves a
    usable partial trace for diagnosis. *)
