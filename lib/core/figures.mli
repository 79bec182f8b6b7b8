(** The figure registry and the figure pipeline behind both figure front
    ends ([bench/main.exe] and [topobench figure]).

    One entry per figure of the paper's evaluation (fig1a .. fig13) and
    per ablation, in the order [bench] runs and lists them. A figure is
    computed into two artifacts — its {!Dcn_util.Table.pp} rendering and
    its CSV — which are recorded in the result store's run manifest
    ({!Dcn_store.Manifest}) as soon as it finishes. The manifest
    directory is keyed by the scale fingerprint and solver version alone,
    so either front end can replay a figure the other recorded. *)

type t = {
  name : string;  (** Target name: [fig1a], [ablation_eps], ... *)
  description : string;  (** One line, shown by [bench --list]. *)
  table : Scale.t -> Dcn_util.Table.t;
}

val all : t list
(** Every figure and ablation, in registry order. *)

(** One finished figure, freshly computed or replayed. A replayed result
    carries exactly the artifacts a fresh computation wrote, so the two
    are indistinguishable downstream. *)
type result = {
  figure : t;
  table_text : string;  (** [Table.pp] rendering, newline-terminated. *)
  csv_text : string;  (** [Table.to_csv]. *)
  seconds : float;  (** Wall time of the (original) computation. *)
  resumed : bool;  (** Replayed from the run manifest. *)
  metrics : Dcn_obs.Metrics.snapshot option;
      (** What the computation did (solves, phases, cache traffic). Only
          attributable when figures run serially with metrics on: with
          the pool enabled, concurrent figures interleave in the global
          registry, so this stays [None]. Always [None] when replayed. *)
}

val compute : Scale.t -> t -> result
(** Run the figure under a [figure] trace span and
    {!Scale.with_figure}'s label, and render both artifacts. *)

val run_dir : Dcn_store.Store.t -> Scale.t -> string
(** The run manifest directory of [scale] inside the store (created on
    first use). *)

val replay : dir:string -> t -> result option
(** The figure as recorded in the run manifest at [dir]; [None] unless
    the manifest has a [done] line for it and both artifacts are
    present, so a half-written run directory degrades to a recompute,
    never to wrong output. *)

val record : dir:string -> result -> unit
(** Write both artifacts, then append the [done] line. *)

val run :
  resume:bool -> emit:(result -> unit) -> Scale.t -> t list -> result list
(** Produce every figure in the list. With a shared store installed,
    [resume] first replays the figures already recorded under the
    store's run directory; the rest are computed — on the shared pool
    when it is enabled, else one by one — and recorded as they are
    emitted, so a later run can pick up where this one was killed.
    Replayed figures are emitted first, then the computed ones in list
    order (streamed when serial, after the whole batch when parallel).
    Returns the results in emission order. *)
