(** Homogeneous topology experiments: Figures 1, 2 and 3 (paper §4).

    Every function returns a printable table whose columns mirror the
    corresponding figure's series; benches print them, EXPERIMENTS.md
    records the shapes. *)

val fig1a : Scale.t -> Dcn_util.Table.t
(** Throughput of RRGs relative to the Theorem-1 upper bound as density
    grows: N = 40 switches, network degree r on the x-axis, for all-to-all
    traffic and permutations with 5 and 10 servers per switch. *)

val fig1b : Scale.t -> Dcn_util.Table.t
(** Observed ASPL vs. the Cerf et al. lower bound, same sweep as fig1a. *)

val fig2a : Scale.t -> Dcn_util.Table.t
(** Same ratio as fig1a but sweeping network size N with degree r = 10.
    All-to-all is computed only up to the size where its N² commodities
    remain tractable, mirroring the paper's own scaling remark. *)

val fig2b : Scale.t -> Dcn_util.Table.t
(** ASPL vs. bound for the fig2a sweep. *)

val fig3 : Scale.t -> Dcn_util.Table.t
(** ASPL "curved steps": degree 4, sizes spanning the Moore-bound level
    boundaries 17, 53, 161, 485, 1457; observed ASPL, the bound, and their
    ratio. *)

(** {1 Warm-start sweep bench}

    Machinery behind [bench --sweep-warm]: run a sweep's grid points both
    cold (a fresh solve per point) and warm (seeded from a baseline solve
    of the unperturbed instance, or chained from the previous point) and
    report the per-point speedup. Both legs call the solver directly —
    never the result cache — so phases and seconds compare compute
    against compute, and every warm leg's certificate is checked against
    the requested gap. *)

type sweep_warm_point = {
  swp_label : string;
  swp_cold_phases : int;  (** Phases the cold solve executed. *)
  swp_warm_phases : int;  (** Phases the warm leg {e executed}. *)
  swp_cold_seconds : float;
  swp_warm_seconds : float;
  swp_cold_lower : float;
  swp_cold_upper : float;
  swp_warm_lower : float;
  swp_warm_upper : float;
  swp_certified : bool;
      (** The warm result converged with certified gap ≤ requested. *)
  swp_overlap : bool;
      (** The cold and warm certified intervals intersect (they must:
          both contain the true optimum). *)
}

type sweep_warm_report = {
  swr_name : string;
  swr_requested_gap : float;
  swr_baseline_phases : int;  (** Cost of the warm chain's seed solve. *)
  swr_baseline_seconds : float;
  swr_points : sweep_warm_point list;
  swr_cold_phases : int;  (** Total over points, cold legs. *)
  swr_warm_phases : int;  (** Total over points, warm legs (executed). *)
  swr_geomean_phases : float;  (** Geometric-mean per-point speedup. *)
  swr_geomean_wall : float;
  swr_all_certified : bool;
  swr_all_overlap : bool;
}

val speedup_phases : sweep_warm_point -> float
val speedup_wall : sweep_warm_point -> float

val sweep_warm_point :
  label:string -> requested_gap:float ->
  cold:Dcn_flow.Mcmf_fptas.result -> cold_seconds:float ->
  warm:Dcn_flow.Mcmf_fptas.solve_state -> warm_seconds:float ->
  sweep_warm_point
(** Package one grid point's two legs (used by the failure sweep below
    and by {!Hetero_experiments.sweep_warm_demand}). *)

val sweep_warm_report :
  name:string -> requested_gap:float -> baseline_phases:int ->
  baseline_seconds:float -> sweep_warm_point list -> sweep_warm_report
(** Totals, geometric means and conjunction flags over the points. *)

val sweep_warm_table : sweep_warm_report -> Dcn_util.Table.t
(** Printable per-point table with a trailing geomean row. *)

val sweep_warm_failures : Scale.t -> sweep_warm_report
(** The failure-figure grid, cold vs. re-solve: one baseline solve of an
    RRG permutation instance at half the requested gap, then for each
    (failure fraction, seed) grid point a cold solve of the masked
    survivor vs. {!Dcn_flow.Mcmf_fptas.resolve_after_failure} from the
    baseline, which starts from the baseline's dual bound. *)

(** {1 Reusable measurements} *)

val rrg_throughput_ratio :
  Scale.t -> salt:int -> n:int -> r:int ->
  traffic:[ `Permutation of int | `All_to_all of int ] ->
  float * float
(** Mean and stdev over runs of λ divided by the Theorem-1 bound for
    RRG(N, k, r); the traffic argument carries servers per switch. *)

val rrg_aspl : Scale.t -> salt:int -> n:int -> r:int -> float * float
(** Mean and stdev of the ASPL of RRG samples. *)
