(** Maximum concurrent multicommodity flow, Garg–Könemann/Fleischer FPTAS.

    This is the scalable replacement for the paper's CPLEX runs. The
    algorithm maintains multiplicative arc lengths; each phase routes every
    commodity's full demand along (approximately) shortest paths under the
    current lengths. Commodities sharing a source reuse one shortest-path
    tree, rebuilt lazily when a used path's current length exceeds
    [(1 + eps)] times its length at tree-build time (Fleischer's rule).
    Routing paths come from the previous phase's dual-bound sweep, which
    computes one tree per source at exactly the lengths the next phase
    starts from: it stores each commodity's path and distance, and the
    next phase routes on those paths under the same rule, building a
    fresh tree for a source only once one of its stored paths goes stale.
    The first phase follows no dual sweep and builds a fresh tree per
    source.

    The dual sweep runs on the domain pool ({!Dcn_util.Pool}): its trees
    are independent, since it reads a frozen copy of the lengths, so each
    phase's sweep is one batch over contiguous chunks of sources. The
    routing pass is sequential, and it overlaps the sweep:
    the calling domain routes the next phase on the live lengths, each
    source as soon as the chunk holding its tree is built, and builds
    unclaimed chunks itself while it waits ({!Gk_loop.run} rolls that
    phase back when the solve stops or eps halves; a tracked solve's
    group flows for it wait in a log until it is kept). The answer is
    bit-identical at any worker count: each commodity's distance goes to
    its own slot and its path to its source's own buffer, a source is
    routed only on its own stored paths, and the dual bound's sum is
    taken after the batch, in commodity order, so no float operation
    depends on which domain built which tree or when. With no workers,
    or a sweep too small to pay for waking one, the step sweeps as a
    plain loop and then routes.

    Rather than relying on the worst-case scaling analysis, the solver
    certifies its own answer each phase, a primal [λ_lo] and a dual
    [λ_hi], and stops once [λ_hi / λ_lo ≤ 1 + gap]. The phase loop, both
    certificates, the stopping rule and the adaptive eps halving are
    {!Gk_loop}'s, shared with {!Mcmf_paths}; this module supplies the
    shortest-path routing and the dual-bound sweep. *)

open Dcn_graph

type params = Gk_loop.params = {
  eps : float;
      (** Requested multiplicative length step (0 < eps < 1); a cold
          solve starts at twice it ({!Gk_loop.start_eps}). *)
  gap : float;  (** Certified relative gap at which to stop. *)
  max_phases : int;
      (** Phase budget. If exhausted before the target gap (possible when
          [gap] is small relative to the O(eps) primal loss of the
          multiplicative-weights scheme), the result is still a valid —
          merely wider — certificate, flagged by [converged = false]. *)
}

val default_params : params
(** eps = 0.05, gap = 0.03, max_phases = 100_000. *)

val quick_params : params
(** Coarser/faster: eps = 0.1, gap = 0.08 — for smoke tests and quick-mode
    benches. *)

(** {1 Cooperative cancellation} *)

exception Cancelled
(** Raised (from {!solve}, between phases) when the stop check installed
    by {!with_cancel} returns [true]. No partial phase is observable: the
    check runs only at phase boundaries, where both certificates are
    consistent. *)

val with_cancel : (unit -> bool) -> (unit -> 'a) -> 'a
(** [with_cancel check f] installs [check] as the cancellation predicate
    for every solve executed by [f] {e on this domain} (the installation
    is domain-local, so callers layered above the solver — cached
    wrappers, {!Dcn_flow.Throughput.compute}, the path-restricted
    {!Dcn_flow.Mcmf_paths} — inherit it without parameter plumbing).
    [check] is consulted between FPTAS phases; when it returns [true] the
    solve raises {!Cancelled}. Nested installations shadow; the previous
    predicate is restored on exit, also on exceptions. Typical use: a
    per-request deadline, [with_cancel (fun () -> Clock.now_ns () > dl)].

    The check must be cheap (called once per phase) and must not raise. *)

type result = Gk_loop.result = {
  lambda_lower : float;  (** Concurrency of the returned feasible flow. *)
  lambda_upper : float;  (** Certified upper bound on the optimum. *)
  arc_flow : float array;
      (** Feasible per-arc flow (≤ capacity) achieving [lambda_lower]. *)
  phases : int;  (** Complete phases executed. *)
  converged : bool;  (** Whether the target gap was certified in budget. *)
}

(** {1 Warm starts and failure re-solves}

    Sweep workloads solve hundreds of nearly identical instances. The
    solver therefore returns, alongside every result, a {!warm_state}
    capturing what a later solve can soundly reuse, and accepts such a
    state as a seed.

    Why this stays certified: the dual bound [D(l)/Σ dⱼ·dist_l(j)] holds
    for {e any} positive length function (LP duality) — the seed merely
    starts the search at lengths that are already nearly optimal for the
    neighboring instance. The primal bound is never taken on trust: it is
    re-derived from the actual flow ([λ_lo = shipped-phases / μ] with [μ]
    the measured peak congestion of the concrete flow array, or of a
    window of recent phases, which ships the same per phase; see
    {!Gk_loop}), so the returned [arc_flow] is feasible by construction.
    A warm-started solve's certificate is exactly as trustworthy as a
    cold one's — the seed can only change how fast the target gap is
    reached.

    A failure re-solve ({!resolve_after_failure}) reuses neither the
    baseline's flow nor its lengths. It is a cold solve of the survivor
    graph that keeps two things from the baseline: the demand scale (a
    pure change of units) and the dual bound. Removing capacity can only
    lower the optimum, so the baseline's [λ_hi] still bounds the
    survivor's, and the loop can stop as soon as the new flow certifies
    against it. *)

type warm_state = {
  w_n : int;  (** Node count of the producing instance. *)
  w_num_arcs : int;  (** Arc count — seeds only apply to same-shape graphs. *)
  w_commodities : Commodity.t array;  (** Copy of the producing demands. *)
  w_scale : float;  (** Internal demand scale (a pure change of units). *)
  w_eps : float;  (** Length step reached (after adaptive halvings). *)
  w_phases : int;
      (** Phases of the producing solve, all routed by that call, also
          when a window of recent phases certified [λ_lo]: [w_group_flow]
          ships [w_phases·d] (scaled) per commodity. *)
  w_dual : float;  (** Best dual bound at capture, in scaled units. *)
  w_lengths : float array;  (** Final arc lengths (a private copy). *)
  w_group_flow : float array array option;
      (** Present iff the producing call tracked groups: per source group,
          per arc, the group's share of the raw flow of the whole history.
          Sums to the aggregate exactly. *)
}

type solve_state = { result : result; warm : warm_state }

val solve_with_state :
  ?params:params -> ?warm:warm_state -> ?track_groups:bool -> Graph.t ->
  Commodity.t array -> solve_state
(** Like {!solve}, returning the warm state alongside the result. Without
    [warm] (and with [track_groups = false], the default) the trajectory —
    and hence the result — is bit-identical to {!solve}.

    [warm] seeds the solve with the given state's arc lengths and reached
    eps. The seed is applied only when the instance shape matches
    ([w_num_arcs] and [w_n]); otherwise the solve silently runs cold, so
    sweep drivers can thread state across a grid without tracking where it
    changes size. The input state is never mutated, and the returned state
    is constructed only on successful completion — a {!Cancelled} solve
    leaves no torn state.

    [track_groups] additionally records per-source-group flows in the
    returned state ([w_group_flow]): groups × arcs floats, written once
    per routed path. *)

val resolve_after_failure :
  ?params:params -> ?track_groups:bool -> warm:warm_state ->
  failed:int list -> Graph.t -> Commodity.t array -> solve_state
(** [resolve_after_failure ~warm ~failed g cs] re-solves after the arcs in
    [failed] (and their reverses) lost their capacity, where [g] is the
    masked survivor graph — same node numbering and arc ids as the
    baseline, e.g. from {!Dcn_graph.Graph.mask_arcs} — and [warm] is the
    state of the baseline solve (group tracking is not needed).

    The call is a cold solve of [g] — cold-floor lengths at
    {!Gk_loop.start_eps} — with the baseline's demand scale and with its
    dual bound [w_dual] as the starting [λ_hi], as described above. The
    result is a certificate for the masked instance with gap ≤ requested,
    and its [lambda_upper] is at most the baseline's. [track_groups]
    records group flows as in {!solve_with_state}.

    Raises [Invalid_argument] if the instance shape or commodities differ
    from the warm state's, if an arc id is out of range, or if the failure
    disconnects a commodity. *)

val solve : ?params:params -> Graph.t -> Commodity.t array -> result
(** Raises [Invalid_argument] if there are no commodities, if a commodity's
    endpoints are disconnected, or if params are out of range. *)

val solve_with_mean_dist :
  params:params -> mean_dist:float -> Graph.t -> Commodity.t array -> result
(** {!solve}, bit for bit, for a caller that already has [mean_dist] =
    {!mean_distance}[ g commodities]: the demand scale (the Theorem-1
    bound) is taken from it instead of from a BFS sweep of its own. *)

val mean_distance : Graph.t -> Commodity.t array -> float
(** ⟨D⟩: the demand-weighted mean shortest-path hop count
    ({!Dcn_graph.Graph_metrics.weighted_pair_distance_array}). *)

val theorem1_bound : mean_dist:float -> Graph.t -> Commodity.t array -> float
(** Theorem 1's [C / (mean_dist · Σ dⱼ)], [C] the total arc capacity: the
    demand scale (which clamps [mean_dist] to at least 1) and
    [Dcn_bounds.Throughput_bound.upper_bound_capacity]. *)

val lambda : ?params:params -> Graph.t -> Commodity.t array -> float
(** Shorthand for {!Gk_loop.midpoint} of {!solve}. *)

(** {1 Fan-out rule}

    The rule the dual sweep uses to split a batch of independent units
    (a source's tree; for {!Mcmf_paths}, a pair's path set) into pool
    chunks. *)

val chunk_count : num_arcs:int -> ngroups:int -> int
(** The chunks a batch of [ngroups] units, each about one search over
    [num_arcs] arcs, is split into: 1 (a plain loop on the caller) with
    no pool workers, fewer than 2 units, or fewer than [2^16] units ×
    arcs; otherwise 8 per participant (workers plus the caller), at most
    [ngroups]. *)

val chunk_lo : ngroups:int -> chunks:int -> int -> int
(** Chunk [c] of [chunks] holds units [[chunk_lo c, chunk_lo (c + 1))]. *)
