(** The Garg–Könemann/Fleischer phase loop shared by {!Mcmf_fptas}
    (routing on shortest-path trees) and {!Mcmf_paths} (routing on fixed
    path sets).

    Each phase routes every commodity's full demand on (near-)shortest
    paths under multiplicative arc lengths [l], then certifies:

    - primal: after [p] phases each commodity has shipped [p·demand], so
      the flow divided by its peak congestion [μ] is feasible with
      concurrency [p / μ]. Every phase ships exactly [demand], so the
      flow of phases [(p_w, p]] alone is a flow of [(p − p_w)·demand],
      certified by its own congestion [μ_w]. The loop snapshots the flow
      at [5·2^k] phases after its start and keeps the two newest, and
      [λ_lo = max (p / μ, (p − p_w) / μ_w)] over the whole history and
      both windows (ties go to the whole history). Early phases route on
      poor lengths and dominate [μ]; a window that drops them certifies
      sooner;
    - dual: any positive lengths bound [λ* ≤ D(l) / Σⱼ dⱼ·dist_l(j)] with
      [D(l) = Σₐ capₐ·lₐ] (LP duality); [λ_hi] is the smallest seen.

    The loop stops once [λ_hi / λ_lo ≤ 1 + gap] or at the phase budget,
    and halves eps (down to a floor) when the gap stalls; both
    certificates stay valid across a change of eps, so the step schedule
    moves only the phase count. A cold solve starts at twice the
    requested eps ({!start_eps}); a stall of a few phases halves that to
    the requested eps, and from there a stall of 30 phases halves it.
    {!solve} wraps every solve in one span and one set of counters. Only
    the route oracle is solver-specific, passed in as per-phase callbacks
    so the per-arc loops stay in the solvers.

    {2 A phase's order, and the phase routed ahead}

    Phase [p] is certified from [flow] and [lengths] as its routing left
    them (after rescaling). The loop then copies both into two per-solve
    buffers, and one [step] does two things: the dual sweep of phase [p]
    on the copied ("frozen") lengths, and the routing of phase [p + 1] on
    the live arrays. The sweep reads exactly the lengths it would read if
    it ran alone, and the routing reads the same stored paths, live
    lengths and eps it would read after the sweep, so running them
    together ({!Mcmf_fptas} routes a source as soon as the sweep has
    built its tree) changes only the order of work, never a float.

    Phase [p + 1] was routed before the loop decided to continue. When
    phase [p] stops the solve (gap met or budget spent), or its stall
    halves eps, the loop rolls back: it copies the buffers into [lengths]
    and [flow] and calls [settle ~keep:false]. A stop then finishes at
    phase [p]; a halving routes phase [p + 1] again, at the new eps, on
    the same stored paths. Otherwise [settle ~keep:true] accepts the phase
    routed ahead. A rolled-back phase is counted in [discarded], not in
    [routed], and has no phase span.

    There is one phase span per kept phase, but it covers work in loop
    order, not by phase: the span of phase [p] holds [p]'s rescale,
    certificate and dual sweep plus the routing done in its step: phase
    [p + 1]'s, or that of a phase then rolled back (in the last span, and
    in the span before an eps halving). Only a phase routed with no step
    ahead of it (the first, and the one after a halving) has its own
    routing in its span.

    Arrays are indexed by arc id; [cap] is the graph's CSR capacities.
    Zero-capacity arcs carry length 0 throughout: they add nothing to
    [D(l)] and never win a maximum against a usable arc. *)

type params = {
  eps : float;
      (** Requested multiplicative length step (0 < eps < 1); a cold
          solve starts at {!start_eps}. *)
  gap : float;  (** Certified relative gap at which to stop. *)
  max_phases : int;  (** Phase budget. *)
}

val validate : params -> unit
(** Raises [Invalid_argument] unless [0 < eps < 1], [gap > 0] and
    [max_phases >= 1]. *)

exception Cancelled

val with_cancel : (unit -> bool) -> (unit -> 'a) -> 'a
(** See {!Mcmf_fptas.with_cancel}. *)

type result = {
  lambda_lower : float;
  lambda_upper : float;
  arc_flow : float array;
  phases : int;
  converged : bool;
}

val midpoint : result -> float
(** [(lambda_lower + lambda_upper) / 2]. *)

val init_lengths : eps:float -> cap:float array -> float array -> unit
(** Usable arcs get [δ / capₐ] with [δ = (m / (1 - eps))^(-1/eps)], [m]
    the number of usable arcs; the others get 0. A cold solve passes the
    step it starts at, {!start_eps}, not the requested one. *)

val rescale_lengths : float array -> unit
(** Divide all lengths by the largest once it exceeds [1e100]. *)

val volume : cap:float array -> float array -> float
(** [D(l)]. *)

val dual_bound : volume:float -> alpha:float -> float
(** [volume / alpha], or [infinity] when that is not positive. *)

val start_eps : params -> float
(** The step a cold solve starts at: twice the requested
    [eps], capped at [max eps 0.5] so it stays below 1. {!run} halves it
    to the requested step after a short stall. *)

val warm_eps : params -> float -> float
(** The step a warm start resumes at: the seed's reached step, clamped
    to the requested one and the halving floor. *)

type stats = {
  mutable routed : int;  (** Phases this call routed and kept. *)
  mutable discarded : int;  (** Phases routed ahead and rolled back. *)
  mutable eps_halvings : int;
  mutable window : int;
      (** Start phase of the window the final certificate came from, 0 for
          the whole history. *)
  mutable route_ns : int;
      (** Wall time the calling domain spent routing: in [route], and in
          the routing part of [step], which the solver adds. Timed only
          with metrics on (see {!tick}). *)
  mutable dual_ns : int;
      (** The rest of each [step]'s wall time: the sweep, seen from the
          calling domain, waits included. Disjoint from [route_ns]. *)
  mutable route_wait_ns : int;
      (** The part of [dual_ns] the router spent waiting for a sweep
          chunk another domain was building; the solver adds it. *)
}
(** Per-solve tallies, created by {!solve}. *)

val tick : unit -> int64
(** The monotonic clock with metrics on, [0L] without. *)

val ns_since : int64 -> int
(** Nanoseconds since [tick ()] returned [t0]; 0 when it returned [0L]. *)

val run :
  cat:string -> params:params -> stats:stats -> eps:float ref ->
  cap:float array -> flow:float array -> lengths:float array ->
  route:(unit -> unit) -> step:(lengths:float array -> float) ->
  settle:(keep:bool -> unit) -> best_dual:float ->
  finish:(flow:float array -> phases:int -> lo:float -> hi:float ->
          mu:float -> converged:bool -> 'a) ->
  'a
(** Run phases from dual bound [best_dual] ([infinity] unless the caller
    carries a bound that is still valid, such as a failure baseline's)
    until the gap or the budget, then [finish]
    with the certified flow, the phases run, [λ_lo], [λ_hi], the
    certified flow's congestion [μ] and whether the gap was met.

    [route ()] routes one phase on the live arrays: ship every
    commodity's scaled demand into [flow], growing [lengths] by [!eps].
    It routes the first phase, and a phase routed again after a rollback.
    [step ~lengths:frozen] returns the dual bound's
    [α = Σⱼ dⱼ·dist(j)] at [frozen] (a copy of [lengths] the step must
    not write) and routes the next phase on the live arrays, as [route]
    would. [settle ~keep] follows every step (see the header); [keep] is
    [false] after a rollback, when [flow] and [lengths] are back as they
    were before the step and the solver must drop whatever else the
    routing recorded.

    The certified flow is [flow] itself when the whole history wins, and
    the winning window's [flow − snapshot] otherwise, held in the
    snapshot's buffer. [flow] always stays the whole history, in which
    every commodity [j] has shipped [phases·dⱼ]. Memory is two buffers
    of [m] floats for the rollback and two more for the window
    snapshots, allocated at the first two snapshots and reused after.

    A phase checks for cancellation, routes (unless the last step did),
    rescales [lengths], certifies and steps. A stall halves [eps] in
    place: while [!eps] is above [params.eps] (a cold start at
    {!start_eps}) a stall of 8 phases halves it, landing on no less than
    [params.eps]; from there a stall of 30 phases halves it, down to a
    floor of 0.0125. A warm start resumes at {!warm_eps}, which is at
    most [params.eps] unless that is below the floor, so only the
    30-phase rule applies to it. Each kept phase is a
    ["phase"] span in trace category [cat] (args: phase, ratio), with a
    ["dual_check"] instant (args: phase, ratio, lo and hi in the caller's
    scaled units, window, the winning window's start phase or 0 for the
    whole history, and eps, the step the phase was routed at). *)

val result :
  scale:float -> flow:float array -> phases:int -> lo:float -> hi:float ->
  mu:float -> converged:bool -> result
(** The interval in unscaled units and the flow divided by [mu]; [phases]
    is the phases the solve ran. *)

(** {1 One solve} *)

type solver
(** A solver's trace name and its shared counters. *)

val solver : string -> solver
(** [solver cat] registers [<cat>.solves], [<cat>.phases] (phases routed and
    kept), [<cat>.dual_checks] (one dual check per kept phase, so equal
    to [<cat>.phases]), [<cat>.eps_halvings],
    [<cat>.unconverged], [<cat>.cancelled], [<cat>.window_wins] (solves
    whose certificate came from a window), [<cat>.phases_discarded]
    (phases routed ahead and rolled back), the stage timers
    [<cat>.route_ns], [<cat>.dual_ns] and [<cat>.route_wait_ns] (see
    {!stats}), gauge [<cat>.last_gap] and histogram [<cat>.solve_s]. *)

val solve :
  solver -> result:('a -> result) -> ?flush:('a -> unit) ->
  (stats -> 'a) -> 'a
(** [solve solver ~result f] runs [f] on fresh {!stats} inside a
    ["<cat>.solve"] span (trace category ["solver"], args: phases,
    achieved gap, converged) and, with metrics on, flushes the shared
    counters, then [flush] for the solver's own, then the timer. A
    {!Cancelled} solve bumps [<cat>.cancelled]; any exception closes the
    span and is re-raised. *)
