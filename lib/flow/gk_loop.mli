(** The Garg–Könemann/Fleischer phase loop shared by {!Mcmf_fptas}
    (routing on shortest-path trees) and {!Mcmf_paths} (routing on fixed
    path sets).

    Each phase routes every commodity's full demand on (near-)shortest
    paths under multiplicative arc lengths [l], then certifies:

    - primal: after [p] phases each commodity has shipped [p·demand], so
      the flow divided by its peak congestion [μ] is feasible with
      concurrency [λ_lo = p / μ];
    - dual: any positive lengths bound [λ* ≤ D(l) / Σⱼ dⱼ·dist_l(j)] with
      [D(l) = Σₐ capₐ·lₐ] (LP duality); [λ_hi] is the smallest seen.

    The loop stops once [λ_hi / λ_lo ≤ 1 + gap] or at the phase budget,
    and halves eps (down to a floor) when the gap stalls; both
    certificates stay valid across a change of eps. A delta-solve's
    inherited certificate is judged by the same test before any phase
    ({!run}), and {!solve} wraps every solve in one span and one set of
    counters. Only the route oracle is solver-specific, passed in as
    per-phase callbacks so the per-arc loops stay in the solvers.

    Arrays are indexed by arc id; [cap] is the graph's CSR capacities.
    Zero-capacity arcs carry length 0 throughout: they add nothing to
    [D(l)] and never win a maximum against a usable arc. *)

type params = {
  eps : float;  (** Multiplicative length step (0 < eps < 1). *)
  gap : float;  (** Certified relative gap at which to stop. *)
  max_phases : int;  (** Phase budget. *)
}

val validate : params -> unit
(** Raises [Invalid_argument] unless [0 < eps < 1], [gap > 0] and
    [max_phases >= 1]. *)

exception Cancelled

val with_cancel : (unit -> bool) -> (unit -> 'a) -> 'a
(** See {!Mcmf_fptas.with_cancel}. *)

val check_cancelled : unit -> unit
(** Raise {!Cancelled} if this domain's installed predicate fires. *)

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
    the number of usable arcs; the others get 0. *)

val rescale_lengths : float array -> unit
(** Divide all lengths by the largest once it exceeds [1e100]. *)

val volume : cap:float array -> float array -> float
(** [D(l)]. *)

val dual_bound : volume:float -> alpha:float -> float
(** [volume / alpha], or [infinity] when that is not positive. *)

val warm_eps : params -> float -> float
(** The step a warm start resumes at: the seed's reached step, clamped
    to the requested one and the halving floor. *)

type stats = {
  mutable routed : int;  (** Phases this call routed. *)
  mutable dual_checks : int;
  mutable eps_halvings : int;
}
(** Per-solve tallies, created by {!solve}. *)

val run :
  cat:string -> params:params -> stats:stats -> eps:float ref ->
  cap:float array -> flow:float array -> lengths:float array ->
  route:(unit -> unit) -> alpha:(unit -> float) -> restart:(unit -> unit) ->
  phases:int -> best_dual:float ->
  finish:(phases:int -> lo:float -> hi:float -> mu:float ->
          converged:bool -> 'a) ->
  'a
(** Run phases from [phases] certified phases and dual bound [best_dual]
    (0 and [infinity] cold) until the gap or the budget, then [finish]
    with the certified phases, [λ_lo], [λ_hi], [μ] and whether the gap
    was met.

    With [phases > 0] (a delta-solve's inherited flow, every commodity
    having shipped [phases·dⱼ]) the loop first checks the inherited
    certificate. At [λ_hi / λ_lo ≤ 1 + gap] it finishes with no new
    phase. Above [1 + 2·gap] the inherited flow is dead weight: the loop
    calls [restart], which must zero [flow] and reset [lengths] and
    [eps], and runs from 0 phases, keeping [best_dual]. [restart] is
    called at most once, and only then.

    A phase checks for cancellation, calls [route] (ship every
    commodity's scaled demand into [flow], growing [lengths] by [!eps]),
    rescales [lengths] and takes the dual bound with [alpha ()]
    [= Σⱼ dⱼ·dist_l(j)]. A stall halves [eps] in place. Each phase is a
    ["phase"] span in trace category [cat], with a ["dual_check"]
    instant. *)

val result :
  scale:float -> flow:float array -> phases:int -> lo:float -> hi:float ->
  mu:float -> converged:bool -> result
(** The interval in unscaled units and the flow divided by [mu]. *)

(** {1 One solve} *)

type solver
(** A solver's trace name and its shared counters. *)

val solver : string -> solver
(** [solver cat] registers [<cat>.solves], [<cat>.phases] (phases routed,
    inherited ones excluded), [<cat>.dual_checks], [<cat>.eps_halvings],
    [<cat>.unconverged], [<cat>.cancelled], gauge [<cat>.last_gap] and
    histogram [<cat>.solve_s]. *)

val solve :
  solver -> result:('a -> result) -> ?flush:('a -> unit) ->
  (stats -> 'a) -> 'a
(** [solve solver ~result f] runs [f] on fresh {!stats} inside a
    ["<cat>.solve"] span (trace category ["solver"], args: phases,
    achieved gap, converged) and, with metrics on, flushes the shared
    counters, then [flush] for the solver's own, then the timer. A
    {!Cancelled} solve bumps [<cat>.cancelled]; any exception closes the
    span and is re-raised. *)
