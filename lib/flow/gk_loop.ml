module Metrics = Dcn_obs.Metrics
module Trace = Dcn_obs.Trace
module Json = Dcn_obs.Json

type params = { eps : float; gap : float; max_phases : int }

let validate p =
  if p.eps <= 0.0 || p.eps >= 1.0 then invalid_arg "Gk_loop: eps out of (0,1)";
  if p.gap <= 0.0 then invalid_arg "Gk_loop: gap must be positive";
  if p.max_phases < 1 then invalid_arg "Gk_loop: max_phases < 1"

(* Cooperative cancellation: a per-domain stop check consulted between
   phases, where both certificates are consistent. Domain-local so callers
   layered above the solvers inherit a deadline without API plumbing. *)
exception Cancelled

let cancel_key : (unit -> bool) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_cancel check f =
  let old = Domain.DLS.get cancel_key in
  Domain.DLS.set cancel_key (Some check);
  Fun.protect ~finally:(fun () -> Domain.DLS.set cancel_key old) f

let check_cancelled () =
  match Domain.DLS.get cancel_key with
  | Some check when check () -> raise Cancelled
  | _ -> ()

type result = {
  lambda_lower : float;
  lambda_upper : float;
  arc_flow : float array;
  phases : int;
  converged : bool;
}

let midpoint r = (r.lambda_lower +. r.lambda_upper) /. 2.0

let init_lengths ~eps ~cap lengths =
  let m_pos = ref 0 in
  Array.iter (fun c -> if c > 0.0 then incr m_pos) cap;
  let delta = (float_of_int !m_pos /. (1.0 -. eps)) ** (-1.0 /. eps) in
  Array.iteri
    (fun a c -> lengths.(a) <- (if c > 0.0 then delta /. c else 0.0))
    cap

(* Routing and the dual bound are invariant under uniform scaling, so
   rescaling only keeps the lengths far from overflow. *)
let rescale_lengths lengths =
  let max_len = ref 0.0 in
  for a = 0 to Array.length lengths - 1 do
    max_len := Float.max !max_len (Array.unsafe_get lengths a)
  done;
  let max_len = !max_len in
  if max_len > 1e100 then begin
    let inv = 1.0 /. max_len in
    for a = 0 to Array.length lengths - 1 do
      lengths.(a) <- lengths.(a) *. inv
    done
  end

(* Zero-capacity arcs have length 0, so they add +0.0. *)
let volume ~cap lengths =
  let d_l = ref 0.0 in
  for a = 0 to Array.length cap - 1 do
    d_l := !d_l +. (Array.unsafe_get cap a *. Array.unsafe_get lengths a)
  done;
  !d_l

let dual_bound ~volume ~alpha =
  let bound = volume /. alpha in
  if Float.is_nan bound || bound <= 0.0 then infinity else bound

let congestion ~cap flow =
  let mu = ref 0.0 in
  for a = 0 to Array.length cap - 1 do
    let c = Array.unsafe_get cap a in
    if c > 0.0 then mu := Float.max !mu (Array.unsafe_get flow a /. c)
  done;
  !mu

(* The primal value plateaus at roughly λ*(1 - O(eps)), so when the gap
   stalls for [stall_window] phases the loop halves eps, down to [min_eps]. *)
let stall_window = 30
let min_eps = 0.0125
let warm_eps params seed_eps = Float.max min_eps (Float.min params.eps seed_eps)

type stats = {
  mutable routed : int;
  mutable dual_checks : int;
  mutable eps_halvings : int;
}

let run ~cat ~params ~stats ~eps ~cap ~flow ~lengths ~route ~alpha ~restart
    ~phases ~best_dual ~finish =
  (* The primal certificate of [phases] shipped phases: [(μ, λ_lo)]. *)
  let primal phases =
    let mu = congestion ~cap flow in
    (mu, float_of_int phases /. mu)
  in
  let met ratio = ratio <= 1.0 +. params.gap in
  let rec phase_loop phases best_dual last_ratio stalled =
    (* Deadline check between phases: all flow and length state is
       consistent here, so [Cancelled] aborts with no partial phase. *)
    check_cancelled ();
    (* One span per phase: the trace's phase-span count equals the number
       of phases this call routed (cross-checked by the test suite). *)
    let sp_phase = Trace.begin_span ~cat "phase" in
    route ();
    rescale_lengths lengths;
    let phases = phases + 1 in
    stats.routed <- stats.routed + 1;
    let mu, lambda_lo = primal phases in
    stats.dual_checks <- stats.dual_checks + 1;
    let best_dual =
      Float.min best_dual
        (dual_bound ~volume:(volume ~cap lengths) ~alpha:(alpha ()))
    in
    let ratio = best_dual /. lambda_lo in
    (* Trace arguments are built only when tracing is on, so a phase
       allocates nothing for them otherwise. *)
    if Trace.enabled () then begin
      let args = [ ("phase", Json.Int phases); ("ratio", Json.Num ratio) ] in
      Trace.instant ~cat "dual_check" ~args;
      Trace.end_span sp_phase ~args
    end;
    let converged = met ratio in
    (* Out of budget, the interval is still a valid certificate, just
       wider than asked; callers can inspect [converged] and the realized
       gap. *)
    if converged || phases >= params.max_phases then
      finish ~phases ~lo:lambda_lo ~hi:best_dual ~mu ~converged
    else begin
      (* "Meaningful progress" = the gap shrank by at least 1% of its
         distance to target this phase; anything slower counts as a stall. *)
      let progress_step = Float.max 5e-4 (0.01 *. (ratio -. 1.0 -. params.gap)) in
      let stalled = if ratio > last_ratio -. progress_step then stalled + 1 else 0 in
      let last_ratio = Float.min last_ratio ratio in
      if stalled >= stall_window && !eps > min_eps then begin
        stats.eps_halvings <- stats.eps_halvings + 1;
        eps := Float.max min_eps (!eps /. 2.0);
        phase_loop phases best_dual last_ratio 0
      end
      else phase_loop phases best_dual last_ratio stalled
    end
  in
  if phases = 0 then phase_loop 0 best_dual infinity 0
  else begin
    (* An inherited ledger is judged before any phase is routed: within
       the gap it certifies as is. Inherited flow that misses by more than
       twice the gap is dead weight: the loop would need about
       inherited·(excess/gap) phases just to dilute its congestion, so it
       is dropped and only the (still valid) dual bound is kept. *)
    let mu, lambda_lo = primal phases in
    let ratio = best_dual /. lambda_lo in
    if mu > 0.0 && met ratio then
      finish ~phases ~lo:lambda_lo ~hi:best_dual ~mu ~converged:true
    else if ratio > 1.0 +. (2.0 *. params.gap) then begin
      restart ();
      phase_loop 0 best_dual infinity 0
    end
    else phase_loop phases best_dual infinity 0
  end

let result ~scale ~flow ~phases ~lo ~hi ~mu ~converged =
  let arc_flow =
    if mu > 0.0 then Array.map (fun f -> f /. mu) flow else Array.copy flow
  in
  {
    lambda_lower = lo *. scale;
    lambda_upper = hi *. scale;
    arc_flow;
    phases;
    converged;
  }

(* Solver-internal observability. Counters are flushed once per solve,
   never inside the per-arc routing loops, so disabled instrumentation
   costs one branch per solve. *)
type solver = {
  cat : string;
  m_solves : Metrics.counter;
  m_phases : Metrics.counter;
  m_dual_checks : Metrics.counter;
  m_eps_halvings : Metrics.counter;
  m_unconverged : Metrics.counter;
  m_cancelled : Metrics.counter;
  m_last_gap : Metrics.gauge;
  m_solve_s : Metrics.histogram;
}

let solver cat =
  let counter name = Metrics.counter (cat ^ "." ^ name) in
  {
    cat;
    m_solves = counter "solves";
    m_phases = counter "phases";
    m_dual_checks = counter "dual_checks";
    m_eps_halvings = counter "eps_halvings";
    m_unconverged = counter "unconverged";
    m_cancelled = counter "cancelled";
    m_last_gap = Metrics.gauge (cat ^ ".last_gap");
    m_solve_s = Metrics.histogram (cat ^ ".solve_s");
  }

let solve solver ~result ?(flush = ignore) f =
  let sp = Trace.begin_span ~cat:"solver" (solver.cat ^ ".solve") in
  let t0 = Dcn_obs.Clock.now_ns () in
  let stats = { routed = 0; dual_checks = 0; eps_halvings = 0 } in
  match f stats with
  | x ->
      let r = result x in
      let gap = (r.lambda_upper /. r.lambda_lower) -. 1.0 in
      if Metrics.enabled () then begin
        Metrics.incr solver.m_solves;
        Metrics.add solver.m_phases stats.routed;
        Metrics.add solver.m_dual_checks stats.dual_checks;
        Metrics.add solver.m_eps_halvings stats.eps_halvings;
        if not r.converged then Metrics.incr solver.m_unconverged;
        Metrics.set solver.m_last_gap gap;
        flush x;
        Metrics.observe solver.m_solve_s (Dcn_obs.Clock.elapsed_s t0)
      end;
      Trace.end_span sp
        ~args:
          [ ("phases", Json.Int r.phases);
            ("gap", Json.Num gap);
            ("converged", Json.Bool r.converged) ];
      x
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      (match e with Cancelled -> Metrics.incr solver.m_cancelled | _ -> ());
      Trace.end_span sp;
      Printexc.raise_with_backtrace e bt
