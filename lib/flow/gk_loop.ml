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

let primal_bound ~phases ~mu = float_of_int phases /. mu

(* The primal value plateaus at roughly λ*(1 - O(eps)), so when the gap
   stalls for [stall_window] phases the loop halves eps, down to [min_eps]. *)
let stall_window = 30
let min_eps = 0.0125
let warm_eps params seed_eps = Float.max min_eps (Float.min params.eps seed_eps)

type stats = { mutable dual_checks : int; mutable eps_halvings : int }

let new_stats () = { dual_checks = 0; eps_halvings = 0 }

let run ~cat ~params ~stats ~eps ~cap ~flow ~lengths ~route ~alpha ~phases
    ~best_dual ~finish =
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
    let mu = congestion ~cap flow in
    let lambda_lo = primal_bound ~phases ~mu in
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
    let converged = ratio <= 1.0 +. params.gap in
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
  phase_loop phases best_dual infinity 0

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
