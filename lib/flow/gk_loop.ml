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

(* The primal value plateaus at roughly λ*(1 - O(eps)), so when the gap
   stalls for [stall_window] phases the loop halves eps, down to [min_eps]. *)
let stall_window = 30
let min_eps = 0.0125
let warm_eps params seed_eps = Float.max min_eps (Float.min params.eps seed_eps)

(* Coarse to fine: a cold solve starts at twice the requested step (kept
   below 1), which lifts the early lengths fastest, and leaves it after a
   short stall of [coarse_window] phases. Neither certificate depends on
   the step, so the schedule moves only the phase count. *)
let coarse_window = 8
let start_eps params = Float.min (2.0 *. params.eps) (Float.max params.eps 0.5)

(* The first halving lands on the requested step; later ones halve down to
   [min_eps]. A step at or below both is final. *)
let can_halve params eps = eps > Float.min params.eps min_eps

let halved params eps =
  if eps > params.eps then Float.max params.eps (eps /. 2.0)
  else Float.max min_eps (eps /. 2.0)

type stats = {
  mutable routed : int;
  mutable discarded : int;
  mutable eps_halvings : int;
  mutable window : int;
  mutable route_ns : int;
  mutable dual_ns : int;
  mutable route_wait_ns : int;
}

(* Stage timers read the clock only when metrics are on. *)
let tick () = if Metrics.enabled () then Dcn_obs.Clock.now_ns () else 0L

let ns_since t0 =
  if Int64.equal t0 0L then 0
  else Int64.to_int (Int64.sub (Dcn_obs.Clock.now_ns ()) t0)

(* Windowed primal certificates. Every phase ships exactly [d] for every
   commodity, so the flow added after phase [at] is itself a
   multicommodity flow of [(p - at)·d], certified by its own congestion.
   Early phases route on poor lengths and dominate the whole-history
   congestion; a window that drops them certifies sooner. [copy] is
   [flow] as it stood after phase [at]. *)
type snap = { mutable at : int; copy : float array }

(* Snapshots are taken [window_base·2^k] phases after the loop's start;
   the two newest are kept. *)
let window_base = 5

let run ~cat ~params ~stats ~eps ~cap ~flow ~lengths ~route ~step ~settle
    ~best_dual ~finish =
  let m = Array.length cap in
  (* [lengths] and [flow] as they stood when the last phase was
     certified: the sweep reads the first while the next phase is routed
     on the live arrays, and a rollback restores both. *)
  let frozen = Array.make m 0.0 and certified_flow = Array.make m 0.0 in
  let rollback () =
    Array.blit frozen 0 lengths 0 m;
    Array.blit certified_flow 0 flow 0 m;
    stats.discarded <- stats.discarded + 1;
    settle ~keep:false
  in
  let older = ref None and newer = ref None in
  (* The next snapshot's phase. *)
  let next_snap = ref window_base in
  let take_snapshot phases =
    (* Only the two newest snapshots are kept, so the third reuses the
       oldest's buffer: no allocation after the second. *)
    let s =
      match !older with
      | Some s -> s
      | None -> { at = 0; copy = Array.make m 0.0 }
    in
    s.at <- phases;
    Array.blit certified_flow 0 s.copy 0 m;
    older := !newer;
    newer := Some s
  in
  (* An absent snapshot reads as [flow] itself: an empty window. *)
  let snap_flow = function Some s -> s.copy | None -> flow in
  (* [mus] = whole-history, older-window and newer-window congestion. *)
  let mus = Array.make 3 0.0 in
  let congestions () =
    let so = snap_flow !older and sn = snap_flow !newer in
    let mu = ref 0.0 and mu_o = ref 0.0 and mu_n = ref 0.0 in
    for a = 0 to m - 1 do
      let c = Array.unsafe_get cap a in
      if c > 0.0 then begin
        let f = Array.unsafe_get flow a in
        mu := Float.max !mu (f /. c);
        mu_o := Float.max !mu_o ((f -. Array.unsafe_get so a) /. c);
        mu_n := Float.max !mu_n ((f -. Array.unsafe_get sn a) /. c)
      end
    done;
    mus.(0) <- !mu;
    mus.(1) <- !mu_o;
    mus.(2) <- !mu_n
  in
  (* The best primal certificate after [phases] phases: [λ_lo] and the
     winning snapshot ([None] for the whole history, which wins ties). *)
  let lo = ref 0.0 and win = ref None and win_mu = ref 0.0 in
  let consider phases i = function
    | Some s when mus.(i) > 0.0 ->
        let l = float_of_int (phases - s.at) /. mus.(i) in
        if l > !lo then begin
          lo := l;
          win := Some s;
          win_mu := mus.(i)
        end
    | _ -> ()
  in
  let certify phases =
    congestions ();
    lo := float_of_int phases /. mus.(0);
    win := None;
    win_mu := mus.(0);
    consider phases 1 !older;
    consider phases 2 !newer
  in
  let window () = match !win with Some s -> s.at | None -> 0 in
  (* Hand the certified flow to [finish]: a winning window's buffer becomes
     [flow − snapshot] in place, [flow] itself stays the whole history. *)
  let finish_with ~phases ~hi ~converged =
    let certified =
      match !win with
      | None -> flow
      | Some s ->
          for a = 0 to m - 1 do
            s.copy.(a) <- flow.(a) -. s.copy.(a)
          done;
          s.copy
    in
    stats.window <- window ();
    finish ~flow:certified ~phases ~lo:!lo ~hi ~mu:!win_mu ~converged
  in
  (* [ahead]: the phase was already routed, by the last step. *)
  let rec phase_loop ~ahead phases best_dual last_ratio stalled =
    (* Deadline check between phases: all flow and length state is
       consistent here, so [Cancelled] aborts with no partial phase. *)
    check_cancelled ();
    (* One span per kept phase: the trace's phase-span count equals the
       number of phases this call routed and kept (cross-checked by the
       test suite). The span of phase [p] holds its rescale, certificate
       and dual sweep, and the routing of phase [p + 1] done in its step;
       a phase routed ahead has no routing of its own in its span. *)
    let sp_phase = Trace.begin_span ~cat "phase" in
    if not ahead then begin
      let t0 = tick () in
      route ();
      stats.route_ns <- stats.route_ns + ns_since t0
    end;
    rescale_lengths lengths;
    let phases = phases + 1 in
    stats.routed <- stats.routed + 1;
    certify phases;
    Array.blit lengths 0 frozen 0 m;
    Array.blit flow 0 certified_flow 0 m;
    (* The step's routing time is [route_ns]'s; the rest is the sweep's. *)
    let t0 = tick () and routed_ns = stats.route_ns in
    let a = step ~lengths:frozen in
    stats.dual_ns <- stats.dual_ns + ns_since t0 - (stats.route_ns - routed_ns);
    let best_dual =
      Float.min best_dual (dual_bound ~volume:(volume ~cap frozen) ~alpha:a)
    in
    let ratio = best_dual /. !lo in
    (* Trace arguments are built only when tracing is on, so a phase
       allocates nothing for them otherwise. *)
    if Trace.enabled () then begin
      let args = [ ("phase", Json.Int phases); ("ratio", Json.Num ratio) ] in
      Trace.instant ~cat "dual_check"
        ~args:
          (args
          @ [ ("lo", Json.Num !lo); ("hi", Json.Num best_dual);
              ("window", Json.Int (window ())); ("eps", Json.Num !eps) ]);
      Trace.end_span sp_phase ~args
    end;
    let converged = ratio <= 1.0 +. params.gap in
    (* Out of budget, the interval is still a valid certificate, just
       wider than asked; callers can inspect [converged] and the realized
       gap. *)
    if converged || phases >= params.max_phases then begin
      rollback ();
      finish_with ~phases ~hi:best_dual ~converged
    end
    else begin
      if phases = !next_snap then begin
        take_snapshot phases;
        next_snap := 2 * !next_snap
      end;
      (* "Meaningful progress" = the gap shrank by at least 1% of its
         distance to target this phase; anything slower counts as a stall. *)
      let progress_step = Float.max 5e-4 (0.01 *. (ratio -. 1.0 -. params.gap)) in
      let stalled = if ratio > last_ratio -. progress_step then stalled + 1 else 0 in
      let last_ratio = Float.min last_ratio ratio in
      let window = if !eps > params.eps then coarse_window else stall_window in
      if stalled >= window && can_halve params !eps then begin
        (* The phase routed ahead used the old step: route it again. *)
        rollback ();
        stats.eps_halvings <- stats.eps_halvings + 1;
        eps := halved params !eps;
        phase_loop ~ahead:false phases best_dual last_ratio 0
      end
      else begin
        settle ~keep:true;
        phase_loop ~ahead:true phases best_dual last_ratio stalled
      end
    end
  in
  phase_loop ~ahead:false 0 best_dual infinity 0

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
  m_window_wins : Metrics.counter;
  m_phases_discarded : Metrics.counter;
  m_route_ns : Metrics.counter;
  m_dual_ns : Metrics.counter;
  m_route_wait_ns : Metrics.counter;
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
    m_window_wins = counter "window_wins";
    m_phases_discarded = counter "phases_discarded";
    m_route_ns = counter "route_ns";
    m_dual_ns = counter "dual_ns";
    m_route_wait_ns = counter "route_wait_ns";
    m_last_gap = Metrics.gauge (cat ^ ".last_gap");
    m_solve_s = Metrics.histogram (cat ^ ".solve_s");
  }

let solve solver ~result ?(flush = ignore) f =
  let sp = Trace.begin_span ~cat:"solver" (solver.cat ^ ".solve") in
  let t0 = Dcn_obs.Clock.now_ns () in
  let stats =
    {
      routed = 0;
      discarded = 0;
      eps_halvings = 0;
      window = 0;
      route_ns = 0;
      dual_ns = 0;
      route_wait_ns = 0;
    }
  in
  match f stats with
  | x ->
      let r = result x in
      let gap = (r.lambda_upper /. r.lambda_lower) -. 1.0 in
      if Metrics.enabled () then begin
        Metrics.incr solver.m_solves;
        Metrics.add solver.m_phases stats.routed;
        (* Every kept phase ends in one dual check. *)
        Metrics.add solver.m_dual_checks stats.routed;
        Metrics.add solver.m_eps_halvings stats.eps_halvings;
        if stats.window > 0 then Metrics.incr solver.m_window_wins;
        Metrics.add solver.m_phases_discarded stats.discarded;
        Metrics.add solver.m_route_ns stats.route_ns;
        Metrics.add solver.m_dual_ns stats.dual_ns;
        Metrics.add solver.m_route_wait_ns stats.route_wait_ns;
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
