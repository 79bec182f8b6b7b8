module Metrics = Dcn_obs.Metrics
module Trace = Dcn_obs.Trace
module Json = Dcn_obs.Json

(* Pivot-level observability, tallied locally during a solve and flushed
   to the registry once at the end. (A dense tableau has no basis
   refactorization step — the whole tableau is updated on every pivot —
   so unlike a revised simplex there is no refactorization counter.) *)
let m_solves = Metrics.counter "simplex.solves"
let m_pivots = Metrics.counter "simplex.pivots"
let m_degenerate = Metrics.counter "simplex.degenerate_pivots"
let m_bland = Metrics.counter "simplex.bland_pivots"
let m_solve_s = Metrics.histogram "simplex.solve_s"

type pivot_stats = {
  mutable pivots : int;
  mutable degenerate : int;  (* leaving ratio ~ 0: objective cannot move *)
  mutable bland : int;  (* pivots taken under Bland's anti-cycling rule *)
}

type relation = Le | Eq | Ge

type problem = {
  objective : float array;
  rows : (float array * relation * float) list;
}

type solution = { objective_value : float; variables : float array }

type outcome = Optimal of solution | Infeasible | Unbounded

let eps = 1e-9

(* Mutable tableau.
   [a] is m x (ncols+1); column [ncols] is the right-hand side.
   [obj] has the same width; obj.(ncols) is the current objective value.
   The invariant after every pivot: for each row i, column basis.(i) is a
   unit column and obj.(basis.(i)) = 0. *)
type tableau = {
  m : int;
  ncols : int;
  a : float array array;
  obj : float array;
  basis : int array;
  blocked : bool array; (* columns barred from entering (artificials in phase 2) *)
}

let validate p =
  let n = Array.length p.objective in
  if Array.exists (fun c -> Float.is_nan c) p.objective then
    invalid_arg "Simplex: NaN in objective";
  List.iter
    (fun (coeffs, _, b) ->
      if Array.length coeffs <> n then
        invalid_arg "Simplex: row width mismatch";
      if Float.is_nan b || Array.exists Float.is_nan coeffs then
        invalid_arg "Simplex: NaN in constraint")
    p.rows;
  n

let pivot t ~row ~col =
  let arow = t.a.(row) in
  let p = arow.(col) in
  for j = 0 to t.ncols do
    arow.(j) <- arow.(j) /. p
  done;
  let eliminate target =
    let f = target.(col) in
    if Float.abs f > 0.0 then
      for j = 0 to t.ncols do
        target.(j) <- target.(j) -. (f *. arow.(j))
      done
  in
  for i = 0 to t.m - 1 do
    if i <> row then eliminate t.a.(i)
  done;
  eliminate t.obj;
  t.basis.(row) <- col

(* One simplex run on the current objective row. Returns `Optimal or
   `Unbounded. Uses Dantzig pricing, falling back to Bland's rule (which
   cannot cycle) after [bland_after] iterations. *)
let run t ~max_iterations ~stats =
  let bland_after = max 200 (10 * (t.m + t.ncols)) in
  let choose_entering ~bland =
    if bland then begin
      let rec first j =
        if j >= t.ncols then None
        else if (not t.blocked.(j)) && t.obj.(j) < -.eps then Some j
        else first (j + 1)
      in
      first 0
    end
    else begin
      let best = ref (-1) and best_val = ref (-.eps) in
      for j = 0 to t.ncols - 1 do
        if (not t.blocked.(j)) && t.obj.(j) < !best_val then begin
          best := j;
          best_val := t.obj.(j)
        end
      done;
      if !best < 0 then None else Some !best
    end
  in
  let choose_leaving col ~bland =
    let best = ref (-1) and best_ratio = ref infinity in
    for i = 0 to t.m - 1 do
      let aij = t.a.(i).(col) in
      if aij > eps then begin
        let ratio = t.a.(i).(t.ncols) /. aij in
        let better =
          ratio < !best_ratio -. eps
          || (ratio < !best_ratio +. eps
             && !best >= 0
             && (if bland then t.basis.(i) < t.basis.(!best)
                 else aij > t.a.(!best).(col)))
        in
        if !best < 0 || better then begin
          best := i;
          best_ratio := ratio
        end
      end
    done;
    if !best < 0 then None else Some !best
  in
  let rec loop iter =
    if iter > max_iterations then
      failwith "Simplex: iteration limit exceeded (suspected bug)";
    let bland = iter > bland_after in
    match choose_entering ~bland with
    | None -> `Optimal
    | Some col -> (
        match choose_leaving col ~bland with
        | None -> `Unbounded
        | Some row ->
            stats.pivots <- stats.pivots + 1;
            if bland then stats.bland <- stats.bland + 1;
            if t.a.(row).(t.ncols) /. t.a.(row).(col) <= eps then
              stats.degenerate <- stats.degenerate + 1;
            pivot t ~row ~col;
            loop (iter + 1))
  in
  loop 0

let solve_impl ~max_iterations ~stats p =
  let n = validate p in
  let m = List.length p.rows in
  (* Normalize to non-negative right-hand sides. *)
  let rows =
    List.map
      (fun (coeffs, rel, b) ->
        if b < 0.0 then
          ( Array.map (fun c -> -.c) coeffs,
            (match rel with Le -> Ge | Ge -> Le | Eq -> Eq),
            -.b )
        else (coeffs, rel, b))
      p.rows
  in
  (* Column layout: structural | slacks & surpluses | artificials. *)
  let num_slack =
    List.fold_left
      (fun acc (_, rel, _) -> match rel with Le | Ge -> acc + 1 | Eq -> acc)
      0 rows
  in
  let num_art =
    List.fold_left
      (fun acc (_, rel, _) -> match rel with Ge | Eq -> acc + 1 | Le -> acc)
      0 rows
  in
  let ncols = n + num_slack + num_art in
  let a = Array.init m (fun _ -> Array.make (ncols + 1) 0.0) in
  let basis = Array.make m (-1) in
  let art_cols = ref [] in
  let slack_cursor = ref n and art_cursor = ref (n + num_slack) in
  List.iteri
    (fun i (coeffs, rel, b) ->
      Array.blit coeffs 0 a.(i) 0 n;
      a.(i).(ncols) <- b;
      (match rel with
      | Le ->
          a.(i).(!slack_cursor) <- 1.0;
          basis.(i) <- !slack_cursor;
          incr slack_cursor
      | Ge ->
          a.(i).(!slack_cursor) <- -1.0;
          incr slack_cursor;
          a.(i).(!art_cursor) <- 1.0;
          basis.(i) <- !art_cursor;
          art_cols := !art_cursor :: !art_cols;
          incr art_cursor
      | Eq ->
          a.(i).(!art_cursor) <- 1.0;
          basis.(i) <- !art_cursor;
          art_cols := !art_cursor :: !art_cols;
          incr art_cursor))
    rows;
  let is_artificial = Array.make ncols false in
  List.iter (fun j -> is_artificial.(j) <- true) !art_cols;
  let t =
    { m; ncols; a; obj = Array.make (ncols + 1) 0.0; basis;
      blocked = Array.make ncols false }
  in
  (* Phase 1: maximize -(sum of artificials). Reduced costs start at +1 on
     artificial columns; make them consistent with the starting basis by
     subtracting each artificial's row. *)
  if num_art > 0 then begin
    List.iter (fun j -> t.obj.(j) <- 1.0) !art_cols;
    for i = 0 to m - 1 do
      if is_artificial.(basis.(i)) then
        for j = 0 to ncols do
          t.obj.(j) <- t.obj.(j) -. t.a.(i).(j)
        done
    done;
    match run t ~max_iterations ~stats with
    | `Unbounded -> failwith "Simplex: phase 1 unbounded (bug)"
    | `Optimal -> ()
  end;
  let phase1_value = -.t.obj.(ncols) in
  if num_art > 0 && phase1_value > 1e-7 then Infeasible
  else begin
    (* Drive any remaining (degenerate) artificials out of the basis. *)
    for i = 0 to m - 1 do
      if is_artificial.(t.basis.(i)) then begin
        let found = ref false in
        let j = ref 0 in
        while (not !found) && !j < ncols do
          if (not is_artificial.(!j)) && Float.abs t.a.(i).(!j) > 1e-7 then begin
            stats.pivots <- stats.pivots + 1;
            stats.degenerate <- stats.degenerate + 1;
            pivot t ~row:i ~col:!j;
            found := true
          end;
          incr j
        done
        (* If no pivot exists the row is redundant; the artificial stays
           basic at value 0 and its column is blocked below, so it can
           never become positive again. *)
      end
    done;
    Array.iteri (fun j art -> if art then t.blocked.(j) <- true) is_artificial;
    (* Phase 2 objective: maximize c.x, i.e. reduced costs start at -c. *)
    Array.fill t.obj 0 (ncols + 1) 0.0;
    for j = 0 to n - 1 do
      t.obj.(j) <- -.p.objective.(j)
    done;
    for i = 0 to m - 1 do
      let b = t.basis.(i) in
      let coeff = t.obj.(b) in
      if Float.abs coeff > 0.0 then
        for j = 0 to ncols do
          t.obj.(j) <- t.obj.(j) -. (coeff *. t.a.(i).(j))
        done
    done;
    match run t ~max_iterations ~stats with
    | `Unbounded -> Unbounded
    | `Optimal ->
        let x = Array.make n 0.0 in
        for i = 0 to m - 1 do
          if t.basis.(i) < n then x.(t.basis.(i)) <- t.a.(i).(ncols)
        done;
        Optimal { objective_value = t.obj.(ncols); variables = x }
  end

let solve ?max_iterations p =
  let sp = Trace.begin_span ~cat:"solver" "simplex.solve" in
  let t0 = Dcn_obs.Clock.now_ns () in
  let stats = { pivots = 0; degenerate = 0; bland = 0 } in
  let max_iterations =
    match max_iterations with
    | Some k -> k
    | None ->
        let m = List.length p.rows and n = Array.length p.objective in
        max 10_000 (200 * (m + n) * 4)
  in
  match solve_impl ~max_iterations ~stats p with
  | outcome ->
      if Metrics.enabled () then begin
        Metrics.incr m_solves;
        Metrics.add m_pivots stats.pivots;
        Metrics.add m_degenerate stats.degenerate;
        Metrics.add m_bland stats.bland;
        Metrics.observe m_solve_s (Dcn_obs.Clock.elapsed_s t0)
      end;
      Trace.end_span sp
        ~args:
          [ ("pivots", Json.Int stats.pivots);
            ("degenerate", Json.Int stats.degenerate);
            ("outcome",
             Json.Str
               (match outcome with
               | Optimal _ -> "optimal"
               | Infeasible -> "infeasible"
               | Unbounded -> "unbounded")) ];
      outcome
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Trace.end_span sp;
      Printexc.raise_with_backtrace e bt

let check_feasible ?(tol = 1e-6) p x =
  let dot coeffs =
    let acc = ref 0.0 in
    Array.iteri (fun j c -> acc := !acc +. (c *. x.(j))) coeffs;
    !acc
  in
  Array.for_all (fun v -> v >= -.tol) x
  && List.for_all
       (fun (coeffs, rel, b) ->
         let lhs = dot coeffs in
         match rel with
         | Le -> lhs <= b +. tol
         | Ge -> lhs >= b -. tol
         | Eq -> Float.abs (lhs -. b) <= tol)
       p.rows
