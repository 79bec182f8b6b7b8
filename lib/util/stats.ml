let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let stdev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun a x -> a +. ((x -. m) ** 2.0)) 0.0 xs in
    sqrt (acc /. float_of_int (n - 1))
  end

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0))
    xs

let sorted_copy xs =
  let ys = Array.copy xs in
  Array.sort compare ys;
  ys

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: empty";
  let ys = sorted_copy xs in
  if n mod 2 = 1 then ys.(n / 2) else (ys.((n / 2) - 1) +. ys.(n / 2)) /. 2.0

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let ys = sorted_copy xs in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then ys.(lo)
  else begin
    let w = rank -. float_of_int lo in
    (ys.(lo) *. (1.0 -. w)) +. (ys.(hi) *. w)
  end

let mean_ci95 xs =
  let n = Array.length xs in
  let m = mean xs in
  if n < 2 then (m, 0.0)
  else (m, 1.96 *. stdev xs /. sqrt (float_of_int n))

type summary = {
  mean : float;
  stdev : float;
  min : float;
  max : float;
  count : int;
}

let summarize xs =
  if Array.length xs = 0 then invalid_arg "Stats.summarize: empty";
  let lo, hi = min_max xs in
  { mean = mean xs; stdev = stdev xs; min = lo; max = hi; count = Array.length xs }
