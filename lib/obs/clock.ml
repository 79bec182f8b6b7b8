external now_ns : unit -> (int64[@unboxed])
  = "dcn_obs_now_ns_byte" "dcn_obs_now_ns_unboxed"
[@@noalloc]

let seconds_between t0 t1 =
  Float.max 0.0 (Int64.to_float (Int64.sub t1 t0) /. 1e9)

let elapsed_s t0 = seconds_between t0 (now_ns ())

(* 2^62 ns is about 146 years: beyond any deadline, and small enough that
   adding it to a monotonic timestamp cannot overflow. *)
let max_span_ns = 0x4000_0000_0000_0000L

let ns_of_s s =
  let ns = s *. 1e9 in
  if Float.is_nan ns then 0L
  else if ns >= Int64.to_float max_span_ns then max_span_ns
  else if ns <= -.Int64.to_float max_span_ns then Int64.neg max_span_ns
  else Int64.of_float ns
