(* Load generator for the solve server.

   Deterministic by construction: request i carries body i mod V (round
   robin over the variant bodies), so a fixed (requests, variants) pair
   always produces the same request mix — the CI smoke test relies on
   this to predict the server's cache-miss count exactly. Scheduling is
   open-loop when a target QPS is set (request i is released at
   t0 + i/qps, independent of responses — the standard way to measure
   latency under load without coordinated omission) and closed-loop
   otherwise (each thread fires as fast as its responses return).

   Each worker thread holds one persistent keep-alive connection
   (Http.conn) and reuses it across its requests. The report's
   reuse_rate (1 - connects/requests) is how the CI smoke test asserts
   keep-alive actually held across a burst.

   Latency percentiles are bucketed through the same fixed-grid machinery
   as the server's own histograms (Metrics.bucket_index /
   histogram_quantile), so a report's p99 and the /metrics p99 are
   computed identically. *)

module Metrics = Dcn_obs.Metrics
module Clock = Dcn_obs.Clock

type row = { status : int; latency_s : float; body : string }

type report = {
  total : int;
  by_status : (int * int) list;  (* status -> count; 0 = connection error *)
  p50 : float;
  p95 : float;
  p99 : float;
  max_s : float;
  duplicates_identical : bool;
  elapsed_s : float;
  connects : int;
  reuse_rate : float;
  bound_responses : int;
  rps : float;
}

(* Finer than the registry's default latency grid at the fast end:
   warm-cache responses are sub-millisecond. *)
let latency_bounds =
  [| 1e-4; 3e-4; 1e-3; 3e-3; 1e-2; 3e-2; 0.1; 0.3; 1.0; 3.0; 10.0; 30.0; 60.0 |]

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  if n = 0 then true
  else begin
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i <= m - n do
      if String.sub s !i n = sub then found := true else incr i
    done;
    !found
  end

(* The shed tier marks its bodies "tier": "bound" (Shed.bound_body uses
   exactly this spelling, as solve_body does for "fptas"). *)
let is_bound_body body = contains ~sub:"\"tier\": \"bound\"" body

let run ~host ~port ~bodies ~requests ~concurrency ~qps () =
  if Array.length bodies = 0 then invalid_arg "Load_gen.run: no request bodies";
  if requests < 1 then invalid_arg "Load_gen.run: requests < 1";
  let concurrency = max 1 (min concurrency requests) in
  let rows = Array.make requests { status = 0; latency_s = 0.0; body = "" } in
  let connects = Atomic.make 0 in
  let t0 = Clock.now_ns () in
  let pace i =
    (* Open-loop release schedule. *)
    if qps > 0.0 then begin
      let due = float_of_int i /. qps in
      let wait = due -. Clock.elapsed_s t0 in
      if wait > 0.0 then Thread.delay wait
    end
  in
  (* Thread t owns slots t, t+concurrency, ... — no slot is shared. *)
  let worker t =
    let c = Http.conn_create ~host ~port () in
    let i = ref t in
    while !i < requests do
      pace !i;
      let sent = Clock.now_ns () in
      let status, body =
        match
          Http.conn_request c ~meth:"POST" ~target:"/solve"
            ~body:bodies.(!i mod Array.length bodies) ()
        with
        | Ok r -> r
        | Error _ -> (0, "")
      in
      rows.(!i) <- { status; latency_s = Clock.elapsed_s sent; body };
      i := !i + concurrency
    done;
    ignore (Atomic.fetch_and_add connects (Http.conn_connects c));
    Http.conn_close c
  in
  let threads = List.init concurrency (fun t -> Thread.create worker t) in
  List.iter Thread.join threads;
  let elapsed_s = Clock.elapsed_s t0 in
  let by_status =
    Array.fold_left
      (fun acc r ->
        match List.assoc_opt r.status acc with
        | Some n -> (r.status, n + 1) :: List.remove_assoc r.status acc
        | None -> (r.status, 1) :: acc)
      [] rows
    |> List.sort compare
  in
  (* Same bucketing as the server's histograms, then the shared quantile
     estimator. *)
  let counts = Array.make (Array.length latency_bounds + 1) 0 in
  let max_s = ref 0.0 in
  let bound_responses = ref 0 in
  Array.iter
    (fun r ->
      let b = Metrics.bucket_index latency_bounds r.latency_s in
      counts.(b) <- counts.(b) + 1;
      max_s := Float.max !max_s r.latency_s;
      if r.status >= 200 && r.status <= 299 && is_bound_body r.body then
        incr bound_responses)
    rows;
  let q p = Metrics.histogram_quantile ~bounds:latency_bounds ~counts p in
  (* Byte-identity: within a variant AND serving tier, every 2xx body
     must be the same string — whether it came from the leader, a
     coalesced rider, the hot cache, or the result store. Bound-tier
     bodies legitimately differ from full-tier bodies for the same
     variant (that is the point of the tier marker), so each tier is
     compared against itself. *)
  let duplicates_identical =
    let variants = Array.length bodies in
    let seen_full = Array.make variants None in
    let seen_bound = Array.make variants None in
    Array.to_seq rows
    |> Seq.mapi (fun i r -> (i mod variants, r))
    |> Seq.for_all (fun (v, r) ->
           if r.status < 200 || r.status > 299 then true
           else begin
             let seen = if is_bound_body r.body then seen_bound else seen_full in
             match seen.(v) with
             | None ->
                 seen.(v) <- Some r.body;
                 true
             | Some first -> String.equal first r.body
           end)
  in
  let connects = Atomic.get connects in
  ( {
      total = requests;
      by_status;
      p50 = q 0.5;
      p95 = q 0.95;
      p99 = q 0.99;
      max_s = !max_s;
      duplicates_identical;
      elapsed_s;
      connects;
      reuse_rate =
        Float.max 0.0 (1.0 -. (float_of_int connects /. float_of_int requests));
      bound_responses = !bound_responses;
      rps = float_of_int requests /. Float.max 1e-9 elapsed_s;
    },
    rows )

let print_report r =
  Printf.printf "requests  : %d in %.2fs (%.1f/s)\n" r.total r.elapsed_s r.rps;
  List.iter
    (fun (status, n) ->
      if status = 0 then Printf.printf "  errors  : %d (connection failed)\n" n
      else Printf.printf "  HTTP %d: %d\n" status n)
    r.by_status;
  Printf.printf "latency   : p50 %.4fs  p95 %.4fs  p99 %.4fs  max %.4fs\n" r.p50
    r.p95 r.p99 r.max_s;
  Printf.printf "conns     : %d connect(s), reuse rate %.3f\n" r.connects
    r.reuse_rate;
  if r.bound_responses > 0 then
    Printf.printf "shed      : %d bound-tier response(s)\n" r.bound_responses;
  Printf.printf "duplicates: %s\n"
    (if r.duplicates_identical then "byte-identical" else "MISMATCH")
