module Gk_loop = Dcn_flow.Gk_loop
module Mcmf_fptas = Dcn_flow.Mcmf_fptas
module Throughput = Dcn_flow.Throughput
module Metrics = Dcn_obs.Metrics
module Trace = Dcn_obs.Trace
module Clock = Dcn_obs.Clock

(* Cache observability: the hit/miss split with separate latency
   histograms. Hit latency covers lookup + decode (the full cost of being
   answered from disk); miss latency covers only the failed lookup — the
   recompute it triggers is accounted by the solver's own span — and
   publish cost is tracked separately. *)
let m_hits = Metrics.counter "store.hits"
let m_misses = Metrics.counter "store.misses"
let m_hit_s = Metrics.histogram "store.hit_s"
let m_miss_s = Metrics.histogram "store.miss_s"
let m_write_s = Metrics.histogram "store.write_s"

(* Generic lookup/compute/publish. [Store.find] runs [decode]: a payload
   that is torn, or intact but stale or rejected by the codec, is a miss
   there and here alike, and is deleted so the recompute heals it.
   [key ()] runs only when a store is open: without one, nothing needs
   the key. *)
let cached ~key ~encode ~decode compute =
  match Store.shared () with
  | None -> compute ()
  | Some store -> (
      let key = key () in
      let t0 = Clock.now_ns () in
      match Store.find store key ~decode with
      | Some value ->
          if Metrics.enabled () then begin
            Metrics.incr m_hits;
            Metrics.observe m_hit_s (Clock.elapsed_s t0)
          end;
          Trace.instant ~cat:"store" "cache_hit";
          value
      | None ->
          if Metrics.enabled () then begin
            Metrics.incr m_misses;
            Metrics.observe m_miss_s (Clock.elapsed_s t0)
          end;
          Trace.instant ~cat:"store" "cache_miss";
          let value = compute () in
          let tw = Clock.now_ns () in
          Store.add store key (encode value);
          if Metrics.enabled () then
            Metrics.observe m_write_s (Clock.elapsed_s tw);
          value)

let fptas ?(params = Mcmf_fptas.default_params) g cs =
  let key () = Digest_key.of_solve ~kind:"fptas" ~params g cs in
  cached ~key ~encode:Codec.fptas_result_to_string
    ~decode:Codec.fptas_result_of_string (fun () ->
      Mcmf_fptas.solve ~params g cs)

(* ---- warm-started variants ----

   A warm-started solve's result depends on its seed, so its key must name
   the seed: [wl_from] is the content address of the producing entry
   (itself covering {e its} seed, recursively), making the whole chain
   content-addressed. The cached payload carries the full warm state
   bit-exactly, so a chain replayed from cache computes exactly the bits a
   live chain computes — the determinism guarantee survives warm starts. *)

type warm_link = {
  wl_state : Mcmf_fptas.warm_state;
  wl_from : Digest_key.t;
}

(* A state-carrying solve under the "fptas-state" kind, linked to its
   own key. *)
let cached_state ~params ~extras g cs solve =
  let key = Digest_key.of_solve ~kind:"fptas-state" ~params ~extras g cs in
  let st =
    cached ~key:(fun () -> key) ~encode:Codec.fptas_state_to_string
      ~decode:Codec.fptas_state_of_string solve
  in
  (st, { wl_state = st.Mcmf_fptas.warm; wl_from = key })

let fptas_with_state ?(params = Mcmf_fptas.default_params) ?warm g cs =
  let extras =
    match warm with Some w -> [ "warm lengths " ^ w.wl_from ] | None -> []
  in
  cached_state ~params ~extras g cs (fun () ->
      Mcmf_fptas.solve_with_state ~params
        ?warm:(Option.map (fun w -> w.wl_state) warm)
        g cs)

let fptas_delta ?(params = Mcmf_fptas.default_params) ~warm ~failed g cs =
  let extras =
    [
      "warm delta " ^ warm.wl_from;
      "failed " ^ String.concat " " (List.map string_of_int failed);
    ]
  in
  cached_state ~params ~extras g cs (fun () ->
      Mcmf_fptas.resolve_after_failure ~params ~warm:warm.wl_state ~failed g cs)

let fptas_lambda ?params g cs = Gk_loop.midpoint (fptas ?params g cs)

let throughput ?(solver = Throughput.Fptas Mcmf_fptas.default_params) g cs =
  let kind, params =
    match solver with
    | Throughput.Fptas params -> ("throughput-fptas", params)
    (* The exact solver has no parameters; the kind alone namespaces its
       entries and the constant params below are inert key filler. *)
    | Throughput.Exact -> ("throughput-exact", Mcmf_fptas.default_params)
  in
  let key () = Digest_key.of_solve ~kind ~params g cs in
  cached ~key ~encode:Codec.throughput_to_string
    ~decode:Codec.throughput_of_string (fun () ->
      Throughput.compute ~solver g cs)
