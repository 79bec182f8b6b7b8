type t = {
  runs : int;
  params : Dcn_flow.Mcmf_fptas.params;
  dense : bool;
  seed : int;
}

let quick =
  {
    runs = 3;
    params = { Dcn_flow.Mcmf_fptas.eps = 0.1; gap = 0.08; max_phases = 100_000 };
    dense = false;
    seed = 20140402;
  }

let full =
  {
    runs = 20;
    params = Dcn_flow.Mcmf_fptas.default_params;
    dense = true;
    seed = 20140402;
  }

let rng t salt = Random.State.make [| t.seed; salt |]

(* Canonical text of everything that determines a run's numbers. Combined
   with the solver version by Dcn_store.Digest_key.of_run, it names the
   run-manifest directory: two invocations resume each other iff their
   fingerprints agree. *)
let fingerprint t =
  Printf.sprintf "runs %d\neps %s\ngap %s\nmax_phases %d\ndense %b\nseed %d\n"
    t.runs
    (Dcn_util.Float_text.to_string t.params.Dcn_flow.Mcmf_fptas.eps)
    (Dcn_util.Float_text.to_string t.params.Dcn_flow.Mcmf_fptas.gap)
    t.params.Dcn_flow.Mcmf_fptas.max_phases t.dense t.seed

let with_figure name f = Dcn_obs.Context.with_label name f

(* Each run gets its own generator derived from (seed, salt, index), so the
   samples are the same values in the same slots regardless of how many
   domains execute them — parallel results are bit-identical to serial.

   Samples are the observability choke point for every experiment driver:
   each one gets a trace span and an optional progress line, labeled with
   the figure name from {!with_figure}. The label is captured here, on the
   submitting domain, because the sample closures may execute on any pool
   worker. Instrumentation is observational only — the RNG derivation and
   [f] itself are untouched, so results stay bit-identical with it on or
   off. *)
let samples t ~salt f =
  let observing =
    Dcn_obs.Metrics.enabled () || Dcn_obs.Trace.enabled ()
    || Dcn_obs.Progress.enabled ()
  in
  let run i = f (Random.State.make [| t.seed; salt; i |]) in
  let body =
    if not observing then run
    else begin
      let label =
        match Dcn_obs.Context.get () with Some l -> l | None -> "samples"
      in
      fun i ->
        let t0 = Dcn_obs.Clock.now_ns () in
        let v =
          Dcn_obs.Trace.with_span ~cat:"sample" label
            ~args:[ ("salt", Dcn_obs.Json.Int salt); ("run", Dcn_obs.Json.Int i) ]
            (fun () -> run i)
        in
        let dt = Dcn_obs.Clock.elapsed_s t0 in
        if Dcn_obs.Metrics.enabled () then begin
          Dcn_obs.Metrics.incr (Dcn_obs.Metrics.counter "core.samples");
          Dcn_obs.Metrics.observe
            (Dcn_obs.Metrics.histogram "core.sample_s")
            dt
        end;
        if Dcn_obs.Progress.enabled () then begin
          let note =
            match Dcn_store.Store.shared () with
            | None -> ""
            | Some store ->
                let c = Dcn_store.Store.counters store in
                Printf.sprintf "(cache %d hits / %d misses)"
                  c.Dcn_store.Store.hits c.Dcn_store.Store.misses
          in
          Dcn_obs.Progress.sample ~label ~index:(i + 1) ~total:t.runs
            ~seconds:dt ~note
        end;
        v
    end
  in
  Dcn_util.Parallel.map_array body (Array.init t.runs (fun i -> i))

let averaged t ~salt f =
  let values = samples t ~salt f in
  (Dcn_util.Stats.mean values, Dcn_util.Stats.stdev values)
