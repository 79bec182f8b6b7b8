module Table = Dcn_util.Table
module Manifest = Dcn_store.Manifest
module Metrics = Dcn_obs.Metrics

type t = { name : string; description : string; table : Scale.t -> Table.t }

let fig name description table = { name; description; table }

let all =
  [
    fig "fig1a" "RRG throughput vs Theorem-1 bound, N=40, degree sweep"
      Experiments.fig1a;
    fig "fig1b" "RRG ASPL vs Cerf bound, N=40, degree sweep" Experiments.fig1b;
    fig "fig2a" "RRG throughput vs bound, r=10, size sweep" Experiments.fig2a;
    fig "fig2b" "RRG ASPL vs bound, r=10, size sweep" Experiments.fig2b;
    fig "fig3" "ASPL curved steps, degree 4, log-scale sizes" Experiments.fig3;
    fig "fig4a" "server distribution sweep, port ratios"
      Hetero_experiments.fig4a;
    fig "fig4b" "server distribution sweep, small-switch counts"
      Hetero_experiments.fig4b;
    fig "fig4c" "server distribution sweep, oversubscription"
      Hetero_experiments.fig4c;
    fig "fig5" "power-law ports, servers ~ port^beta" Hetero_experiments.fig5;
    fig "fig6a" "cross-cluster sweep, port ratios" Hetero_experiments.fig6a;
    fig "fig6b" "cross-cluster sweep, small-switch counts"
      Hetero_experiments.fig6b;
    fig "fig6c" "cross-cluster sweep, oversubscription"
      Hetero_experiments.fig6c;
    fig "fig7a" "joint sweep, ports 30/10" Hetero_experiments.fig7a;
    fig "fig7b" "joint sweep, ports 30/20" Hetero_experiments.fig7b;
    fig "fig8a" "mixed line-speeds, server splits" Hetero_experiments.fig8a;
    fig "fig8b" "mixed line-speeds, high-speed rates" Hetero_experiments.fig8b;
    fig "fig8c" "mixed line-speeds, high-speed link counts"
      Hetero_experiments.fig8c;
    fig "fig9a" "decomposition along fig4c sweep" Hetero_experiments.fig9a;
    fig "fig9b" "decomposition along fig6c sweep" Hetero_experiments.fig9b;
    fig "fig9c" "decomposition along fig8c sweep" Hetero_experiments.fig9c;
    fig "fig10a" "Eqn-1 bound vs observed, uniform speeds"
      Hetero_experiments.fig10a;
    fig "fig10b" "Eqn-1 bound vs observed, mixed speeds"
      Hetero_experiments.fig10b;
    fig "fig11" "C-bar* thresholds over 18 configs" Hetero_experiments.fig11;
    fig "fig12a" "rewired VL2 capacity ratio" Vl2_study.fig12a;
    fig "fig12b" "chunky traffic on rewired VL2" Vl2_study.fig12b;
    fig "fig12c" "capacity ratio per traffic matrix" Vl2_study.fig12c;
    fig "fig13" "packet-level vs flow-level throughput"
      Packet_experiments.fig13;
    fig "ablation_bisection" "bisection bandwidth vs throughput (par. 6)"
      Ablations.bisection_vs_throughput;
    fig "ablation_eps" "FPTAS certified interval vs exact LP"
      Ablations.fptas_accuracy;
    fig "ablation_topologies" "equal-equipment topology comparison (par. 4)"
      Ablations.equal_equipment_topologies;
    fig "ablation_rrg" "jellyfish vs pairing RRG construction"
      Ablations.rrg_construction;
    fig "ablation_routing" "optimal vs k-shortest vs ECMP vs single path"
      Ablations.routing_restriction;
    fig "ablation_expansion" "incremental expansion vs fresh RRG"
      Ablations.incremental_expansion;
    fig "ablation_local_search" "hill climbing from RRG vs from a ring"
      Ablations.local_search_gain;
    fig "ablation_cabling" "cable shortening at fixed degrees" Ablations.cabling;
    fig "ablation_structured" "BCube/DCell/Dragonfly vs RRG"
      Ablations.structured_topologies;
    fig "ablation_spectral" "expansion quality vs throughput (par. 6.2)"
      Ablations.spectral_vs_throughput;
    fig "ablation_proportionality" "a2a bounds other workloads (par. 9)"
      Ablations.traffic_proportionality;
    fig "ablation_vlb" "Valiant load balancing vs optimal routing"
      Ablations.vlb_routing;
    fig "ablation_transport" "Reno vs DCTCP transport in the packet sim"
      Ablations.transport_comparison;
    fig "ablation_failures" "link-failure resilience: RRG vs fat-tree"
      Ablations.failure_resilience;
    fig "ablation_multiclass"
      "3-class placement exponent sweep (par. 9 future work)"
      Ablations.multi_class_placement;
  ]

type result = {
  figure : t;
  table_text : string;
  csv_text : string;
  seconds : float;
  resumed : bool;
  metrics : Metrics.snapshot option;
}

let table_artifact figure = figure.name ^ ".table"
let csv_artifact figure = figure.name ^ ".csv"

(* The figure name labels the observability layer: a span per figure,
   and (via Scale.with_figure) every sample span and progress line
   underneath it. *)
let compute scale figure =
  let rollup = Metrics.enabled () && not (Dcn_util.Pool.enabled ()) in
  let before = if rollup then Some (Metrics.snapshot ()) else None in
  let t0 = Dcn_obs.Clock.now_ns () in
  let table =
    Scale.with_figure figure.name (fun () ->
        Dcn_obs.Trace.with_span ~cat:"figure" figure.name (fun () ->
            figure.table scale))
  in
  let seconds = Dcn_obs.Clock.elapsed_s t0 in
  {
    figure;
    table_text = Format.asprintf "%a@." Table.pp table;
    csv_text = Table.to_csv table;
    seconds;
    resumed = false;
    metrics =
      Option.map
        (fun before -> Metrics.diff ~before ~after:(Metrics.snapshot ()))
        before;
  }

let run_dir store scale =
  Manifest.dir ~store ~fingerprint:(Scale.fingerprint scale)

let replay ~dir figure =
  match
    List.find_opt
      (fun e -> e.Manifest.target = figure.name)
      (Manifest.load ~dir)
  with
  | None -> None
  | Some entry -> (
      match
        ( Manifest.read_artifact ~dir ~name:(table_artifact figure),
          Manifest.read_artifact ~dir ~name:(csv_artifact figure) )
      with
      | Some table_text, Some csv_text ->
          Some
            {
              figure;
              table_text;
              csv_text;
              seconds = entry.Manifest.seconds;
              resumed = true;
              metrics = None;
            }
      | _ -> None)

let record ~dir r =
  Manifest.write_artifact ~dir ~name:(table_artifact r.figure) r.table_text;
  Manifest.write_artifact ~dir ~name:(csv_artifact r.figure) r.csv_text;
  Manifest.mark_done ~dir
    { Manifest.target = r.figure.name; seconds = r.seconds }

let run ~resume ~emit scale figures =
  (* The run manifest is written whenever a store is installed, so any
     later resume can pick up this invocation. *)
  let dir =
    Option.map (fun store -> run_dir store scale) (Dcn_store.Store.shared ())
  in
  let replayed, to_compute =
    List.partition_map
      (fun figure ->
        match dir with
        | Some dir when resume -> (
            match replay ~dir figure with
            | Some r -> Left r
            | None -> Right figure)
        | _ -> Right figure)
      figures
  in
  let finish r =
    emit r;
    Option.iter (fun dir -> record ~dir r) dir
  in
  List.iter emit replayed;
  let computed =
    if Dcn_util.Pool.enabled () then begin
      (* Rendered strings keep parallel output un-interleaved: collect in
         order, then emit. *)
      let rs = Dcn_util.Parallel.map (compute scale) to_compute in
      List.iter finish rs;
      rs
    end
    else
      List.map
        (fun figure ->
          let r = compute scale figure in
          finish r;
          r)
        to_compute
  in
  replayed @ computed
