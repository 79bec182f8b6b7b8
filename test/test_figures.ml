(* Tests for the figure registry and its manifest pipeline: a recorded
   figure replays byte for byte, a half-written run directory degrades to
   a recompute, and the registry covers every figure both front ends ever
   offered. *)

module Figures = Core.Figures
module Scale = Core.Scale
module Manifest = Dcn_store.Manifest

let scale = Scale.quick

(* fig1b (ASPL vs the Cerf bound) solves nothing, so it is the cheapest
   real figure to push through the pipeline. *)
let cheap () =
  List.find (fun f -> f.Figures.name = "fig1b") Figures.all

let check_same_artifacts (computed : Figures.result) (replayed : Figures.result) =
  Alcotest.(check string) "table text" computed.Figures.table_text
    replayed.Figures.table_text;
  Alcotest.(check string) "csv text" computed.Figures.csv_text
    replayed.Figures.csv_text;
  Alcotest.(check bool) "marked resumed" true replayed.Figures.resumed;
  Alcotest.(check (float 0.0)) "original seconds" computed.Figures.seconds
    replayed.Figures.seconds

let test_record_replay () =
  Test_store.with_store (fun store ->
      let figure = cheap () in
      let dir = Figures.run_dir store scale in
      Alcotest.(check bool) "nothing to replay yet" true
        (Option.is_none (Figures.replay ~dir figure));
      let computed = Figures.compute scale figure in
      Figures.record ~dir computed;
      match Figures.replay ~dir figure with
      | None -> Alcotest.fail "recorded figure did not replay"
      | Some replayed -> check_same_artifacts computed replayed)

let test_replay_needs_both_artifacts () =
  Test_store.with_store (fun store ->
      let figure = cheap () in
      let dir = Figures.run_dir store scale in
      Figures.record ~dir (Figures.compute scale figure);
      Sys.remove (Filename.concat dir "fig1b.csv");
      Alcotest.(check bool) "missing csv: recompute" true
        (Option.is_none (Figures.replay ~dir figure));
      (* A done line whose artifacts were never written (a crash between
         the two, or a hand-edited manifest). *)
      let fig1a = List.find (fun f -> f.Figures.name = "fig1a") Figures.all in
      Manifest.mark_done ~dir { Manifest.target = "fig1a"; seconds = 1.0 };
      Alcotest.(check bool) "no artifacts: recompute" true
        (Option.is_none (Figures.replay ~dir fig1a)))

let test_run_resumes () =
  Test_store.with_shared_store (fun _store ->
      let figure = cheap () in
      let emitted = ref [] in
      let emit r = emitted := r :: !emitted in
      let first = Figures.run ~resume:false ~emit scale [ figure ] in
      let second = Figures.run ~resume:true ~emit scale [ figure ] in
      Alcotest.(check int) "one emit per run" 2 (List.length !emitted);
      match (first, second) with
      | [ computed ], [ replayed ] ->
          Alcotest.(check bool) "first run computes" false
            computed.Figures.resumed;
          check_same_artifacts computed replayed
      | _ -> Alcotest.fail "one result per figure expected")

(* Every name the two front ends listed before they shared the registry:
   bench's 42 targets, a superset of topobench figure's 27. *)
let legacy_names =
  [ "fig1a"; "fig1b"; "fig2a"; "fig2b"; "fig3"; "fig4a"; "fig4b"; "fig4c";
    "fig5"; "fig6a"; "fig6b"; "fig6c"; "fig7a"; "fig7b"; "fig8a"; "fig8b";
    "fig8c"; "fig9a"; "fig9b"; "fig9c"; "fig10a"; "fig10b"; "fig11";
    "fig12a"; "fig12b"; "fig12c"; "fig13"; "ablation_bisection";
    "ablation_eps"; "ablation_topologies"; "ablation_rrg"; "ablation_routing";
    "ablation_expansion"; "ablation_local_search"; "ablation_cabling";
    "ablation_structured"; "ablation_spectral"; "ablation_proportionality";
    "ablation_vlb"; "ablation_transport"; "ablation_failures";
    "ablation_multiclass" ]

let test_registry_names () =
  let names = List.map (fun f -> f.Figures.name) Figures.all in
  Alcotest.(check int) "names unique"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (List.mem n names))
    legacy_names

let test_setup_store_rejects_file () =
  let path = Filename.temp_file "dcn_cache_dir" ".file" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      match Core.Cli.setup_store (Some path) false with
      | Error _ ->
          Alcotest.(check bool) "no store installed" true
            (Option.is_none (Dcn_store.Store.shared ()))
      | Ok _ -> Alcotest.fail "a regular file was accepted as --cache-dir")

let suite =
  ( "figures",
    [
      Alcotest.test_case "record then replay is byte-identical" `Quick
        test_record_replay;
      Alcotest.test_case "replay needs both artifacts" `Quick
        test_replay_needs_both_artifacts;
      Alcotest.test_case "run replays what it recorded" `Quick
        test_run_resumes;
      Alcotest.test_case "registry names" `Quick test_registry_names;
      Alcotest.test_case "setup_store rejects a regular file" `Quick
        test_setup_store_rejects_file;
    ] )
