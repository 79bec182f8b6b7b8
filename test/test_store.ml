(* Tests for the content-addressed result store: digests, the on-disk
   object layout (atomicity, corruption handling, counters), the exact
   result codecs, the cached solver wrappers, and run manifests. *)

module Graph = Dcn_graph.Graph
module Commodity = Dcn_flow.Commodity
module Mcmf_fptas = Dcn_flow.Mcmf_fptas
module Throughput = Dcn_flow.Throughput
module Traffic = Dcn_traffic.Traffic
module Rrg = Dcn_topology.Rrg
module Topology = Dcn_topology.Topology
module Store = Dcn_store.Store
module Digest_key = Dcn_store.Digest_key
module Codec = Dcn_store.Codec
module Solve_cache = Dcn_store.Solve_cache
module Manifest = Dcn_store.Manifest
module Float_text = Dcn_util.Float_text
module Metrics = Dcn_obs.Metrics
module Vl2 = Dcn_topology.Vl2
module Graph_metrics = Dcn_graph.Graph_metrics
module Throughput_bound = Dcn_bounds.Throughput_bound

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dcn_store_test.%d.%d" (Unix.getpid ()) !tmp_counter)
  in
  (* The store creates it (and its subdirectories) itself. *)
  dir

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_store f =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f (Store.open_store dir))

(* Run [f] with a fresh store installed process-wide, restoring the
   previous (absent) handle afterwards so other suites stay cache-free. *)
let with_shared_store f =
  with_store (fun store ->
      Store.set_shared (Some store);
      Fun.protect ~finally:(fun () -> Store.set_shared None) (fun () -> f store))

let small_instance () =
  let st = Random.State.make [| 7 |] in
  let topo = Rrg.topology st ~n:12 ~k:6 ~r:4 in
  let tm = Traffic.permutation st ~servers:topo.Topology.servers in
  (topo.Topology.graph, Traffic.to_commodities tm)

let params = Mcmf_fptas.quick_params

(* ---- digests ---- *)

let test_digest_stability () =
  let g, cs = small_instance () in
  let key () =
    Digest_key.of_solve ~kind:"fptas" ~params g cs
  in
  Alcotest.(check string) "same request, same key" (key ()) (key ());
  Alcotest.(check int) "hex width" Digest_key.hex_length
    (String.length (key ()));
  let other =
    Digest_key.of_solve ~kind:"fptas"
      ~params:{ params with Mcmf_fptas.gap = 0.5 }
      g cs
  in
  Alcotest.(check bool) "params change the key" true (key () <> other);
  let other_kind =
    Digest_key.of_solve ~kind:"throughput-fptas" ~params g cs
  in
  Alcotest.(check bool) "kind namespaces the key" true (key () <> other_kind)

let test_digest_canonical_graph () =
  (* The same abstract graph built from differently-ordered edge lists
     must digest identically: graph_text goes through the sorted canonical
     edge list, not construction order. *)
  let edges = [ (0, 1, 1.0); (1, 2, 2.5); (0, 3, 1.0); (2, 3, 0.125) ] in
  let g1 = Graph.of_edges 4 edges in
  let g2 = Graph.of_edges 4 (List.rev edges) in
  Alcotest.(check string) "construction order is irrelevant"
    (Digest_key.graph_text g1) (Digest_key.graph_text g2)

(* ---- object store ---- *)

let find_raw store key = Store.find store key ~decode:Option.some

let test_store_roundtrip () =
  with_store (fun store ->
      let key = Digest_key.of_text "request" in
      Alcotest.(check bool) "absent" false (Store.mem store key);
      Alcotest.(check (option string)) "miss" None (find_raw store key);
      Store.add store key "payload bytes\nwith a second line";
      Alcotest.(check bool) "present" true (Store.mem store key);
      Alcotest.(check (option string)) "hit"
        (Some "payload bytes\nwith a second line")
        (find_raw store key);
      let c = Store.counters store in
      Alcotest.(check int) "hits" 1 c.Store.hits;
      Alcotest.(check int) "misses" 1 c.Store.misses;
      Alcotest.(check bool) "bytes flow both ways" true
        (c.Store.bytes_read > 0 && c.Store.bytes_written > 0))

let object_path store key =
  (* Mirror of the sharded layout, for corruption tests only. *)
  Filename.concat (Store.root store)
    (Filename.concat "objects"
       (Filename.concat (String.sub key 0 2)
          (String.sub key 2 (String.length key - 2))))

let test_store_corruption_degrades_to_miss () =
  with_store (fun store ->
      let key = Digest_key.of_text "will be corrupted" in
      Store.add store key "good payload";
      let path = object_path store key in
      (* Truncate mid-payload: header promises more bytes than exist. *)
      let oc = open_out path in
      output_string oc "dcn-store 1 12\nshort";
      close_out oc;
      Alcotest.(check (option string)) "truncated entry is a miss" None
        (find_raw store key);
      Alcotest.(check bool) "corrupt entry was healed away" false
        (Sys.file_exists path);
      (* Garbage header. *)
      Store.add store key "good payload";
      let oc = open_out path in
      output_string oc "not a store entry at all";
      close_out oc;
      Alcotest.(check (option string)) "garbage entry is a miss" None
        (find_raw store key);
      (* A sound entry the caller's decoder rejects: a miss, healed too. *)
      Store.add store key "good payload";
      Alcotest.(check (option string)) "rejected entry is a miss" None
        (Store.find store key ~decode:(fun _ -> None));
      Alcotest.(check bool) "rejected entry was healed away" false
        (Sys.file_exists path);
      (* A rewrite after healing works again. *)
      Store.add store key "good payload";
      Alcotest.(check (option string)) "healed" (Some "good payload")
        (find_raw store key))

let test_store_empty_payload () =
  with_store (fun store ->
      let key = Digest_key.of_text "empty" in
      Store.add store key "";
      Alcotest.(check (option string)) "empty payload round-trips" (Some "")
        (find_raw store key))

(* ---- codecs ---- *)

let awkward_floats =
  [| 0.1; 1.0 /. 3.0; 1e-300; 1.7976931348623157e308; 0.0; 123456.789012345 |]

let test_codec_fptas_exact () =
  let r =
    {
      Mcmf_fptas.lambda_lower = 0.7234567891234567;
      lambda_upper = 0.7534567891234001;
      arc_flow = awkward_floats;
      phases = 4321;
      converged = true;
    }
  in
  match Codec.fptas_result_of_string (Codec.fptas_result_to_string r) with
  | None -> Alcotest.fail "decode failed"
  | Some d ->
      (* Structural equality is bitwise equality for these fields. *)
      Alcotest.(check bool) "bit-identical" true (d = r)

let test_codec_throughput_exact () =
  let t =
    {
      Throughput.lambda = 0.987654321012345;
      lambda_bounds = (0.97, 1.0000000000000002);
      utilization = 0.3333333333333333;
      mean_shortest_path = 2.718281828459045;
      stretch = 1.0000000001;
      arc_flow = awkward_floats;
    }
  in
  match Codec.throughput_of_string (Codec.throughput_to_string t) with
  | None -> Alcotest.fail "decode failed"
  | Some d -> Alcotest.(check bool) "bit-identical" true (d = t)

let test_codec_rejects_garbage () =
  Alcotest.(check bool) "garbage" true
    (Codec.fptas_result_of_string "nonsense" = None);
  Alcotest.(check bool) "wrong magic" true
    (Codec.fptas_result_of_string "throughput 1\nlambda 1\n" = None);
  let r =
    {
      Mcmf_fptas.lambda_lower = 0.5;
      lambda_upper = 0.6;
      arc_flow = [| 1.0; 2.0 |];
      phases = 3;
      converged = false;
    }
  in
  let text = Codec.fptas_result_to_string r in
  let truncated = String.sub text 0 (String.length text - 3) in
  Alcotest.(check bool) "truncated array" true
    (Codec.fptas_result_of_string truncated = None)

let prop_codec_float_roundtrip =
  QCheck.Test.make ~name:"codec float text roundtrip" ~count:500
    QCheck.float (fun x ->
      let y = Float_text.of_string (Float_text.to_string x) in
      (Float.is_nan x && Float.is_nan y)
      || Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))

(* Versions 1 and 2 of the state codec wrote an untracked state as
   version 3 does, plus a [w_executed] line (always equal to [w_phases])
   after [w_phases], so splicing that line in and swapping the magic makes
   exactly what they wrote. Each decodes to [None]; under the key a store
   holds it, the cached solve misses, recomputes and heals the entry. *)
let test_codec_old_state_is_miss () =
  let g, cs = small_instance () in
  let fresh = Mcmf_fptas.solve_with_state ~params g cs in
  let text = Codec.fptas_state_to_string fresh in
  let old version =
    String.split_on_char '\n' text
    |> List.concat_map (fun line ->
           if String.starts_with ~prefix:"fptas-state " line then
             [ Printf.sprintf "fptas-state %d" version ]
           else if String.starts_with ~prefix:"w_phases " line then
             [ line; "w_executed" ^ String.sub line 8 (String.length line - 8) ]
           else [ line ])
    |> String.concat "\n"
  in
  Alcotest.(check bool) "version 3 decodes" true
    (Codec.fptas_state_of_string text <> None);
  List.iter
    (fun version ->
      let label = Printf.sprintf "version %d" version in
      Alcotest.(check bool) (label ^ " decodes to None") true
        (Codec.fptas_state_of_string (old version) = None);
      with_shared_store (fun store ->
          let key = Digest_key.of_solve ~kind:"fptas-state" ~params g cs in
          Store.add store key (old version);
          let st, _ = Solve_cache.fptas_with_state ~params g cs in
          Alcotest.(check bool) (label ^ " recomputed") true
            (st.Mcmf_fptas.result = fresh.Mcmf_fptas.result);
          Alcotest.(check bool) (label ^ " entry rewritten at version 3") true
            (Store.find store key ~decode:Codec.fptas_state_of_string <> None)))
    [ 1; 2 ]

(* ---- cached solves ---- *)

let test_solve_cache_hit_is_bit_identical () =
  let g, cs = small_instance () in
  let fresh = Mcmf_fptas.solve ~params g cs in
  with_shared_store (fun store ->
      let cold = Solve_cache.fptas ~params g cs in
      let c = Store.counters store in
      Alcotest.(check int) "cold run misses" 1 c.Store.misses;
      Alcotest.(check bool) "cold equals direct solve" true (cold = fresh);
      let warm = Solve_cache.fptas ~params g cs in
      let c = Store.counters store in
      Alcotest.(check int) "warm run hits" 1 c.Store.hits;
      Alcotest.(check bool) "cached bit-identical to fresh" true (warm = fresh);
      (* The lambda shorthand agrees with the uncached midpoint. *)
      Alcotest.(check (float 0.0)) "lambda midpoint"
        (Mcmf_fptas.lambda ~params g cs)
        (Solve_cache.fptas_lambda ~params g cs))

let test_solve_cache_throughput () =
  let g, cs = small_instance () in
  let fresh = Throughput.compute ~solver:(Throughput.Fptas params) g cs in
  with_shared_store (fun _store ->
      let cold =
        Solve_cache.throughput ~solver:(Throughput.Fptas params) g cs
      in
      let warm =
        Solve_cache.throughput ~solver:(Throughput.Fptas params) g cs
      in
      Alcotest.(check bool) "cold equals direct" true (cold = fresh);
      Alcotest.(check bool) "warm equals direct" true (warm = fresh))

let test_solve_cache_disabled_without_store () =
  let g, cs = small_instance () in
  (* No store installed: behaves exactly like the raw solver. *)
  Alcotest.(check bool) "no store, plain solve" true
    (Solve_cache.fptas ~params g cs = Mcmf_fptas.solve ~params g cs)

(* Run [f] with metrics on; return its value and the counter [name]. *)
let counting name f =
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    (fun () ->
      let x = f () in
      (x, Metrics.counter_value (Metrics.snapshot ()) name))

let hex x = Printf.sprintf "%h" x

(* A corruption that keeps an entry's length passes the store's header
   check. Here the lead digit of a cached throughput entry's
   [lambda_lower] becomes 9, above its [lambda_upper]: the decoder
   refuses the interval, so the replay is a miss that recomputes the
   true answer. *)
let test_corrupt_interval_is_miss () =
  let st = Random.State.make [| 1 |] in
  let topo = Rrg.topology st ~n:40 ~k:12 ~r:8 in
  let tm = Traffic.permutation st ~servers:topo.Topology.servers in
  let g = topo.Topology.graph and cs = Traffic.to_commodities tm in
  let solver = Throughput.Fptas params in
  let fresh = Throughput.compute ~solver g cs in
  with_shared_store (fun store ->
      ignore (Solve_cache.throughput ~solver g cs);
      let path =
        object_path store
          (Digest_key.of_solve ~kind:"throughput-fptas" ~params g cs)
      in
      let entry = In_channel.with_open_bin path In_channel.input_all in
      let prefix = "lambda_lower " in
      let lead = String.length prefix in
      let corrupted =
        String.split_on_char '\n' entry
        |> List.map (fun line ->
               if String.starts_with ~prefix line then
                 prefix ^ "9"
                 ^ String.sub line (lead + 1) (String.length line - lead - 1)
               else line)
        |> String.concat "\n"
      in
      Alcotest.(check int) "same length" (String.length entry)
        (String.length corrupted);
      Alcotest.(check bool) "lower above upper" true
        (List.exists
           (fun line ->
             String.starts_with ~prefix line
             && Float_text.of_string
                  (String.sub line lead (String.length line - lead))
                > snd fresh.Throughput.lambda_bounds)
           (String.split_on_char '\n' corrupted));
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc corrupted);
      let before = Store.counters store in
      let replay, misses =
        counting "store.misses" (fun () ->
            Solve_cache.throughput ~solver g cs)
      in
      let after = Store.counters store in
      Alcotest.(check int) "store.misses" 1 misses;
      (* The printed cache line reads these: a rejected entry is no hit. *)
      Alcotest.(check (pair int int)) "Store.counters hits, misses" (0, 1)
        ( after.Store.hits - before.Store.hits,
          after.Store.misses - before.Store.misses );
      let lo, hi = fresh.Throughput.lambda_bounds in
      let lo', hi' = replay.Throughput.lambda_bounds in
      Alcotest.(check (pair string string)) "true interval"
        (hex lo, hex hi) (hex lo', hex hi'))

(* On a heterogeneous instance with non-uniform demands (VL2, hotspot
   traffic): the record's ⟨D⟩ is the BFS value, and the Theorem-1 bound
   [topobench throughput] prints from it is the bound computed from the
   graph, bit for bit, whether the record was solved or replayed. *)
let test_bound_from_stored_distance () =
  let topo = Vl2.create ~da:8 ~di:8 () in
  let st = Random.State.make [| 3 |] in
  let tm = Traffic.hotspot st ~servers:topo.Topology.servers ~targets:3 in
  let g = topo.Topology.graph and cs = Traffic.to_commodities tm in
  let solver = Throughput.Fptas params in
  let pairs =
    Array.map (fun (c : Commodity.t) -> (c.src, c.dst, c.demand)) cs
  in
  let mean_dist = Graph_metrics.weighted_pair_distance_array g ~pairs in
  let bound = Throughput_bound.upper_bound_capacity g cs in
  let check label (t : Throughput.t) =
    Alcotest.(check string) (label ^ " mean_shortest_path") (hex mean_dist)
      (hex t.Throughput.mean_shortest_path);
    (* The expression [topobench throughput] prints. *)
    Alcotest.(check string) (label ^ " Theorem-1 bound") (hex bound)
      (hex
         (Mcmf_fptas.theorem1_bound ~mean_dist:t.Throughput.mean_shortest_path
            g cs))
  in
  check "compute" (Throughput.compute ~solver g cs);
  with_shared_store (fun _ ->
      check "cold" (Solve_cache.throughput ~solver g cs);
      let replay, hits =
        counting "store.hits" (fun () -> Solve_cache.throughput ~solver g cs)
      in
      Alcotest.(check int) "replayed" 1 hits;
      check "replay" replay)

(* ---- manifests ---- *)

let test_manifest_roundtrip () =
  with_store (fun store ->
      let dir = Manifest.dir ~store ~fingerprint:"runs 3\nseed 1\n" in
      Alcotest.(check (list string)) "empty run" []
        (List.map
           (fun e -> e.Manifest.target)
           (Manifest.load ~dir));
      Manifest.mark_done ~dir { Manifest.target = "fig1a"; seconds = 1.5 };
      Manifest.mark_done ~dir { Manifest.target = "fig6a"; seconds = 22.0 };
      Manifest.mark_done ~dir { Manifest.target = "fig1a"; seconds = 9.0 };
      let entries = Manifest.load ~dir in
      Alcotest.(check (list string)) "targets, later duplicate wins"
        [ "fig6a"; "fig1a" ]
        (List.map (fun e -> e.Manifest.target) entries);
      (* later-wins: fig1a's recorded time is the second one. *)
      let fig1a =
        List.find (fun e -> e.Manifest.target = "fig1a") entries
      in
      Alcotest.(check (float 0.0)) "seconds" 9.0 fig1a.Manifest.seconds;
      (* A torn trailing line (crash mid-append) is skipped. *)
      let oc =
        open_out_gen [ Open_append ] 0o644 (Filename.concat dir "manifest")
      in
      output_string oc "done 3.1";
      close_out oc;
      Alcotest.(check int) "torn line skipped" 2
        (List.length (Manifest.load ~dir)))

let test_manifest_artifacts () =
  with_store (fun store ->
      let dir = Manifest.dir ~store ~fingerprint:"x" in
      Alcotest.(check (option string)) "absent artifact" None
        (Manifest.read_artifact ~dir ~name:"fig1a.table");
      Manifest.write_artifact ~dir ~name:"fig1a.table" "a  b\n1  2\n";
      Alcotest.(check (option string)) "artifact round-trips"
        (Some "a  b\n1  2\n")
        (Manifest.read_artifact ~dir ~name:"fig1a.table"))

let test_manifest_distinct_fingerprints () =
  with_store (fun store ->
      let d1 = Manifest.dir ~store ~fingerprint:"quick" in
      let d2 = Manifest.dir ~store ~fingerprint:"full" in
      Alcotest.(check bool) "different runs, different dirs" true (d1 <> d2);
      Manifest.mark_done ~dir:d1 { Manifest.target = "fig1a"; seconds = 1.0 };
      Alcotest.(check int) "no cross-run leakage" 0
        (List.length (Manifest.load ~dir:d2)))

let suite =
  ( "store",
    [
      Alcotest.test_case "digest stability" `Quick test_digest_stability;
      Alcotest.test_case "digest canonical graph" `Quick
        test_digest_canonical_graph;
      Alcotest.test_case "object roundtrip + counters" `Quick
        test_store_roundtrip;
      Alcotest.test_case "corruption degrades to miss" `Quick
        test_store_corruption_degrades_to_miss;
      Alcotest.test_case "empty payload" `Quick test_store_empty_payload;
      Alcotest.test_case "codec fptas exact" `Quick test_codec_fptas_exact;
      Alcotest.test_case "codec throughput exact" `Quick
        test_codec_throughput_exact;
      Alcotest.test_case "codec rejects garbage" `Quick
        test_codec_rejects_garbage;
      QCheck_alcotest.to_alcotest prop_codec_float_roundtrip;
      Alcotest.test_case "cached solve bit-identical" `Quick
        test_solve_cache_hit_is_bit_identical;
      Alcotest.test_case "cached throughput metrics" `Quick
        test_solve_cache_throughput;
      Alcotest.test_case "no store, no caching" `Quick
        test_solve_cache_disabled_without_store;
      Alcotest.test_case "manifest roundtrip" `Quick test_manifest_roundtrip;
      Alcotest.test_case "manifest artifacts" `Quick test_manifest_artifacts;
      Alcotest.test_case "manifest fingerprints" `Quick
        test_manifest_distinct_fingerprints;
      Alcotest.test_case "codec old fptas-state is a miss" `Quick
        test_codec_old_state_is_miss;
      Alcotest.test_case "corrupt interval is a miss" `Quick
        test_corrupt_interval_is_miss;
      Alcotest.test_case "bound from stored distance" `Quick
        test_bound_from_stored_distance;
    ] )
