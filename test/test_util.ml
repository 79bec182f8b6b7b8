(* Tests for Union_find, Stats, Table and Sampling. *)

module Union_find = Dcn_util.Union_find
module Stats = Dcn_util.Stats
module Table = Dcn_util.Table
module Sampling = Dcn_util.Sampling

(* ---- Union_find ---- *)

let test_uf_basics () =
  let uf = Union_find.create 5 in
  Alcotest.(check int) "initial sets" 5 (Union_find.count uf);
  Alcotest.(check bool) "union 0 1" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "union again" false (Union_find.union uf 0 1);
  Alcotest.(check bool) "same" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "not same" false (Union_find.same uf 0 2);
  Alcotest.(check int) "four sets" 4 (Union_find.count uf)

let test_uf_transitive () =
  let uf = Union_find.create 6 in
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 1 2);
  ignore (Union_find.union uf 3 4);
  Alcotest.(check bool) "0~2" true (Union_find.same uf 0 2);
  Alcotest.(check bool) "3~4" true (Union_find.same uf 3 4);
  Alcotest.(check bool) "0!~3" false (Union_find.same uf 0 3);
  ignore (Union_find.union uf 2 3);
  Alcotest.(check bool) "0~4 after link" true (Union_find.same uf 0 4);
  Alcotest.(check int) "two sets (incl 5)" 2 (Union_find.count uf)

(* ---- Stats ---- *)

let test_stats_mean_stdev () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean xs);
  (* Sample stdev with n-1 denominator. *)
  Alcotest.(check (float 1e-9)) "stdev" (sqrt (32.0 /. 7.0)) (Stats.stdev xs)

let test_stats_median_percentile () =
  Alcotest.(check (float 1e-9)) "odd median" 3.0 (Stats.median [| 5.0; 3.0; 1.0 |]);
  Alcotest.(check (float 1e-9)) "even median" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |]);
  let xs = [| 0.0; 10.0 |] in
  Alcotest.(check (float 1e-9)) "p0" 0.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100" 10.0 (Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "p50 interpolates" 5.0 (Stats.percentile xs 50.0)

let test_stats_empty () =
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (Stats.mean [||]);
  Alcotest.(check (float 0.0)) "singleton stdev" 0.0 (Stats.stdev [| 3.0 |]);
  Alcotest.check_raises "empty median" (Invalid_argument "Stats.median: empty")
    (fun () -> ignore (Stats.median [||]))

let test_mean_ci95 () =
  let m, hw = Stats.mean_ci95 [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 m;
  (* stdev = sqrt(5/3); hw = 1.96*stdev/2. *)
  Alcotest.(check (float 1e-9)) "halfwidth" (1.96 *. sqrt (5.0 /. 3.0) /. 2.0) hw;
  let _, hw1 = Stats.mean_ci95 [| 42.0 |] in
  Alcotest.(check (float 0.0)) "singleton" 0.0 hw1

let test_summarize () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 2.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 3.0 s.Stats.max;
  Alcotest.(check int) "count" 3 s.Stats.count

(* ---- Table ---- *)

let test_table_csv () =
  let t = Table.create ~header:[ "a"; "b" ] in
  Table.add_row t [ "1"; "x,y" ];
  Table.add_row t [ "2"; "quote\"d" ];
  let csv = Table.to_csv t in
  Alcotest.(check string) "csv"
    "a,b\n1,\"x,y\"\n2,\"quote\"\"d\"\n" csv

let test_table_width_check () =
  let t = Table.create ~header:[ "a"; "b" ] in
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Table.add_row: width mismatch") (fun () ->
      Table.add_row t [ "only-one" ])

let test_table_order () =
  let t = Table.create ~header:[ "v" ] in
  Table.add_floats t [ 1.0 ];
  Table.add_floats t [ 2.0 ];
  let csv = Table.to_csv t in
  Alcotest.(check string) "rows in insertion order" "v\n1\n2\n" csv

(* ---- Sampling ---- *)

let st () = Random.State.make [| 12345 |]

let test_permutation_is_permutation () =
  let p = Sampling.permutation (st ()) 100 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "bijection" (Array.init 100 Fun.id) sorted

let test_derangement_no_fixed_points () =
  let p = Sampling.derangement (st ()) 50 in
  Array.iteri (fun i v -> if i = v then Alcotest.fail "fixed point") p;
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "bijection" (Array.init 50 Fun.id) sorted

let test_derangement_size_one () =
  Alcotest.check_raises "n=1 impossible"
    (Invalid_argument "Sampling.derangement: no derangement of size 1")
    (fun () -> ignore (Sampling.derangement (st ()) 1))

let test_sample_without_replacement () =
  let s = Sampling.sample_without_replacement (st ()) 10 20 in
  Alcotest.(check int) "size" 10 (Array.length s);
  let distinct = List.sort_uniq compare (Array.to_list s) in
  Alcotest.(check int) "distinct" 10 (List.length distinct);
  List.iter (fun v -> if v < 0 || v >= 20 then Alcotest.fail "range") distinct

let test_split_proportionally_exact () =
  let parts = Sampling.split_proportionally ~total:10 ~weights:[| 1.0; 1.0 |] in
  Alcotest.(check (array int)) "even split" [| 5; 5 |] parts;
  let parts = Sampling.split_proportionally ~total:10 ~weights:[| 3.0; 1.0 |] in
  Alcotest.(check (array int)) "3:1" [| 8; 2 |] parts

let prop_split_sums =
  QCheck.Test.make ~name:"split_proportionally sums to total" ~count:200
    QCheck.(pair (int_bound 500) (list_of_size (Gen.int_range 1 10) (float_bound_inclusive 10.0)))
    (fun (total, ws) ->
      let weights = Array.of_list (List.map (fun w -> w +. 0.01) ws) in
      let parts = Sampling.split_proportionally ~total ~weights in
      Array.fold_left ( + ) 0 parts = total
      && Array.for_all (fun p -> p >= 0) parts)

let prop_derangement =
  QCheck.Test.make ~name:"derangement has no fixed points" ~count:100
    QCheck.(int_range 2 200)
    (fun n ->
      let p = Sampling.derangement (st ()) n in
      Array.length p = n
      && not (Array.exists Fun.id (Array.mapi (fun i v -> i = v) p)))

(* ---- Parallel ---- *)

(* Size the shared pool for [f], then restore it. *)
let with_workers n f =
  let saved = Dcn_util.Pool.workers () in
  Dcn_util.Pool.set_workers n;
  Fun.protect ~finally:(fun () -> Dcn_util.Pool.set_workers saved) f

let test_parallel_matches_sequential () =
  let xs = List.init 50 Fun.id in
  let f x = (x * x) + 1 in
  with_workers 3 (fun () ->
      Alcotest.(check (list int)) "same results in order" (List.map f xs)
        (Dcn_util.Parallel.map f xs);
      Alcotest.(check (array int)) "array variant in order"
        (Array.map f (Array.of_list xs))
        (Dcn_util.Parallel.map_array f (Array.of_list xs));
      Alcotest.(check (list int)) "empty" [] (Dcn_util.Parallel.map f []));
  with_workers 0 (fun () ->
      Alcotest.(check (list int)) "serial pool fallback" (List.map f xs)
        (Dcn_util.Parallel.map f xs))

let test_parallel_propagates_exceptions () =
  (* Several elements fail; the smallest index's exception wins, as in a
     serial map. *)
  with_workers 2 (fun () ->
      match
        Dcn_util.Parallel.map
          (fun x ->
            if x > 0 && x mod 7 = 0 then failwith (string_of_int x) else x)
          (List.init 20 Fun.id)
      with
      | _ -> Alcotest.fail "expected exception"
      | exception Failure msg ->
          Alcotest.(check string) "smallest failing index" "7" msg)

(* ---- Stable_hash ---- *)

(* Published FNV-1a reference vectors: the whole point of the function is
   that these values never change, across OCaml releases or platforms
   (ablation salts and cache keys depend on it). *)
let test_fnv1a_vectors () =
  let check_hash s expect =
    Alcotest.(check int)
      (Printf.sprintf "fnv1a %S" s)
      expect
      (Dcn_util.Stable_hash.fnv1a s)
  in
  check_hash "" 0x811c9dc5;
  check_hash "a" 0xe40c292c;
  check_hash "foobar" 0xbf9cf968;
  let check_hash64 s expect =
    Alcotest.(check int64)
      (Printf.sprintf "fnv1a_64 %S" s)
      expect
      (Dcn_util.Stable_hash.fnv1a_64 s)
  in
  check_hash64 "" 0xcbf29ce484222325L;
  check_hash64 "a" 0xaf63dc4c8601ec8cL;
  check_hash64 "foobar" 0x85944171f73967e8L

let test_fnv1a_range () =
  List.iter
    (fun s ->
      let h = Dcn_util.Stable_hash.fnv1a s in
      Alcotest.(check bool)
        (Printf.sprintf "fnv1a %S in [0, 2^32)" s)
        true
        (h >= 0 && h <= 0xFFFFFFFF))
    [ ""; "a"; "rrg"; "fail_links"; String.make 300 '\xff' ]

let suite =
  ( "util",
    [
      Alcotest.test_case "union-find basics" `Quick test_uf_basics;
      Alcotest.test_case "union-find transitivity" `Quick test_uf_transitive;
      Alcotest.test_case "stats mean/stdev" `Quick test_stats_mean_stdev;
      Alcotest.test_case "stats median/percentile" `Quick test_stats_median_percentile;
      Alcotest.test_case "stats empty inputs" `Quick test_stats_empty;
      Alcotest.test_case "stats summarize" `Quick test_summarize;
      Alcotest.test_case "stats 95% CI" `Quick test_mean_ci95;
      Alcotest.test_case "table csv quoting" `Quick test_table_csv;
      Alcotest.test_case "table width check" `Quick test_table_width_check;
      Alcotest.test_case "table row order" `Quick test_table_order;
      Alcotest.test_case "permutation bijective" `Quick test_permutation_is_permutation;
      Alcotest.test_case "derangement fixed-point free" `Quick test_derangement_no_fixed_points;
      Alcotest.test_case "derangement n=1 rejected" `Quick test_derangement_size_one;
      Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
      Alcotest.test_case "proportional split exact" `Quick test_split_proportionally_exact;
      QCheck_alcotest.to_alcotest prop_split_sums;
      QCheck_alcotest.to_alcotest prop_derangement;
      Alcotest.test_case "parallel map" `Quick test_parallel_matches_sequential;
      Alcotest.test_case "parallel exceptions" `Quick
        test_parallel_propagates_exceptions;
      Alcotest.test_case "fnv1a reference vectors" `Quick test_fnv1a_vectors;
      Alcotest.test_case "fnv1a range" `Quick test_fnv1a_range;
    ] )
