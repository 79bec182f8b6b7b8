(* Tests for traffic-matrix generation and aggregation. *)

module Traffic = Dcn_traffic.Traffic

let st () = Random.State.make [| 314 |]

let total_demand = Traffic.total_demand

let test_server_switch_mapping () =
  (* Server ids are switch-major and skip empty switches: servers 0-1 sit
     on switch 0 and 2-4 on switch 2. Fully chunky traffic pairs the two
     racks both ways, so each rack's whole server count lands on the one
     switch-level demand it sources. *)
  let servers = [| 2; 0; 3 |] in
  Alcotest.(check int) "count" 5 (Traffic.num_servers ~servers);
  let tm = Traffic.chunky (st ()) ~servers ~fraction:1.0 in
  Alcotest.(check (list (triple int int (float 0.0))))
    "rack to rack" [ (0, 2, 2.0); (2, 0, 3.0) ] tm.Traffic.demands;
  for seed = 0 to 19 do
    let tm = Traffic.permutation (Random.State.make [| seed |]) ~servers in
    List.iter
      (fun (u, v, d) ->
        if u = 1 || v = 1 then Alcotest.fail "demand on the empty switch";
        if d > float_of_int servers.(u) then Alcotest.fail "more than the rack")
      tm.Traffic.demands
  done

let test_permutation_conserves_flows () =
  let servers = [| 5; 5; 5; 5 |] in
  let tm = Traffic.permutation (st ()) ~servers in
  (* Every server sends exactly one flow; only intra-switch ones vanish. *)
  Alcotest.(check bool) "at most 20" true (total_demand tm <= 20.0);
  Alcotest.(check bool) "most flows cross switches" true (total_demand tm >= 10.0);
  Alcotest.(check int) "flows per server" 1 tm.Traffic.flows_per_server;
  List.iter
    (fun (u, v, d) ->
      if u = v then Alcotest.fail "intra-switch demand leaked";
      if d <= 0.0 then Alcotest.fail "non-positive demand")
    tm.Traffic.demands

let test_permutation_balance () =
  (* Aggregated out-demand per switch = number of servers whose partner is
     remote; in-demand likewise; each is bounded by the server count. *)
  let servers = [| 4; 4; 4 |] in
  let tm = Traffic.permutation (st ()) ~servers in
  let out = Array.make 3 0.0 and inn = Array.make 3 0.0 in
  List.iter
    (fun (u, v, d) ->
      out.(u) <- out.(u) +. d;
      inn.(v) <- inn.(v) +. d)
    tm.Traffic.demands;
  Array.iteri
    (fun i o ->
      Alcotest.(check bool) "out <= servers" true (o <= float_of_int servers.(i));
      Alcotest.(check bool) "in <= servers" true (inn.(i) <= float_of_int servers.(i)))
    out

let test_all_to_all () =
  let servers = [| 2; 3; 0; 1 |] in
  let tm = Traffic.all_to_all ~servers in
  (* 6 servers: 30 ordered pairs; minus intra-switch (2·1 + 3·2) = 8. *)
  Alcotest.(check (float 1e-9)) "total demand" 22.0 (total_demand tm);
  Alcotest.(check int) "flows per server" 5 tm.Traffic.flows_per_server;
  (* Demand between switches 0 and 1 is 2·3. *)
  let d01 =
    List.fold_left
      (fun acc (u, v, d) -> if u = 0 && v = 1 then acc +. d else acc)
      0.0 tm.Traffic.demands
  in
  Alcotest.(check (float 1e-9)) "pairwise product" 6.0 d01

let test_chunky_extremes () =
  let servers = Array.make 8 4 in
  let tm0 = Traffic.chunky (st ()) ~servers ~fraction:0.0 in
  (* 0% chunky is a plain server permutation. *)
  Alcotest.(check bool) "0%: demand present" true (total_demand tm0 > 0.0);
  let tm1 = Traffic.chunky (st ()) ~servers ~fraction:1.0 in
  (* 100% chunky: ToR-level pairing; each demand is a whole rack (4), and
     each ToR sends to exactly one other ToR. *)
  List.iter
    (fun (_, _, d) ->
      Alcotest.(check (float 1e-9)) "rack-sized demand" 4.0 d)
    tm1.Traffic.demands;
  let sources = List.map (fun (u, _, _) -> u) tm1.Traffic.demands in
  Alcotest.(check int) "each ToR sends once" 8
    (List.length (List.sort_uniq compare sources));
  Alcotest.(check (float 1e-9)) "all servers engaged" 32.0 (total_demand tm1)

let test_chunky_fraction_range () =
  let servers = Array.make 4 2 in
  Alcotest.check_raises "fraction > 1"
    (Invalid_argument "Traffic.chunky: fraction out of [0,1]") (fun () ->
      ignore (Traffic.chunky (st ()) ~servers ~fraction:1.5))

let test_hotspot () =
  let servers = Array.make 6 3 in
  let tm = Traffic.hotspot (st ()) ~servers ~targets:2 in
  (* All demand lands on at most two destination switches. *)
  let dests = List.sort_uniq compare (List.map (fun (_, v, _) -> v) tm.Traffic.demands) in
  Alcotest.(check bool) "at most 2 hot switches" true (List.length dests <= 2)

let test_to_commodities_roundtrip () =
  let servers = [| 3; 3; 3 |] in
  let tm = Traffic.permutation (st ()) ~servers in
  let cs = Traffic.to_commodities tm in
  Alcotest.(check (float 1e-9)) "demand preserved" (total_demand tm)
    (Dcn_flow.Commodity.total_demand cs)

let prop_permutation_demand_integral =
  QCheck.Test.make ~name:"permutation demands are positive integers" ~count:100
    QCheck.(pair (int_range 2 8) (int_range 1 6))
    (fun (nsw, per) ->
      let servers = Array.make nsw per in
      let st = Random.State.make [| nsw; per |] in
      let tm = Traffic.permutation st ~servers in
      List.for_all
        (fun (_, _, d) -> d > 0.0 && Float.is_integer d)
        tm.Traffic.demands)

let prop_a2a_total =
  QCheck.Test.make ~name:"all-to-all total = S(S-1) - intra" ~count:100
    QCheck.(list_of_size (Gen.int_range 2 6) (int_range 0 5))
    (fun counts ->
      let servers = Array.of_list counts in
      let s = Array.fold_left ( + ) 0 servers in
      QCheck.assume (s >= 2);
      let tm = Traffic.all_to_all ~servers in
      let intra =
        Array.fold_left (fun acc c -> acc + (c * (c - 1))) 0 servers
      in
      Float.abs (total_demand tm -. float_of_int ((s * (s - 1)) - intra)) < 1e-9)

let suite =
  ( "traffic",
    [
      Alcotest.test_case "server-switch mapping" `Quick test_server_switch_mapping;
      Alcotest.test_case "permutation conserves flows" `Quick
        test_permutation_conserves_flows;
      Alcotest.test_case "permutation balance" `Quick test_permutation_balance;
      Alcotest.test_case "all-to-all demands" `Quick test_all_to_all;
      Alcotest.test_case "chunky extremes" `Quick test_chunky_extremes;
      Alcotest.test_case "chunky fraction validated" `Quick
        test_chunky_fraction_range;
      Alcotest.test_case "hotspot targets" `Quick test_hotspot;
      Alcotest.test_case "commodity round-trip" `Quick test_to_commodities_roundtrip;
      QCheck_alcotest.to_alcotest prop_permutation_demand_integral;
      QCheck_alcotest.to_alcotest prop_a2a_total;
    ] )
