let check_usable g =
  if Graph.n g < 2 then invalid_arg "Graph_metrics: need at least two nodes";
  if not (Graph.is_connected g) then
    invalid_arg "Graph_metrics: graph is disconnected"

let aspl_and_diameter g =
  check_usable g;
  let n = Graph.n g in
  let dist = Array.make n 0 in
  let total = ref 0 and diam = ref 0 in
  for src = 0 to n - 1 do
    Bfs.distances_into g src dist;
    for v = 0 to n - 1 do
      let d = dist.(v) in
      assert (d < max_int);
      total := !total + d;
      if d > !diam then diam := d
    done
  done;
  let pairs = n * (n - 1) in
  (float_of_int !total /. float_of_int pairs, !diam)

let aspl g = fst (aspl_and_diameter g)

let diameter g = snd (aspl_and_diameter g)

let weighted_pair_distance_array g ~pairs =
  check_usable g;
  let n = Graph.n g in
  (* Group by source so each source costs one BFS. *)
  let by_src = Array.make n [] in
  let total_weight = ref 0.0 in
  Array.iter
    (fun (s, t, w) ->
      if w < 0.0 then invalid_arg "weighted_pair_distance: negative weight";
      by_src.(s) <- (t, w) :: by_src.(s);
      total_weight := !total_weight +. w)
    pairs;
  if !total_weight <= 0.0 then
    invalid_arg "weighted_pair_distance: zero total demand";
  let dist = Array.make n 0 in
  let acc = ref 0.0 in
  for s = 0 to n - 1 do
    if not (List.is_empty by_src.(s)) then begin
      Bfs.distances_into g s dist;
      List.iter
        (fun (t, w) ->
          let d = dist.(t) in
          if d = max_int then invalid_arg "weighted_pair_distance: unreachable";
          acc := !acc +. (w *. float_of_int d))
        by_src.(s)
    end
  done;
  !acc /. !total_weight

let degree_histogram g =
  let tbl = Hashtbl.create 16 in
  for u = 0 to Graph.n g - 1 do
    let d = Graph.degree g u in
    let count = try Hashtbl.find tbl d with Not_found -> 0 in
    Hashtbl.replace tbl d (count + 1)
  done;
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl []
  |> List.sort compare

let mean_degree g =
  if Graph.n g = 0 then 0.0
  else begin
    let total = ref 0 in
    for u = 0 to Graph.n g - 1 do
      total := !total + Graph.degree g u
    done;
    float_of_int !total /. float_of_int (Graph.n g)
  end
