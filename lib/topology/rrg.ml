open Dcn_graph

let check_args ~n ~r =
  if r < 2 then invalid_arg "Rrg: degree must be at least 2";
  if r >= n then invalid_arg "Rrg: degree must be below the switch count";
  if n * r mod 2 = 1 then invalid_arg "Rrg: n*r must be even"

let max_connectivity_retries = 50

let until_connected build =
  let rec attempt k =
    if k >= max_connectivity_retries then
      failwith "Rrg: failed to produce a connected graph";
    let g = build () in
    if Graph.is_connected g then g else attempt (k + 1)
  in
  attempt 0

(* Jellyfish-style incremental construction. Edges are kept in a set of
   (min,max) pairs and in per-node neighbour lists; free ports per node in
   an array. When no two non-adjacent nodes with free ports remain but free
   ports do, a random existing edge (u,v) with endpoints not adjacent to a
   free-port node x is removed and replaced by (x,u),(x,v).

   The edge set must stay a polymorphic [Hashtbl] keyed by (min,max)
   tuples, created at size n*r: the deadlock repair draws from its
   [Hashtbl.fold] order and the graph is built in its [Hashtbl.iter] order,
   which fixes the arc ids, so another table (or int keys) would change the
   draws and renumber the arcs of every Jellyfish graph. Adjacency tests
   scan the neighbour lists instead. The nodes with free ports are
   [cand.(0 .. !ncand - 1)], ascending; a node leaves when its last port is
   used, so every draw picks from the same array a scan of [free] would
   give. *)
let jellyfish st ~n ~r =
  check_args ~n ~r;
  let build () =
    let edges = Hashtbl.create (n * r) in
    (* The neighbours of u are nbr.(u * r) .. nbr.(u * r + deg.(u) - 1). *)
    let nbr = Array.make (n * r) 0 and deg = Array.make n 0 in
    let adjacent u v =
      let stop = (u * r) + deg.(u) in
      let i = ref (u * r) in
      while !i < stop && nbr.(!i) <> v do
        incr i
      done;
      !i < stop
    in
    let link u v =
      nbr.((u * r) + deg.(u)) <- v;
      deg.(u) <- deg.(u) + 1
    in
    let unlink u v =
      let i = ref (u * r) in
      while nbr.(!i) <> v do
        incr i
      done;
      deg.(u) <- deg.(u) - 1;
      nbr.(!i) <- nbr.((u * r) + deg.(u))
    in
    (* Only absent edges are added, and [Hashtbl.add] of an absent key is
       [Hashtbl.replace] without the bucket scan. *)
    let add_edge u v =
      Hashtbl.add edges (min u v, max u v) ();
      link u v;
      link v u
    in
    let remove_edge u v =
      Hashtbl.remove edges (min u v, max u v);
      unlink u v;
      unlink v u
    in
    let free = Array.make n r in
    let cand = Array.init n Fun.id and ncand = ref n in
    let total_free = ref (n * r) in
    let pick_cand () = cand.(Random.State.int st !ncand) in
    (* Take one port of [u]; [u] leaves [cand] with its last one. *)
    let use u =
      free.(u) <- free.(u) - 1;
      decr total_free;
      if free.(u) = 0 then begin
        let lo = ref 0 and hi = ref (!ncand - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if cand.(mid) < u then lo := mid + 1 else hi := mid
        done;
        Array.blit cand (!lo + 1) cand !lo (!ncand - !lo - 1);
        decr ncand
      end
    in
    let rec fill stuck =
      if !total_free = 0 then ()
      else if !ncand >= 2 && stuck < 200 then begin
        let u = pick_cand () in
        let v = pick_cand () in
        if u <> v && not (adjacent u v) then begin
          add_edge u v;
          use u;
          use v;
          fill 0
        end
        else fill (stuck + 1)
      end
      else begin
        (* Deadlocked: the nodes holding free ports are mutually adjacent
           (or there is just one). Break a random edge (u,v) and splice the
           free ports into it. *)
        let all_edges =
          Hashtbl.fold (fun (u, v) () acc -> (u, v) :: acc) edges []
          |> Array.of_list
        in
        let x = pick_cand () in
        if free.(x) >= 2 then begin
          (* Replace (u,v) with (x,u) and (x,v). *)
          let rec swap tries =
            if tries > 10_000 then
              failwith "Rrg.jellyfish: deadlock repair failed"
            else begin
              let u, v = Dcn_util.Sampling.pick st all_edges in
              if u <> x && v <> x && (not (adjacent x u)) && not (adjacent x v)
              then begin
                remove_edge u v;
                add_edge x u;
                add_edge x v;
                use x;
                use x
              end
              else swap (tries + 1)
            end
          in
          swap 0
        end
        else begin
          (* Two adjacent nodes x, y each hold one free port (the total
             free count is even, so a lone single-port node cannot occur).
             Replace (u,v) with (x,u) and (y,v). *)
          let y =
            let live = Array.to_list (Array.sub cand 0 !ncand) in
            match List.filter (fun c -> c <> x) live with
            | [] -> failwith "Rrg.jellyfish: parity violation"
            | others -> Dcn_util.Sampling.pick st (Array.of_list others)
          in
          let rec swap tries =
            if tries > 10_000 then
              failwith "Rrg.jellyfish: deadlock repair failed"
            else begin
              let u, v = Dcn_util.Sampling.pick st all_edges in
              let distinct = u <> x && v <> x && u <> y && v <> y in
              if distinct && (not (adjacent x u)) && not (adjacent y v) then begin
                remove_edge u v;
                add_edge x u;
                add_edge y v;
                use x;
                use y
              end
              else if distinct && (not (adjacent x v)) && not (adjacent y u)
              then begin
                remove_edge u v;
                add_edge x v;
                add_edge y u;
                use x;
                use y
              end
              else swap (tries + 1)
            end
          in
          swap 0
        end;
        fill 0
      end
    in
    fill 0;
    let b = Graph.builder n in
    Hashtbl.iter (fun (u, v) () -> Graph.add_edge b u v) edges;
    Graph.freeze b
  in
  until_connected build

let pairing st ~n ~r =
  check_args ~n ~r;
  let build () =
    let stubs = Array.make (n * r) 0 in
    for u = 0 to n - 1 do
      for j = 0 to r - 1 do
        stubs.((u * r) + j) <- u
      done
    done;
    let edges = Wiring.random_matching st stubs in
    let b = Graph.builder n in
    List.iter (fun (u, v) -> Graph.add_edge b u v) edges;
    Graph.freeze b
  in
  until_connected build

let topology ?(construction = `Jellyfish) st ~n ~k ~r =
  if r > k then invalid_arg "Rrg.topology: r exceeds port count";
  let graph =
    match construction with
    | `Jellyfish -> jellyfish st ~n ~r
    | `Pairing -> pairing st ~n ~r
  in
  let servers = Array.make n (k - r) in
  Topology.make
    ~name:(Printf.sprintf "rrg(n=%d,k=%d,r=%d)" n k r)
    ~graph ~servers ()

let expand st g ~new_nodes =
  if new_nodes < 0 then invalid_arg "Rrg.expand: negative node count";
  let r =
    match Graph.is_regular g with
    | Some r when r mod 2 = 0 -> r
    | Some _ -> invalid_arg "Rrg.expand: degree must be even to splice"
    | None -> invalid_arg "Rrg.expand: graph is not regular"
  in
  if Graph.n g < r + 1 then invalid_arg "Rrg.expand: graph too small";
  (* Work on a mutable edge set across all insertions. *)
  let edges = Hashtbl.create (Graph.n g * r) in
  List.iter
    (fun (u, v, _) -> Hashtbl.replace edges (min u v, max u v) ())
    (Graph.to_edge_list g);
  let adjacent u v = Hashtbl.mem edges (min u v, max u v) in
  let add_edge u v = Hashtbl.replace edges (min u v, max u v) () in
  let remove_edge u v = Hashtbl.remove edges (min u v, max u v) in
  let splice node =
    (* Choose r/2 links whose endpoints are pairwise distinct and not yet
       adjacent to the new node. *)
    let all = Hashtbl.fold (fun e () acc -> e :: acc) edges [] |> Array.of_list in
    let chosen = ref [] in
    let used = Hashtbl.create 16 in
    let rec pick needed tries =
      if needed > 0 then begin
        if tries > 100_000 then failwith "Rrg.expand: could not find links";
        let u, v = Dcn_util.Sampling.pick st all in
        if
          (not (Hashtbl.mem used u))
          && (not (Hashtbl.mem used v))
          && adjacent u v (* still present: not claimed this round *)
          && (not (adjacent node u))
          && not (adjacent node v)
        then begin
          Hashtbl.add used u ();
          Hashtbl.add used v ();
          remove_edge u v;
          chosen := (u, v) :: !chosen;
          pick (needed - 1) (tries + 1)
        end
        else pick needed (tries + 1)
      end
    in
    pick (r / 2) 0;
    List.iter
      (fun (u, v) ->
        add_edge node u;
        add_edge node v)
      !chosen
  in
  let n0 = Graph.n g in
  for i = 0 to new_nodes - 1 do
    splice (n0 + i)
  done;
  let b = Graph.builder (n0 + new_nodes) in
  Hashtbl.iter (fun (u, v) () -> Graph.add_edge b u v) edges;
  Graph.freeze b
