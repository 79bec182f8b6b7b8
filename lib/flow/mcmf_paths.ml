open Dcn_graph

type commodity = {
  src : int;
  dst : int;
  demand : float;
  paths : int list list;
}

type result = Mcmf_fptas.result = {
  lambda_lower : float;
  lambda_upper : float;
  arc_flow : float array;
  phases : int;
  converged : bool;
}

let validate g commodities =
  if Array.length commodities = 0 then invalid_arg "Mcmf_paths: no commodities";
  Array.iter
    (fun c ->
      if c.src = c.dst then invalid_arg "Mcmf_paths: src = dst";
      if c.demand <= 0.0 then invalid_arg "Mcmf_paths: non-positive demand";
      if not (Float.is_finite c.demand) then
        invalid_arg "Mcmf_paths: non-finite demand";
      if c.paths = [] then invalid_arg "Mcmf_paths: commodity without paths";
      List.iter
        (fun p ->
          let rec check at = function
            | [] -> if at <> c.dst then invalid_arg "Mcmf_paths: path misses dst"
            | a :: rest ->
                if Graph.arc_src g a <> at then
                  invalid_arg "Mcmf_paths: discontinuous path";
                if Graph.arc_cap g a <= 0.0 then
                  invalid_arg "Mcmf_paths: path uses a zero-capacity arc";
                check (Graph.arc_dst g a) rest
          in
          check c.src p)
        c.paths)
    commodities

(* The flat path store: path sets as CSR arrays, built once per solve.
   Commodity [j] owns path ids [com_off.(j) .. com_off.(j+1) - 1], in the
   order of its [paths] list; path [p] is the arc sequence
   [arcs.(path_off.(p) .. path_off.(p+1) - 1)]. *)
type store = { com_off : int array; path_off : int array; arcs : int array }

let flatten commodities =
  let k = Array.length commodities in
  let num_paths = ref 0 and num_arcs = ref 0 in
  Array.iter
    (fun c ->
      List.iter
        (fun p ->
          incr num_paths;
          num_arcs := !num_arcs + List.length p)
        c.paths)
    commodities;
  let com_off = Array.make (k + 1) 0 in
  let path_off = Array.make (!num_paths + 1) 0 in
  let arcs = Array.make !num_arcs 0 in
  let next_path = ref 0 and next_arc = ref 0 in
  Array.iteri
    (fun j c ->
      com_off.(j) <- !next_path;
      List.iter
        (fun p ->
          path_off.(!next_path) <- !next_arc;
          incr next_path;
          List.iter
            (fun a ->
              arcs.(!next_arc) <- a;
              incr next_arc)
            p)
        c.paths)
    commodities;
  com_off.(k) <- !next_path;
  path_off.(!next_path) <- !next_arc;
  { com_off; path_off; arcs }

(* Demand conditioning, as in Mcmf_fptas: scale so λ* is Θ(1) using a
   capacity/shortest-length estimate over the given path sets. *)
let demand_scale g commodities { com_off; path_off; _ } =
  let capacity = Graph.total_capacity g in
  let weighted_hops = ref 0.0 in
  Array.iteri
    (fun j c ->
      let shortest = ref max_int in
      for p = com_off.(j) to com_off.(j + 1) - 1 do
        shortest := Int.min !shortest (path_off.(p + 1) - path_off.(p))
      done;
      weighted_hops := !weighted_hops +. (c.demand *. float_of_int !shortest))
    commodities;
  Float.max 1e-30 (capacity /. Float.max 1.0 !weighted_hops)

(* The shared [paths.*] counters, flushed once per solve by
   {!Gk_loop.solve}; the per-path loops never touch the registry. *)
let paths = Gk_loop.solver "paths"

(* All loops below run over the flat store and the CSR capacity array.
   Float sums keep the order of a left fold over each path (and over arc
   ids), and ties between equally long paths go to the earliest listed,
   so results are bit for bit those of folding over the path lists. *)
let solve_flat ~params ~stats g commodities store =
  let { com_off; path_off; arcs } = store in
  let cap = (Graph.csr g).Graph.csr_arc_cap in
  let eps = ref (Gk_loop.start_eps params) in
  let m_all = Graph.num_arcs g in
  let scale = demand_scale g commodities store in
  let k = Array.length commodities in
  let demand = Array.map (fun c -> c.demand *. scale) commodities in
  let lengths = Array.make m_all 0.0 in
  Gk_loop.init_lengths ~eps:!eps ~cap lengths;
  let flow = Array.make m_all 0.0 in
  (* The id of commodity [j]'s shortest path under [lengths]. *)
  let min_path j =
    let best = ref com_off.(j) and best_len = ref infinity in
    for p = com_off.(j) to com_off.(j + 1) - 1 do
      let len = ref 0.0 in
      for x = path_off.(p) to path_off.(p + 1) - 1 do
        len := !len +. lengths.(arcs.(x))
      done;
      if !len < !best_len then begin
        best := p;
        best_len := !len
      end
    done;
    !best
  in
  (* [min_path j], reading each path's length at [frozen] in the same
     loop over its arcs; the shortest frozen length goes to
     [frozen_min.(0)]. *)
  let frozen_min = [| 0.0 |] in
  let min_path_and_frozen frozen j =
    let best = ref com_off.(j) and best_len = ref infinity in
    let best_frozen = ref infinity in
    for p = com_off.(j) to com_off.(j + 1) - 1 do
      let len = ref 0.0 and flen = ref 0.0 in
      for x = path_off.(p) to path_off.(p + 1) - 1 do
        let a = arcs.(x) in
        len := !len +. lengths.(a);
        flen := !flen +. frozen.(a)
      done;
      if !len < !best_len then begin
        best := p;
        best_len := !len
      end;
      if !flen < !best_frozen then best_frozen := !flen
    done;
    frozen_min.(0) <- !best_frozen;
    !best
  in
  (* Ship commodity [j]'s demand, first on path [p0] (its shortest), then
     on the shortest path again after each bottleneck. *)
  let route_commodity j p0 =
    let rem = ref demand.(j) and p = ref p0 in
    while !rem > 0.0 do
      let first = path_off.(!p) and last = path_off.(!p + 1) - 1 in
      let bottleneck = ref infinity in
      for x = first to last do
        bottleneck := Float.min !bottleneck cap.(arcs.(x))
      done;
      let amount = Float.min !rem !bottleneck in
      let e = !eps in
      for x = first to last do
        let a = arcs.(x) in
        flow.(a) <- flow.(a) +. amount;
        lengths.(a) <- lengths.(a) *. (1.0 +. (e *. amount /. cap.(a)))
      done;
      rem := !rem -. amount;
      if !rem > 0.0 then p := min_path j
    done
  in
  let route () =
    for j = 0 to k - 1 do
      route_commodity j (min_path j)
    done
  in
  (* The next phase's routing on the live lengths, one pass: a
     commodity's first path choice also reads its shortest path at the
     frozen lengths, before its routing moves the live ones. That is the
     dual bound's α term, summed in commodity order as a separate sweep
     would sum it. *)
  let step ~lengths:frozen =
    let t0 = Gk_loop.tick () in
    let alpha = ref 0.0 in
    for j = 0 to k - 1 do
      let p = min_path_and_frozen frozen j in
      alpha := !alpha +. (demand.(j) *. frozen_min.(0));
      route_commodity j p
    done;
    stats.Gk_loop.route_ns <- stats.Gk_loop.route_ns + Gk_loop.ns_since t0;
    !alpha
  in
  Gk_loop.run ~cat:"paths" ~params ~stats ~eps ~cap ~flow ~lengths ~route
    ~step ~settle:(fun ~keep:_ -> ()) ~best_dual:infinity ~finish:(Gk_loop.result ~scale)

let solve ?(params = Mcmf_fptas.default_params) g commodities =
  Gk_loop.validate params;
  validate g commodities;
  let store = flatten commodities in
  Gk_loop.solve paths ~result:Fun.id (fun stats ->
      solve_flat ~params ~stats g commodities store)

let lambda ?params g commodities = Gk_loop.midpoint (solve ?params g commodities)

(* Path sets per distinct (src, dst) pair, numbered in first-seen order.
   The pairs' sets are one pool batch over contiguous chunks of pairs,
   split by {!Mcmf_fptas.chunk_count}; each chunk makes its own scratch
   and fills its pairs' slots. A pair's set does not depend on the
   scratch's history, so the sets are the same at any worker count.
   Commodities of one pair share its list. *)
let with_cached_paths g ~scratch enumerate commodities =
  let index = Hashtbl.create 64 in
  (* The commodity that first names each pair, newest pair first. *)
  let firsts = ref [] and npairs = ref 0 in
  let slot =
    Array.mapi
      (fun j (c : Commodity.t) ->
        let key = (c.Commodity.src, c.Commodity.dst) in
        match Hashtbl.find_opt index key with
        | Some i -> i
        | None ->
            let i = !npairs in
            Hashtbl.add index key i;
            firsts := j :: !firsts;
            incr npairs;
            i)
      commodities
  in
  let ngroups = !npairs and firsts = Array.of_list (List.rev !firsts) in
  let sets = Array.make ngroups [] in
  let chunks = Mcmf_fptas.chunk_count ~num_arcs:(Graph.num_arcs g) ~ngroups in
  Dcn_util.Pool.run ~total:chunks (fun c ->
      let s = scratch g in
      for i = Mcmf_fptas.chunk_lo ~ngroups ~chunks c
          to Mcmf_fptas.chunk_lo ~ngroups ~chunks (c + 1) - 1 do
        let first = commodities.(firsts.(i)) in
        sets.(i) <-
          enumerate s ~src:first.Commodity.src ~dst:first.Commodity.dst
      done);
  Array.mapi
    (fun j (c : Commodity.t) ->
      { src = c.Commodity.src; dst = c.Commodity.dst;
        demand = c.Commodity.demand; paths = sets.(slot.(j)) })
    commodities

let of_k_shortest g ~k commodities =
  with_cached_paths g ~scratch:Dcn_routing.Ksp.scratch
    (fun s -> Dcn_routing.Ksp.k_shortest_in s ~k)
    commodities

let of_ecmp g ~limit commodities =
  with_cached_paths g ~scratch:Dcn_routing.Ecmp.scratch
    (fun s -> Dcn_routing.Ecmp.shortest_paths_in s ~limit)
    commodities
