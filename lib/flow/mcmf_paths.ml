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
  let eps = ref params.Mcmf_fptas.eps in
  let m_all = Graph.num_arcs g in
  let scale = demand_scale g commodities store in
  let k = Array.length commodities in
  let demand = Array.map (fun c -> c.demand *. scale) commodities in
  let lengths = Array.make m_all 0.0 in
  Gk_loop.init_lengths ~eps:!eps ~cap lengths;
  let flow = Array.make m_all 0.0 in
  (* [min_path lengths j] returns the id of commodity [j]'s shortest path
     under [lengths] and leaves its length in [min_len.(0)]. *)
  let min_len = [| 0.0 |] in
  let min_path lengths j =
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
    min_len.(0) <- !best_len;
    !best
  in
  let route_commodity j =
    let rem = ref demand.(j) in
    while !rem > 0.0 do
      let p = min_path lengths j in
      let first = path_off.(p) and last = path_off.(p + 1) - 1 in
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
      rem := !rem -. amount
    done
  in
  let route () =
    for j = 0 to k - 1 do
      route_commodity j
    done
  in
  (* The dual bound's α at the frozen lengths, then the next phase's
     routing on the live ones. *)
  let step ~lengths:frozen =
    let alpha = ref 0.0 in
    for j = 0 to k - 1 do
      ignore (min_path frozen j : int);
      alpha := !alpha +. (demand.(j) *. min_len.(0))
    done;
    let t0 = Gk_loop.tick () in
    route ();
    stats.Gk_loop.route_ns <- stats.Gk_loop.route_ns + Gk_loop.ns_since t0;
    !alpha
  in
  Gk_loop.run ~cat:"paths" ~params ~stats ~eps ~cap ~flow ~lengths ~route
    ~step ~settle:(fun ~keep:_ -> ()) ~restart:ignore ~phases:0
    ~best_dual:infinity ~finish:(Gk_loop.result ~scale)

let solve ?(params = Mcmf_fptas.default_params) g commodities =
  Gk_loop.validate params;
  validate g commodities;
  let store = flatten commodities in
  Gk_loop.solve paths ~result:Fun.id (fun stats ->
      solve_flat ~params ~stats g commodities store)

let lambda ?params g commodities = Gk_loop.midpoint (solve ?params g commodities)

let with_cached_paths enumerate commodities =
  let cache = Hashtbl.create 64 in
  Array.map
    (fun (c : Commodity.t) ->
      let paths =
        match Hashtbl.find_opt cache (c.Commodity.src, c.Commodity.dst) with
        | Some p -> p
        | None ->
            let p = enumerate c.Commodity.src c.Commodity.dst in
            Hashtbl.add cache (c.Commodity.src, c.Commodity.dst) p;
            p
      in
      { src = c.Commodity.src; dst = c.Commodity.dst;
        demand = c.Commodity.demand; paths })
    commodities

let of_k_shortest g ~k commodities =
  with_cached_paths
    (fun src dst -> Dcn_routing.Ksp.k_shortest g ~src ~dst ~k)
    commodities

let of_ecmp g ~limit commodities =
  with_cached_paths
    (fun src dst -> Dcn_routing.Ecmp.shortest_paths g ~src ~dst ~limit)
    commodities
