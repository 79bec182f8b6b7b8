(* List-based reference implementations of the path-restricted routing
   leg: Yen's k-shortest paths over a full masked BFS, ECMP enumeration
   over the whole shortest-path DAG, two-bounce VLB path sets from
   independent shortest-path searches, and the path-restricted
   multiplicative-weights solver over [int list list] path sets. They
   favour obviousness over speed and are kept only as oracles: the
   library versions must reproduce their outputs exactly (same paths in
   the same order, same RNG consumption, bit-identical floats). *)

open Dcn_graph
module Mcmf_fptas = Dcn_flow.Mcmf_fptas
module Mcmf_paths = Dcn_flow.Mcmf_paths
module Commodity = Dcn_flow.Commodity

(* ---- Ksp ---- *)

let masked_shortest g ~src ~dst ~banned_nodes ~banned_arcs =
  let n = Graph.n g in
  let dist = Array.make n max_int in
  let parent = Array.make n (-1) in
  let queue = Queue.create () in
  if not banned_nodes.(src) then begin
    dist.(src) <- 0;
    Queue.push src queue
  end;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Graph.iter_out g u (fun a ->
        if Graph.arc_cap g a > 0.0 && not banned_arcs.(a) then begin
          let v = Graph.arc_dst g a in
          if (not banned_nodes.(v)) && dist.(v) = max_int then begin
            dist.(v) <- dist.(u) + 1;
            parent.(v) <- a;
            Queue.push v queue
          end
        end)
  done;
  if dist.(dst) = max_int then None
  else begin
    let rec walk v acc =
      match parent.(v) with
      | -1 -> acc
      | a -> walk (Graph.arc_src g a) (a :: acc)
    in
    Some (walk dst [])
  end

let shortest_path g ~src ~dst =
  let banned_nodes = Array.make (Graph.n g) false in
  let banned_arcs = Array.make (Graph.num_arcs g) false in
  masked_shortest g ~src ~dst ~banned_nodes ~banned_arcs

let path_nodes g ~src arcs = src :: List.map (fun a -> Graph.arc_dst g a) arcs

let k_shortest g ~src ~dst ~k =
  if k < 1 then invalid_arg "Ksp.k_shortest: k < 1";
  if src = dst then invalid_arg "Ksp.k_shortest: src = dst";
  match shortest_path g ~src ~dst with
  | None -> []
  | Some first ->
      let n = Graph.n g and m = Graph.num_arcs g in
      let accepted = ref [ first ] in
      let candidates = ref [] in
      let add_candidate p =
        let len = List.length p in
        if not (List.exists (fun (_, q) -> q = p) !candidates) then
          candidates := (len, p) :: !candidates
      in
      let banned_nodes = Array.make n false in
      let banned_arcs = Array.make m false in
      let reset_masks () =
        Array.fill banned_nodes 0 n false;
        Array.fill banned_arcs 0 m false
      in
      let rec extend () =
        if List.length !accepted < k then begin
          let prev = List.hd !accepted in
          let prev_nodes = Array.of_list (path_nodes g ~src prev) in
          let prev_arcs = Array.of_list prev in
          for i = 0 to Array.length prev_arcs - 1 do
            reset_masks ();
            let spur_node = prev_nodes.(i) in
            let root = Array.to_list (Array.sub prev_arcs 0 i) in
            List.iter
              (fun p ->
                let p_arr = Array.of_list p in
                if Array.length p_arr > i
                   && Array.to_list (Array.sub p_arr 0 i) = root
                then begin
                  banned_arcs.(p_arr.(i)) <- true;
                  banned_arcs.(Graph.arc_rev g p_arr.(i)) <- true
                end)
              !accepted;
            for j = 0 to i - 1 do
              banned_nodes.(prev_nodes.(j)) <- true
            done;
            match
              masked_shortest g ~src:spur_node ~dst ~banned_nodes ~banned_arcs
            with
            | None -> ()
            | Some spur -> add_candidate (root @ spur)
          done;
          let unused =
            List.filter (fun (_, p) -> not (List.mem p !accepted)) !candidates
          in
          match List.sort compare unused with
          | [] -> ()
          | (_, best) :: _ ->
              accepted := best :: !accepted;
              extend ()
        end
      in
      extend ();
      List.rev !accepted

(* ---- Ecmp ---- *)

let ecmp_paths g ~src ~dst ~limit =
  if limit < 1 then invalid_arg "Ecmp.shortest_paths: limit < 1";
  if src = dst then invalid_arg "Ecmp.shortest_paths: src = dst";
  let dist = Bfs.distances g src in
  if dist.(dst) = max_int then []
  else begin
    let results = ref [] in
    let num = ref 0 in
    let rec grow u suffix =
      if !num < limit then begin
        if u = dst then begin
          results := List.rev suffix :: !results;
          incr num
        end
        else
          Graph.iter_out g u (fun a ->
              if !num < limit && Graph.arc_cap g a > 0.0 then begin
                let v = Graph.arc_dst g a in
                if dist.(v) = dist.(u) + 1 then grow v (a :: suffix)
              end)
      end
    in
    grow src [];
    List.rev !results
  end

(* ---- Vlb ---- *)

let is_simple g ~src arcs =
  let nodes = src :: List.map (fun a -> Graph.arc_dst g a) arcs in
  List.length nodes = List.length (List.sort_uniq compare nodes)

let vlb_paths st g ~src ~dst ~intermediates =
  if src = dst then invalid_arg "Vlb.paths: src = dst";
  if intermediates < 0 then invalid_arg "Vlb.paths: negative intermediates";
  match shortest_path g ~src ~dst with
  | None -> []
  | Some direct ->
      let n = Graph.n g in
      let candidates =
        Dcn_util.Sampling.permutation st n
        |> Array.to_list
        |> List.filter (fun m -> m <> src && m <> dst)
      in
      let rec take acc count = function
        | [] -> List.rev acc
        | _ when count = 0 -> List.rev acc
        | m :: rest -> (
            match (shortest_path g ~src ~dst:m, shortest_path g ~src:m ~dst) with
            | Some first_leg, Some second_leg ->
                let path = first_leg @ second_leg in
                if is_simple g ~src path then take (path :: acc) (count - 1) rest
                else take acc count rest
            | _ -> take acc count rest)
      in
      let bounced = take [] intermediates candidates in
      List.sort_uniq compare (direct :: bounced)

let vlb_restrict st g ~intermediates commodities =
  let cache = Hashtbl.create 64 in
  Array.map
    (fun (c : Commodity.t) ->
      let key = (c.Commodity.src, c.Commodity.dst) in
      let ps =
        match Hashtbl.find_opt cache key with
        | Some p -> p
        | None ->
            let p =
              vlb_paths st g ~src:c.Commodity.src ~dst:c.Commodity.dst
                ~intermediates
            in
            Hashtbl.add cache key p;
            p
      in
      {
        Mcmf_paths.src = c.Commodity.src;
        dst = c.Commodity.dst;
        demand = c.Commodity.demand;
        paths = ps;
      })
    commodities

(* ---- Mcmf_paths ---- *)

let demand_scale g (commodities : Mcmf_paths.commodity array) =
  let capacity = Graph.total_capacity g in
  let weighted_hops =
    Array.fold_left
      (fun acc (c : Mcmf_paths.commodity) ->
        let shortest =
          List.fold_left
            (fun m p -> min m (List.length p))
            max_int c.Mcmf_paths.paths
        in
        acc +. (c.Mcmf_paths.demand *. float_of_int shortest))
      0.0 commodities
  in
  Float.max 1e-30 (capacity /. Float.max 1.0 weighted_hops)

(* [halvings] counts the adaptive eps halvings, so oracle tests can check
   that they exercised that branch. *)
let solve ?(params = Mcmf_fptas.default_params) ?(halvings = ref 0) g
    (commodities : Mcmf_paths.commodity array) =
  (* Coarse to fine, as in [Gk_loop]: start at twice the requested step,
     capped at [max eps 0.5]; an 8-phase stall halves it to the requested
     step, and from there a 30-phase stall halves it, down to 0.0125. *)
  let target = params.Mcmf_fptas.eps in
  let eps = ref (Float.min (2.0 *. target) (Float.max target 0.5)) in
  let m_all = Graph.num_arcs g in
  let scale = demand_scale g commodities in
  let k = Array.length commodities in
  let demand = Array.map (fun c -> c.Mcmf_paths.demand *. scale) commodities in
  let paths =
    Array.map
      (fun c -> Array.of_list (List.map Array.of_list c.Mcmf_paths.paths))
      commodities
  in
  let m_pos = ref 0 in
  Graph.iter_arcs g (fun a -> if Graph.arc_cap g a > 0.0 then incr m_pos);
  let delta = (float_of_int !m_pos /. (1.0 -. !eps)) ** (-1.0 /. !eps) in
  let lengths = Array.make m_all infinity in
  Graph.iter_arcs g (fun a ->
      if Graph.arc_cap g a > 0.0 then lengths.(a) <- delta /. Graph.arc_cap g a);
  let flow = Array.make m_all 0.0 in
  let path_length p = Array.fold_left (fun acc a -> acc +. lengths.(a)) 0.0 p in
  let min_path j =
    let best = ref 0 and best_len = ref infinity in
    Array.iteri
      (fun i p ->
        let len = path_length p in
        if len < !best_len then begin
          best := i;
          best_len := len
        end)
      paths.(j);
    (paths.(j).(!best), !best_len)
  in
  let route_commodity j =
    let rec go rem =
      if rem > 0.0 then begin
        let p, _ = min_path j in
        let bottleneck =
          Array.fold_left
            (fun acc a -> Float.min acc (Graph.arc_cap g a))
            infinity p
        in
        let amount = Float.min rem bottleneck in
        Array.iter
          (fun a ->
            flow.(a) <- flow.(a) +. amount;
            let cap = Graph.arc_cap g a in
            lengths.(a) <- lengths.(a) *. (1.0 +. (!eps *. amount /. cap)))
          p;
        go (rem -. amount)
      end
    in
    go demand.(j)
  in
  let rescale_lengths () =
    let max_len = ref 0.0 in
    Graph.iter_arcs g (fun a ->
        if Graph.arc_cap g a > 0.0 then max_len := Float.max !max_len lengths.(a));
    if !max_len > 1e100 then begin
      let inv = 1.0 /. !max_len in
      Graph.iter_arcs g (fun a ->
          if Graph.arc_cap g a > 0.0 then lengths.(a) <- lengths.(a) *. inv)
    end
  in
  let dual_bound () =
    let d_l = ref 0.0 in
    Graph.iter_arcs g (fun a ->
        if Graph.arc_cap g a > 0.0 then
          d_l := !d_l +. (Graph.arc_cap g a *. lengths.(a)));
    let alpha = ref 0.0 in
    for j = 0 to k - 1 do
      let _, len = min_path j in
      alpha := !alpha +. (demand.(j) *. len)
    done;
    let bound = !d_l /. !alpha in
    if Float.is_nan bound || bound <= 0.0 then infinity else bound
  in
  (* Congestion of the flow added since [base] (a flow snapshot). *)
  let congestion base =
    let mu = ref 0.0 in
    Graph.iter_arcs g (fun a ->
        if Graph.arc_cap g a > 0.0 then
          mu := Float.max !mu ((flow.(a) -. base.(a)) /. Graph.arc_cap g a));
    !mu
  in
  (* Window certificates: the flow after phases 5, 10, 20, ... as
     [(phase, copy)], the two newest kept, oldest first. The flow shipped
     since a snapshot at phase [p0] carries [(p - p0)·d] per commodity, so
     it certifies [(p - p0) / its congestion]. The whole history is the
     window from the all-zero flow at phase 0 and wins ties, then the
     older window. *)
  let snaps = ref [] in
  let rec snapshot_due p = p = 5 || (p > 5 && p mod 2 = 0 && snapshot_due (p / 2)) in
  let whole = (0, Array.make m_all 0.0) in
  let certificate phases =
    List.fold_left
      (fun ((best, _, _) as acc) ((p0, _) as snap) ->
        let mu = congestion (snd snap) in
        let lo = float_of_int (phases - p0) /. mu in
        if mu > 0.0 && lo > best then (lo, mu, snap) else acc)
      (let mu = congestion (snd whole) in
       (float_of_int phases /. mu, mu, whole))
      !snaps
  in
  let finish phases lambda_lo lambda_hi mu (_, base) ~converged =
    let arc_flow =
      if mu > 0.0 then Array.mapi (fun a f -> (f -. base.(a)) /. mu) flow
      else Array.copy flow
    in
    {
      Mcmf_paths.lambda_lower = lambda_lo *. scale;
      lambda_upper = lambda_hi *. scale;
      arc_flow;
      phases;
      converged;
    }
  in
  let coarse_window = 8 and stall_window = 30 in
  let min_eps = 0.0125 in
  let rec phase_loop phases best_dual last_ratio stalled =
    for j = 0 to k - 1 do
      route_commodity j
    done;
    rescale_lengths ();
    let phases = phases + 1 in
    let lambda_lo, mu, snap = certificate phases in
    let best_dual = Float.min best_dual (dual_bound ()) in
    let ratio = best_dual /. lambda_lo in
    if ratio <= 1.0 +. params.Mcmf_fptas.gap then
      finish phases lambda_lo best_dual mu snap ~converged:true
    else if phases >= params.Mcmf_fptas.max_phases then
      finish phases lambda_lo best_dual mu snap ~converged:false
    else begin
      if snapshot_due phases then
        snaps :=
          (match !snaps with
          | [ _; newer ] -> [ newer; (phases, Array.copy flow) ]
          | l -> l @ [ (phases, Array.copy flow) ]);
      let progress_step =
        Float.max 5e-4 (0.01 *. (ratio -. 1.0 -. params.Mcmf_fptas.gap))
      in
      let stalled = if ratio > last_ratio -. progress_step then stalled + 1 else 0 in
      let last_ratio = Float.min last_ratio ratio in
      let coarse = !eps > target in
      let window = if coarse then coarse_window else stall_window in
      if stalled >= window && !eps > Float.min target min_eps then begin
        eps :=
          if coarse then Float.max target (!eps /. 2.0)
          else Float.max min_eps (!eps /. 2.0);
        incr halvings;
        phase_loop phases best_dual last_ratio 0
      end
      else phase_loop phases best_dual last_ratio stalled
    end
  in
  phase_loop 0 infinity infinity 0
