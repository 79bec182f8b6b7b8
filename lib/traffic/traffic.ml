type t = {
  name : string;
  demands : (int * int * float) list;
  flows_per_server : int;
}

(* Canonical demand order: by endpoint pair, then volume. Endpoint pairs are
   unique in every generator, so the Float.compare tail never decides in
   practice — it exists to keep the order total without polymorphic float
   comparison. *)
let compare_demand (u1, v1, d1) (u2, v2, d2) =
  let c = Int.compare u1 u2 in
  if c <> 0 then c
  else
    let c = Int.compare v1 v2 in
    if c <> 0 then c else Float.compare d1 d2

let num_servers ~servers = Array.fold_left ( + ) 0 servers

let offsets servers =
  let n = Array.length servers in
  let off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i) + servers.(i)
  done;
  off

(* [order] reordered so that [key.(order.(i))] ascends, ties kept in
   their old order: one counting pass over keys in [0, buckets). *)
let sort_by_key ~buckets key order =
  let next = Array.make (buckets + 1) 0 in
  Array.iter (fun j -> next.(key.(j) + 1) <- next.(key.(j) + 1) + 1) order;
  for k = 1 to buckets do
    next.(k) <- next.(k) + next.(k - 1)
  done;
  let sorted = Array.make (Array.length order) 0 in
  Array.iter
    (fun j ->
      sorted.(next.(key.(j))) <- j;
      next.(key.(j)) <- next.(key.(j)) + 1)
    order;
  sorted

(* Aggregate the server-level pairs (src.(i), dst.(i)), i < npairs, into
   switch-level demands, dropping intra-switch pairs. Stable counting sorts
   by destination switch, then by source switch, put equal (u, v) pairs
   next to each other in [compare_demand] order; a demand is the length of
   its run, an exact integer. *)
let aggregate ~name ~flows_per_server ~servers ~src ~dst npairs =
  let n = Array.length servers in
  let switch_of = Array.make (num_servers ~servers) 0 in
  let first = ref 0 in
  Array.iteri
    (fun u count ->
      Array.fill switch_of !first count u;
      first := !first + count)
    servers;
  let us = Array.make npairs 0 and vs = Array.make npairs 0 in
  let kept = ref 0 in
  for i = 0 to npairs - 1 do
    let u = switch_of.(src.(i)) and v = switch_of.(dst.(i)) in
    if u <> v then begin
      us.(!kept) <- u;
      vs.(!kept) <- v;
      incr kept
    end
  done;
  let order =
    Array.init !kept Fun.id
    |> sort_by_key ~buckets:n vs
    |> sort_by_key ~buckets:n us
  in
  let demands = ref [] and run = ref 0 in
  for i = !kept - 1 downto 0 do
    let j = order.(i) in
    incr run;
    let starts_run =
      i = 0 || us.(order.(i - 1)) <> us.(j) || vs.(order.(i - 1)) <> vs.(j)
    in
    if starts_run then begin
      demands := (us.(j), vs.(j), float_of_int !run) :: !demands;
      run := 0
    end
  done;
  { name; demands = !demands; flows_per_server }

let to_commodities t =
  if List.is_empty t.demands then
    invalid_arg "Traffic.to_commodities: no inter-switch demand";
  Array.of_list
    (List.map
       (fun (src, dst, demand) -> Dcn_flow.Commodity.make ~src ~dst ~demand)
       t.demands)

let total_demand t =
  List.fold_left (fun acc (_, _, d) -> acc +. d) 0.0 t.demands

let permutation st ~servers =
  let total = num_servers ~servers in
  if total < 2 then invalid_arg "Traffic.permutation: need at least 2 servers";
  let image = Dcn_util.Sampling.derangement st total in
  aggregate ~name:"permutation" ~flows_per_server:1 ~servers
    ~src:(Array.init total Fun.id) ~dst:image total

let all_to_all ~servers =
  let n = Array.length servers in
  let total = num_servers ~servers in
  if total < 2 then invalid_arg "Traffic.all_to_all: need at least 2 servers";
  let demands = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && servers.(u) > 0 && servers.(v) > 0 then
        demands :=
          (u, v, float_of_int (servers.(u) * servers.(v))) :: !demands
    done
  done;
  {
    name = "all-to-all";
    demands = List.sort compare_demand !demands;
    flows_per_server = total - 1;
  }

let chunky st ~servers ~fraction =
  if fraction < 0.0 || fraction > 1.0 then
    invalid_arg "Traffic.chunky: fraction out of [0,1]";
  let n = Array.length servers in
  let off = offsets servers in
  let tors =
    List.filter (fun i -> servers.(i) > 0) (List.init n (fun i -> i))
    |> Array.of_list
  in
  let num_tors = Array.length tors in
  if num_tors < 2 then invalid_arg "Traffic.chunky: need at least 2 ToRs";
  (* Even number of chunky ToRs so they can pair up. *)
  let chunky_count =
    let c = int_of_float (Float.round (fraction *. float_of_int num_tors)) in
    let c = min c num_tors in
    if c mod 2 = 1 then c - 1 else c
  in
  Dcn_util.Sampling.shuffle st tors;
  (* Every server sources at most one pair. *)
  let total = num_servers ~servers in
  let src = Array.make total 0 and dst = Array.make total 0 in
  let npairs = ref 0 in
  let add_pair a b =
    src.(!npairs) <- a;
    dst.(!npairs) <- b;
    incr npairs
  in
  (* ToR-level permutation on the chunky part: pair consecutive ToRs both
     ways; server i of one ToR sends to server i of the other (a
     server-level bijection between the two racks). *)
  let link_tors a b =
    let cnt = min servers.(a) servers.(b) in
    for i = 0 to cnt - 1 do
      add_pair (off.(a) + i) (off.(b) + i)
    done;
    (* Leftover servers on the bigger rack still send somewhere: wrap
       around the partner's servers. *)
    for i = cnt to servers.(a) - 1 do
      if servers.(b) > 0 then add_pair (off.(a) + i) (off.(b) + (i mod servers.(b)))
    done
  in
  let i = ref 0 in
  while !i + 1 < chunky_count do
    let a = tors.(!i) and b = tors.(!i + 1) in
    link_tors a b;
    link_tors b a;
    i := !i + 2
  done;
  (* Remaining ToRs: server-level random permutation among their servers. *)
  let rest_servers = ref [] in
  for j = chunky_count to num_tors - 1 do
    let t = tors.(j) in
    for s = off.(t) to off.(t) + servers.(t) - 1 do
      rest_servers := s :: !rest_servers
    done
  done;
  let rest = Array.of_list !rest_servers in
  let k = Array.length rest in
  if k >= 2 then begin
    let image = Dcn_util.Sampling.derangement st k in
    Array.iteri (fun idx s -> add_pair s rest.(image.(idx))) rest
  end;
  aggregate
    ~name:(Printf.sprintf "chunky-%.0f%%" (fraction *. 100.0))
    ~flows_per_server:1 ~servers ~src ~dst !npairs

let hotspot st ~servers ~targets =
  let n = Array.length servers in
  let off = offsets servers in
  let with_servers =
    List.filter (fun i -> servers.(i) > 0) (List.init n (fun i -> i))
    |> Array.of_list
  in
  if targets < 1 || targets > Array.length with_servers then
    invalid_arg "Traffic.hotspot: bad target count";
  let chosen =
    Dcn_util.Sampling.sample_without_replacement st targets
      (Array.length with_servers)
    |> Array.map (fun i -> with_servers.(i))
  in
  let hot_servers =
    Array.to_list chosen
    |> List.concat_map (fun t ->
           List.init servers.(t) (fun i -> off.(t) + i))
    |> Array.of_list
  in
  let total = num_servers ~servers in
  let src = Array.make total 0 and dst = Array.make total 0 in
  let npairs = ref 0 in
  for s = 0 to total - 1 do
    let d = Dcn_util.Sampling.pick st hot_servers in
    if d <> s then begin
      src.(!npairs) <- s;
      dst.(!npairs) <- d;
      incr npairs
    end
  done;
  aggregate ~name:(Printf.sprintf "hotspot-%d" targets) ~flows_per_server:1
    ~servers ~src ~dst !npairs
