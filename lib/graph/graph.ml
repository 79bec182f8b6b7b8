type t = {
  n : int;
  arc_src : int array;
  arc_dst : int array;
  arc_cap : float array;
  arc_rev : int array;
  adj_off : int array;
  adj_arc : int array;
  adj_dst : int array;
}

type builder = {
  bn : int;
  (* Each entry is (src, dst, cap); arcs are appended in reverse-pairs so
     that arc 2i and 2i+1 are mutual reverses. *)
  mutable edges : (int * int * float * float) list;
  mutable count : int;
}

let builder n =
  if n < 0 then invalid_arg "Graph.builder: negative node count";
  { bn = n; edges = []; count = 0 }

let check_endpoint b u =
  if u < 0 || u >= b.bn then invalid_arg "Graph: endpoint out of range"

let add_pair b u v cap_uv cap_vu =
  check_endpoint b u;
  check_endpoint b v;
  if u = v then invalid_arg "Graph: self-loop rejected";
  b.edges <- (u, v, cap_uv, cap_vu) :: b.edges;
  b.count <- b.count + 1

let add_edge b ?(cap = 1.0) u v =
  if cap <= 0.0 then invalid_arg "Graph.add_edge: non-positive capacity";
  add_pair b u v cap cap

let add_arc b ?(cap = 1.0) u v =
  if cap < 0.0 then invalid_arg "Graph.add_arc: negative capacity";
  add_pair b u v cap 0.0

let freeze b =
  let m = 2 * b.count in
  let arc_src = Array.make m 0 in
  let arc_dst = Array.make m 0 in
  let arc_cap = Array.make m 0.0 in
  let arc_rev = Array.make m 0 in
  let fill i (u, v, cap_uv, cap_vu) =
    let fwd = 2 * i and bwd = (2 * i) + 1 in
    arc_src.(fwd) <- u;
    arc_dst.(fwd) <- v;
    arc_cap.(fwd) <- cap_uv;
    arc_rev.(fwd) <- bwd;
    arc_src.(bwd) <- v;
    arc_dst.(bwd) <- u;
    arc_cap.(bwd) <- cap_vu;
    arc_rev.(bwd) <- fwd
  in
  (* The builder stores edges most-recent-first; index from the tail so
     arc ids follow insertion order. *)
  List.iteri (fun i e -> fill (b.count - 1 - i) e) b.edges;
  let adj_off = Array.make (b.bn + 1) 0 in
  for a = 0 to m - 1 do
    adj_off.(arc_src.(a) + 1) <- adj_off.(arc_src.(a) + 1) + 1
  done;
  for i = 1 to b.bn do
    adj_off.(i) <- adj_off.(i) + adj_off.(i - 1)
  done;
  let cursor = Array.copy adj_off in
  let adj_arc = Array.make m 0 in
  for a = 0 to m - 1 do
    let u = arc_src.(a) in
    adj_arc.(cursor.(u)) <- a;
    cursor.(u) <- cursor.(u) + 1
  done;
  (* Heads in adjacency order, so a scan over a node's arcs reads them
     without an indirection through the arc id (Dijkstra's inner loop). *)
  let adj_dst = Array.map (fun a -> arc_dst.(a)) adj_arc in
  { n = b.bn; arc_src; arc_dst; arc_cap; arc_rev; adj_off; adj_arc; adj_dst }

let of_edges n edges =
  let b = builder n in
  List.iter (fun (u, v, cap) -> add_edge b ~cap u v) edges;
  freeze b

let n g = g.n
let num_arcs g = Array.length g.arc_src

let num_edges g =
  let count = ref 0 in
  for a = 0 to num_arcs g - 1 do
    if g.arc_cap.(a) > 0.0 && a < g.arc_rev.(a) then incr count
  done;
  !count

let arc_src g a = g.arc_src.(a)
let arc_dst g a = g.arc_dst.(a)
let arc_cap g a = g.arc_cap.(a)
let arc_rev g a = g.arc_rev.(a)

type csr = {
  csr_n : int;
  csr_arc_src : int array;
  csr_arc_dst : int array;
  csr_arc_cap : float array;
  csr_arc_rev : int array;
  csr_adj_off : int array;
  csr_adj_arc : int array;
  csr_adj_dst : int array;
}

(* The arrays are shared with the graph, not copied: a [csr] view costs one
   small record allocation. Callers must treat them as read-only. *)
let csr g =
  {
    csr_n = g.n;
    csr_arc_src = g.arc_src;
    csr_arc_dst = g.arc_dst;
    csr_arc_cap = g.arc_cap;
    csr_arc_rev = g.arc_rev;
    csr_adj_off = g.adj_off;
    csr_adj_arc = g.adj_arc;
    csr_adj_dst = g.adj_dst;
  }

(* Failure masking: zero the capacities of the given arcs (and their
   reverses) while keeping node numbering, arc ids and adjacency intact.
   Only [arc_cap] is copied — everything else is shared with the original —
   so per-arc solver state (lengths, flows) indexed by arc id transfers
   directly from the unmasked graph, which is what makes incremental
   re-solves after failures possible. Capacity-aware consumers
   ([to_edge_list], Dijkstra, the flow solvers) see exactly the survivor
   subgraph. *)
let mask_arcs g ~arcs =
  let cap = Array.copy g.arc_cap in
  List.iter
    (fun a ->
      if a < 0 || a >= Array.length cap then
        invalid_arg "Graph.mask_arcs: arc id out of range";
      cap.(a) <- 0.0;
      cap.(g.arc_rev.(a)) <- 0.0)
    arcs;
  { g with arc_cap = cap }

let iter_out g u f =
  for i = g.adj_off.(u) to g.adj_off.(u + 1) - 1 do
    f g.adj_arc.(i)
  done

let fold_out g u f init =
  let acc = ref init in
  iter_out g u (fun a -> acc := f !acc a);
  !acc

let degree g u =
  fold_out g u (fun acc a -> if g.arc_cap.(a) > 0.0 then acc + 1 else acc) 0

let iter_arcs g f =
  for a = 0 to num_arcs g - 1 do
    f a
  done

let total_capacity g = Array.fold_left ( +. ) 0.0 g.arc_cap

let neighbors g u =
  fold_out g u
    (fun acc a -> if g.arc_cap.(a) > 0.0 then g.arc_dst.(a) :: acc else acc)
    []
  |> List.rev

let is_connected g =
  if g.n = 0 then true
  else begin
    let seen = Array.make g.n false in
    let queue = Queue.create () in
    Queue.push 0 queue;
    seen.(0) <- true;
    let visited = ref 1 in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      let visit a =
        (* Weak connectivity: traverse regardless of direction by also
           following the reverse arc's head. *)
        if g.arc_cap.(a) > 0.0 || g.arc_cap.(g.arc_rev.(a)) > 0.0 then begin
          let v = g.arc_dst.(a) in
          if not seen.(v) then begin
            seen.(v) <- true;
            incr visited;
            Queue.push v queue
          end
        end
      in
      iter_out g u visit
    done;
    !visited = g.n
  end

let is_regular g =
  if g.n = 0 then None
  else begin
    let r = degree g 0 in
    let rec check u = u >= g.n || (degree g u = r && check (u + 1)) in
    if check 1 then Some r else None
  end

let has_multi_edge g =
  let seen = Hashtbl.create (num_arcs g) in
  let dup = ref false in
  iter_arcs g (fun a ->
      if g.arc_cap.(a) > 0.0 then begin
        let key = (g.arc_src.(a), g.arc_dst.(a)) in
        if Hashtbl.mem seen key then dup := true else Hashtbl.add seen key ()
      end);
  !dup

(* Explicit total order on (src, dst, cap) triples: graph canonicalization
   must not ride on polymorphic float ordering (NaN would silently reorder). *)
let compare_arc (u1, v1, c1) (u2, v2, c2) =
  let c = Int.compare u1 u2 in
  if c <> 0 then c
  else
    let c = Int.compare v1 v2 in
    if c <> 0 then c else Float.compare c1 c2

let arc_multiset g =
  let arcs = ref [] in
  iter_arcs g (fun a ->
      if g.arc_cap.(a) > 0.0 then
        arcs := (g.arc_src.(a), g.arc_dst.(a), g.arc_cap.(a)) :: !arcs);
  List.sort compare_arc !arcs

let equal_structure g1 g2 =
  g1.n = g2.n
  && List.equal
       (fun a b -> compare_arc a b = 0)
       (arc_multiset g1) (arc_multiset g2)

let to_edge_list g =
  let edges = ref [] in
  iter_arcs g (fun a ->
      if g.arc_cap.(a) > 0.0 && a < g.arc_rev.(a) then
        edges := (g.arc_src.(a), g.arc_dst.(a), g.arc_cap.(a)) :: !edges);
  List.sort compare_arc !edges

(* Same traversal and the same (stable) sort on the same comparator as
   [to_edge_list], so position [i] here carries exactly the edge at
   position [i] there — failure samplers rely on that to produce identical
   survivor sets whether they rebuild the graph or mask arc ids. *)
let to_edge_list_ids g =
  let edges = ref [] in
  iter_arcs g (fun a ->
      if g.arc_cap.(a) > 0.0 && a < g.arc_rev.(a) then
        edges := ((g.arc_src.(a), g.arc_dst.(a), g.arc_cap.(a)), a) :: !edges);
  List.sort (fun (e1, _) (e2, _) -> compare_arc e1 e2) !edges

let pp ppf g =
  Format.fprintf ppf "graph n=%d edges=%d@." g.n (num_edges g);
  List.iter
    (fun (u, v, c) -> Format.fprintf ppf "  %d -- %d cap %g@." u v c)
    (to_edge_list g)

let to_dot g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "graph topology {\n";
  List.iter
    (fun (u, v, c) ->
      Buffer.add_string buf
        (Printf.sprintf "  %d -- %d [label=\"%g\"];\n" u v c))
    (to_edge_list g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
