open Dcn_graph

let saturating_add a b =
  let cap = max_int / 2 in
  if a >= cap - b then cap else a + b

let count_shortest_paths g ~src ~dst =
  let dist = Bfs.distances g src in
  if dist.(dst) = max_int then 0
  else begin
    let n = Graph.n g in
    (* Count paths by scanning nodes in increasing BFS distance. *)
    let order = Array.init n (fun v -> v) in
    Array.sort (fun a b -> compare dist.(a) dist.(b)) order;
    let count = Array.make n 0 in
    count.(src) <- 1;
    Array.iter
      (fun u ->
        if dist.(u) < max_int && count.(u) > 0 then
          Graph.iter_out g u (fun a ->
              if Graph.arc_cap g a > 0.0 then begin
                let v = Graph.arc_dst g a in
                if dist.(v) = dist.(u) + 1 then
                  count.(v) <- saturating_add count.(v) count.(u)
              end))
      order;
    count.(dst)
  end

(* A source's BFS distances, kept for the next call from the same
   source. *)
type scratch = {
  g : Graph.t;
  csr : Graph.csr;
  dist : int array;
  mutable dist_src : int;  (** The source [dist] holds, or -1. *)
}

let scratch g =
  { g; csr = Graph.csr g; dist = Array.make (Graph.n g) max_int; dist_src = -1 }

let shortest_paths_in s ~src ~dst ~limit =
  if limit < 1 then invalid_arg "Ecmp.shortest_paths: limit < 1";
  if src = dst then invalid_arg "Ecmp.shortest_paths: src = dst";
  if s.dist_src <> src then begin
    Bfs.distances_into s.g src s.dist;
    s.dist_src <- src
  end;
  let dist = s.dist and c = s.csr in
  if dist.(dst) = max_int then []
  else begin
    (* DFS forwards from [src] over the shortest-path DAG, collecting up
       to [limit] paths in arc-id order. Arcs (u -> v) with
       dist v = dist u + 1 form the DAG. Distances rise strictly along it,
       so a node other than [dst] with dist v >= dist dst cannot reach
       [dst]; pruning those branches leaves the paths and their order
       unchanged. *)
    let results = ref [] in
    let num = ref 0 in
    let d_dst = dist.(dst) in
    let rec grow u suffix =
      if !num < limit then begin
        if u = dst then begin
          results := List.rev suffix :: !results;
          incr num
        end
        else begin
          let next = dist.(u) + 1 in
          let i = ref c.Graph.csr_adj_off.(u) in
          let stop = c.Graph.csr_adj_off.(u + 1) in
          while !num < limit && !i < stop do
            let a = c.Graph.csr_adj_arc.(!i) in
            incr i;
            if c.Graph.csr_arc_cap.(a) > 0.0 then begin
              let v = c.Graph.csr_arc_dst.(a) in
              if dist.(v) = next && (v = dst || dist.(v) < d_dst) then
                grow v (a :: suffix)
            end
          done
        end
      end
    in
    grow src [];
    List.rev !results
  end

let shortest_paths g ~src ~dst ~limit =
  shortest_paths_in (scratch g) ~src ~dst ~limit
