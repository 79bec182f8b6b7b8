let distances_into g src dist =
  let c = Graph.csr g in
  let adj_off = c.Graph.csr_adj_off and adj_arc = c.Graph.csr_adj_arc in
  let arc_cap = c.Graph.csr_arc_cap and arc_dst = c.Graph.csr_arc_dst in
  let queue = Array.make c.Graph.csr_n 0 in
  Array.fill dist 0 (Array.length dist) max_int;
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) + 1 in
    for i = adj_off.(u) to adj_off.(u + 1) - 1 do
      let a = adj_arc.(i) in
      if arc_cap.(a) > 0.0 then begin
        let v = arc_dst.(a) in
        if dist.(v) = max_int then begin
          dist.(v) <- du;
          queue.(!tail) <- v;
          incr tail
        end
      end
    done
  done

let distances g src =
  let dist = Array.make (Graph.n g) max_int in
  distances_into g src dist;
  dist

let eccentricity g src =
  let dist = distances g src in
  Array.fold_left max 0 dist
