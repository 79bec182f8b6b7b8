type tree = { dist : float array; parent_arc : int array }

(* Sweep statistics of the last run: [core] counts in locals and stores
   them here once, and they are flushed to the global registry once per
   sweep, only when metrics are enabled. [pops] counts every heap pop,
   stale ones included; [scanned] is bumped by the out-degree at node
   expansion rather than per arc. *)
type sweep_stats = {
  mutable pops : int;
  mutable scanned : int;
  mutable relaxed : int;
}

let m_runs = Dcn_obs.Metrics.counter "dijkstra.runs"
let m_pops = Dcn_obs.Metrics.counter "dijkstra.heap_pops"
let m_scanned = Dcn_obs.Metrics.counter "dijkstra.arcs_scanned"
let m_relaxed = Dcn_obs.Metrics.counter "dijkstra.arcs_relaxed"

let flush_stats st =
  if Dcn_obs.Metrics.enabled () then begin
    Dcn_obs.Metrics.incr m_runs;
    Dcn_obs.Metrics.add m_pops st.pops;
    Dcn_obs.Metrics.add m_scanned st.scanned;
    Dcn_obs.Metrics.add m_relaxed st.relaxed
  end

(* Reusable per-solver state: the heap and the target marks survive across
   calls so the FPTAS hot loop allocates nothing per shortest-path tree.

   The heap is a binary min-heap over two parallel arrays, [heap_key] and
   [heap_node], that [core] works on inline (a heap behind a module
   boundary is a call per push and pop, since dune's dev profile builds
   with -opaque, and the relaxation loop spills its live values around
   it). Decrease-key is lazy deletion: a node is pushed again when its
   distance falls and the stale entries are skipped when popped. A node
   expands at most once and each push is the source or a relaxation of an
   arc out of an expanding node, so a run pushes at most [1 + m] entries:
   a run on a graph of [m] arcs first makes sure the arrays hold [m + 1]
   (allocating only when the scratch has not yet seen that many arcs),
   and they never grow inside it. *)
type scratch = {
  mutable heap_key : float array;
  mutable heap_node : int array;
  is_target : bool array;
  stats : sweep_stats;
}

let make_scratch n =
  {
    heap_key = [||];
    heap_node = [||];
    is_target = Array.make n false;
    stats = { pops = 0; scanned = 0; relaxed = 0 };
  }

(* Core loop shared by the full and the target-limited variants. Returns
   [false] if it met a positive-capacity arc with a negative length: the
   run stops at that node's expansion (so a negative cycle cannot keep it
   going) and the tree is garbage.

   Stop as soon as [remaining] nodes marked in [scratch.is_target] have
   been finalized (a full sweep passes [remaining = -1] with no marks
   set): at that point their [dist] and the [parent_arc] chains above
   them are final (ancestors on a shortest path have strictly
   smaller distance — lengths are positive — so they were finalized
   earlier, and a finalized node's entries can never change again), which
   is exactly what the callers read. Entries of non-finalized nodes may be
   left tentative. The operation sequence up to the stopping point is
   identical to the full run, so finalized distances are bit-for-bit the
   same as the full sweep's.

   Pop order, ties included, is that of the classic swap-free sift-down of
   the last entry from the root (follow the smaller child, the left one on
   ties, while it is smaller than the moving key). The deletion here is
   bottom-up: it walks that same smaller-child path all the way to a leaf,
   shifting each entry up one level, then moves back down the entries not
   smaller than the moving key. Keys along the path never decrease, so it
   ends with the classic layout, with fewer comparisons: the last entry
   usually belongs near the bottom. *)
let core scratch (c : Graph.csr) ~lengths ~src tree remaining =
  let arc_cap = c.Graph.csr_arc_cap
  and adj_off = c.Graph.csr_adj_off
  and adj_arc = c.Graph.csr_adj_arc
  and adj_dst = c.Graph.csr_adj_dst in
  let m = Array.length adj_arc in
  if Array.length scratch.heap_key <= m then begin
    scratch.heap_key <- Array.make (m + 1) 0.0;
    scratch.heap_node <- Array.make (m + 1) 0
  end;
  let keys = scratch.heap_key
  and nodes = scratch.heap_node
  and marks = scratch.is_target in
  let dist = tree.dist and parent_arc = tree.parent_arc in
  Array.fill dist 0 (Array.length dist) infinity;
  Array.fill parent_arc 0 (Array.length parent_arc) (-1);
  dist.(src) <- 0.0;
  keys.(0) <- 0.0;
  nodes.(0) <- src;
  let size = ref 1 in
  let remaining = ref remaining in
  let continue_ = ref true and negative = ref false in
  let pops = ref 0 and scanned = ref 0 and relaxed = ref 0 in
  while !continue_ && !size > 0 do
    let d = Array.unsafe_get keys 0 and u = Array.unsafe_get nodes 0 in
    incr pops;
    let last = !size - 1 in
    size := last;
    if last > 0 then begin
      let key = Array.unsafe_get keys last
      and node = Array.unsafe_get nodes last in
      let hole = ref 0 and child = ref 1 in
      while !child < last do
        let l = !child in
        let c =
          if l + 1 < last
             && Array.unsafe_get keys (l + 1) < Array.unsafe_get keys l
          then l + 1
          else l
        in
        Array.unsafe_set keys !hole (Array.unsafe_get keys c);
        Array.unsafe_set nodes !hole (Array.unsafe_get nodes c);
        hole := c;
        child := (2 * c) + 1
      done;
      let i = ref !hole in
      while
        !i > 0 && not (Array.unsafe_get keys ((!i - 1) lsr 1) < key)
      do
        let p = (!i - 1) lsr 1 in
        Array.unsafe_set keys !i (Array.unsafe_get keys p);
        Array.unsafe_set nodes !i (Array.unsafe_get nodes p);
        i := p
      done;
      Array.unsafe_set keys !i key;
      Array.unsafe_set nodes !i node
    end;
    (* Lazy deletion: skip stale entries. *)
    if d <= Array.unsafe_get dist u then begin
      if Array.unsafe_get marks u then begin
        Array.unsafe_set marks u false;
        decr remaining;
        if !remaining = 0 then continue_ := false
      end;
      if !continue_ then begin
        let start = Array.unsafe_get adj_off u in
        let stop = Array.unsafe_get adj_off (u + 1) in
        scanned := !scanned + (stop - start);
        for idx = start to stop - 1 do
          let a = Array.unsafe_get adj_arc idx in
          if Array.unsafe_get arc_cap a > 0.0 then begin
            let w = Array.unsafe_get lengths a in
            if w < 0.0 then negative := true
            else begin
              let v = Array.unsafe_get adj_dst idx in
              let nd = d +. w in
              if nd < Array.unsafe_get dist v then begin
                incr relaxed;
                Array.unsafe_set dist v nd;
                Array.unsafe_set parent_arc v a;
                let i = ref !size in
                size := !i + 1;
                while
                  !i > 0 && nd < Array.unsafe_get keys ((!i - 1) lsr 1)
                do
                  let p = (!i - 1) lsr 1 in
                  Array.unsafe_set keys !i (Array.unsafe_get keys p);
                  Array.unsafe_set nodes !i (Array.unsafe_get nodes p);
                  i := p
                done;
                Array.unsafe_set keys !i nd;
                Array.unsafe_set nodes !i v
              end
            end
          end
        done;
        if !negative then continue_ := false
      end
    end
  done;
  let st = scratch.stats in
  st.pops <- !pops;
  st.scanned <- !scanned;
  st.relaxed <- !relaxed;
  not !negative

let negative_length () = invalid_arg "Dijkstra: negative arc length"

(* Mark [targets], counting each node once; top-level recursions rather
   than closures, so a sweep allocates nothing. *)
let rec mark_targets marks count = function
  | [] -> count
  | v :: rest ->
      if marks.(v) then mark_targets marks count rest
      else begin
        marks.(v) <- true;
        mark_targets marks (count + 1) rest
      end

let rec clear_targets marks = function
  | [] -> ()
  | v :: rest ->
      marks.(v) <- false;
      clear_targets marks rest

(* Target-limited variant for the FPTAS: stops once every destination in
   [targets] has been finalized (or the reachable set is exhausted —
   unreached targets keep [dist = infinity], as in the full sweep).
   [targets] may contain duplicates; marks are counted once. *)
let shortest_tree_targets scratch (c : Graph.csr) ~lengths ~src ~targets tree =
  let marks = scratch.is_target in
  let count = mark_targets marks 0 targets in
  if count = 0 then begin
    (* No targets: nothing to compute beyond resetting the tree. *)
    Array.fill tree.dist 0 (Array.length tree.dist) infinity;
    Array.fill tree.parent_arc 0 (Array.length tree.parent_arc) (-1);
    tree.dist.(src) <- 0.0
  end
  else begin
    let ok = core scratch c ~lengths ~src tree count in
    (* The core consumes marks as targets finalize; clear any leftover
       (unreachable targets, or a run stopped by a negative length) so the
       scratch is clean for the next call. *)
    clear_targets marks targets;
    if not ok then negative_length ();
    flush_stats scratch.stats
  end

let shortest_tree g ~lengths ~src =
  let tree =
    { dist = Array.make (Graph.n g) infinity;
      parent_arc = Array.make (Graph.n g) (-1) }
  in
  let scratch = make_scratch (Graph.n g) in
  if not (core scratch (Graph.csr g) ~lengths ~src tree (-1)) then
    negative_length ();
  flush_stats scratch.stats;
  tree

let path_arcs g tree v =
  if Float.equal tree.dist.(v) infinity then raise Not_found;
  let rec walk v acc =
    match tree.parent_arc.(v) with
    | -1 -> acc
    | a -> walk (Graph.arc_src g a) (a :: acc)
  in
  walk v []

let path_length ~lengths arcs =
  List.fold_left (fun acc a -> acc +. lengths.(a)) 0.0 arcs
