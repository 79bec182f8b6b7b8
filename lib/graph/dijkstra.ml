type tree = { dist : float array; parent_arc : int array }

(* Sweep statistics, accumulated unconditionally (each update rides on an
   operation that is already tens of nanoseconds — a heap sift or a tree
   write — so the disabled-instrumentation cost is noise) and flushed to
   the global registry once per sweep, only when metrics are enabled.
   [scanned] is bumped by the out-degree at node expansion rather than per
   arc, keeping the inner relaxation loop untouched. *)
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
   [key] is the one-slot buffer {!Dcn_util.Heap.pop_into} writes the popped
   key to (a float returned across modules would be boxed). *)
type scratch = {
  heap : Dcn_util.Heap.t;
  key : float array;
  is_target : bool array;
  stats : sweep_stats;
}

let make_scratch n =
  {
    heap = Dcn_util.Heap.create n;
    key = [| 0.0 |];
    is_target = Array.make n false;
    stats = { pops = 0; scanned = 0; relaxed = 0 };
  }

(* Core loop shared by the full and the target-limited variants.

   Stop as soon as [remaining] nodes marked in [scratch.is_target] have
   been finalized (a full sweep passes [remaining = -1] with no marks
   set): at that point their [dist] and the [parent_arc] chains above
   them are final (ancestors on a shortest path have strictly
   smaller distance — lengths are positive — so they were finalized
   earlier, and a finalized node's entries can never change again), which
   is exactly what the callers read. Entries of non-finalized nodes may be
   left tentative. The operation sequence up to the stopping point is
   identical to the full run, so finalized distances are bit-for-bit the
   same as the full sweep's. *)
let core scratch (c : Graph.csr) ~lengths ~src tree remaining =
  let heap = scratch.heap and key = scratch.key and marks = scratch.is_target in
  let st = scratch.stats in
  st.pops <- 0;
  st.scanned <- 0;
  st.relaxed <- 0;
  let dist = tree.dist and parent_arc = tree.parent_arc in
  Array.fill dist 0 (Array.length dist) infinity;
  Array.fill parent_arc 0 (Array.length parent_arc) (-1);
  dist.(src) <- 0.0;
  let arc_dst = c.Graph.csr_arc_dst
  and arc_cap = c.Graph.csr_arc_cap
  and adj_off = c.Graph.csr_adj_off
  and adj_arc = c.Graph.csr_adj_arc in
  Dcn_util.Heap.clear heap;
  Dcn_util.Heap.push_at heap dist src;
  let remaining = ref remaining in
  let continue_ = ref true in
  while !continue_ && not (Dcn_util.Heap.is_empty heap) do
    let u = Dcn_util.Heap.pop_into heap key in
    let d = Array.unsafe_get key 0 in
    st.pops <- st.pops + 1;
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
        st.scanned <- st.scanned + (stop - start);
        for idx = start to stop - 1 do
          let a = Array.unsafe_get adj_arc idx in
          if Array.unsafe_get arc_cap a > 0.0 then begin
            let w = Array.unsafe_get lengths a in
            if w < 0.0 then invalid_arg "Dijkstra: negative arc length";
            let v = Array.unsafe_get arc_dst a in
            let nd = d +. w in
            if nd < Array.unsafe_get dist v then begin
              st.relaxed <- st.relaxed + 1;
              Array.unsafe_set dist v nd;
              Array.unsafe_set parent_arc v a;
              Dcn_util.Heap.push_at heap dist v
            end
          end
        done
      end
    end
  done

let shortest_tree_into g ~lengths ~src tree =
  let scratch = make_scratch (Graph.n g) in
  core scratch (Graph.csr g) ~lengths ~src tree (-1);
  flush_stats scratch.stats

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
    core scratch c ~lengths ~src tree count;
    flush_stats scratch.stats
  end;
  (* The core consumes marks as targets finalize; clear any leftover from
     unreachable targets so the scratch is clean for the next call. *)
  clear_targets marks targets

let shortest_tree g ~lengths ~src =
  let tree =
    { dist = Array.make (Graph.n g) infinity;
      parent_arc = Array.make (Graph.n g) (-1) }
  in
  shortest_tree_into g ~lengths ~src tree;
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
