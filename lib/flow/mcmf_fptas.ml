open Dcn_graph
module Metrics = Dcn_obs.Metrics

(* The shared [fptas.*] counters are {!Gk_loop.solve}'s; the routing
   counters below are flushed through its hook, once per solve.
   Dijkstra-level work (heap pops, arcs relaxed) is accounted by
   {!Dcn_graph.Dijkstra} itself. *)
let fptas = Gk_loop.solver "fptas"
let m_tree_rebuilds = Metrics.counter "fptas.tree_rebuilds"
let m_paths_reused = Metrics.counter "fptas.paths_reused"

(* Warm-start accounting. [fptas.phases_saved] is an estimate: the
   producing solve's phase count minus this call's (every phase a solve
   counts is one it routed), a proxy in which the neighboring instance's
   cold cost stands in for this instance's. [fptas.delta_solves] counts
   failure re-solves ({!resolve_after_failure}), which also count as warm
   starts. A seed dropped for its shape leaves a cold solve, counted in
   neither. *)
let m_warm_starts = Metrics.counter "fptas.warm_starts"
let m_phases_saved = Metrics.counter "fptas.phases_saved"
let m_delta_solves = Metrics.counter "fptas.delta_solves"

type params = Gk_loop.params = { eps : float; gap : float; max_phases : int }

exception Cancelled = Gk_loop.Cancelled

let with_cancel = Gk_loop.with_cancel
let default_params = { eps = 0.05; gap = 0.03; max_phases = 100_000 }
let quick_params = { eps = 0.1; gap = 0.08; max_phases = 100_000 }

type result = Gk_loop.result = {
  lambda_lower : float;
  lambda_upper : float;
  arc_flow : float array;
  phases : int;
  converged : bool;
}

(* ---- warm state ----

   Everything a later solve can soundly reuse, captured only at the end of
   a successful solve (so cancellation can never publish a torn state) and
   never aliased with live solver internals: the arrays are copies (or
   handed off exclusively), and consumers copy them back in before
   mutating. *)

type warm_state = {
  w_n : int;
  w_num_arcs : int;
  w_commodities : Commodity.t array;
  w_scale : float;
  w_eps : float;
  w_phases : int;
  w_dual : float;
  w_lengths : float array;
  w_group_flow : float array array option;
      (* per source group, per arc: the group's share of the raw
         (unnormalized) flow. Summing over groups reproduces the aggregate
         flow exactly (each routed chunk is added to exactly one
         group). *)
}

type solve_state = { result : result; warm : warm_state }

let commodities_equal a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri
    (fun i (c : Commodity.t) ->
      let d = b.(i) in
      if
        c.src <> d.Commodity.src || c.dst <> d.Commodity.dst
        || not (Float.equal c.demand d.Commodity.demand)
      then ok := false)
    a;
  !ok

let mean_distance g commodities =
  Graph_metrics.weighted_pair_distance_array g
    ~pairs:
      (Array.map
         (fun (c : Commodity.t) -> (c.src, c.dst, c.demand))
         commodities)

let theorem1_bound ~mean_dist g commodities =
  Graph.total_capacity g /. (mean_dist *. Commodity.total_demand commodities)

(* Pre-scale demands so the optimum concurrency is Θ(1): the number of
   phases the FPTAS needs is proportional to λ*, so a wildly large or small
   λ* would waste work. The Theorem-1 bound is a cheap upper bound on λ*
   and empirically within ~2x of it on the graphs we care about; after
   scaling demands by it, the bound on λ* becomes 1. Results are scaled
   back transparently. *)
let demand_scale ~mean_dist g commodities =
  Float.max 1e-30
    (theorem1_bound ~mean_dist:(Float.max 1.0 mean_dist) g commodities)

(* Cheap per-solve event tallies, flushed to the registry by [run]. *)
type obs = { mutable o_tree_rebuilds : int; mutable o_paths_reused : int }

(* ---- the per-source fan-out ----

   The dual sweep builds one tree per source group at fixed lengths, so
   the groups are independent: they run as one {!Dcn_util.Pool} batch over
   contiguous chunks of groups. Every group writes only its own slots
   (per-commodity distances, the group's own path buffer), and anything
   summed over groups is summed afterwards by the caller in commodity
   order, so the answer is bit-identical at any worker count. *)

(* A participant's Dijkstra scratch, tree and path buffer for graphs of
   [ws_n] nodes, one per domain in [Domain.DLS], allocated by the domain
   that uses it: scratches allocated together on the caller put their
   small mutable records (the references to the heap arrays that live in
   the Dijkstra scratch, the sweep stats) on shared cache lines, and
   concurrent sweeps then stall each other. [ws_busy] marks a
   workspace in use, so a second sweep on the same domain (another
   systhread) takes a private one instead of sharing it. *)
type workspace = {
  ws_n : int;
  ws_scratch : Dijkstra.scratch;
  ws_tree : Dijkstra.tree;
  ws_path : int array;
  mutable ws_busy : bool;
}

let make_workspace n =
  {
    ws_n = n;
    ws_scratch = Dijkstra.make_scratch n;
    ws_tree =
      { Dijkstra.dist = Array.make n infinity; parent_arc = Array.make n (-1) };
    ws_path = Array.make (max 1 (n - 1)) (-1);
    ws_busy = false;
  }

let workspace_key : workspace option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let acquire_workspace n =
  match Domain.DLS.get workspace_key with
  | Some ws when ws.ws_n = n && not ws.ws_busy ->
      ws.ws_busy <- true;
      ws
  | Some ws when ws.ws_n = n -> make_workspace n
  | _ ->
      let ws = make_workspace n in
      ws.ws_busy <- true;
      Domain.DLS.set workspace_key (Some ws);
      ws

(* Run [kernel ws lo hi] over groups [[lo, hi)] with this domain's
   workspace. *)
let with_workspace n kernel lo hi =
  let ws = acquire_workspace n in
  match kernel ws lo hi with
  | () -> ws.ws_busy <- false
  | exception e ->
      ws.ws_busy <- false;
      raise e

(* About [chunks_per_participant] chunks per participant (the pool's
   workers plus the caller) even out trees of unequal cost. A sweep of
   fewer than [min_parallel_work] groups × arcs (about a millisecond at
   the ~14 ns per scanned arc measured on a 2-core VM) runs as a plain
   loop, as it does with no workers: waking a worker and waiting for its
   chunk costs tens of microseconds per phase, which such a sweep cannot
   repay, and the many small solves of a figure sweep already keep every
   domain busy. *)
let chunks_per_participant = 8
let min_parallel_work = 1 lsl 16

let chunk_count ~num_arcs ~ngroups =
  let workers = Dcn_util.Pool.workers () in
  if workers = 0 || ngroups < 2 || ngroups * num_arcs < min_parallel_work then 1
  else min ngroups (chunks_per_participant * (workers + 1))

(* Chunk [c] of [chunks] is groups [[chunk_lo, chunk_lo (c + 1))]. *)
let chunk_lo ~ngroups ~chunks c = c * ngroups / chunks

(* Walk the tree path from [v] up to the source into [buf] from index
   [k] on ([buf.(0)] is the arc into the path's end when [k = 0]); return
   the arc count. Top-level, so a walk allocates no closure. *)
let rec tree_path ~arc_src parent_arc buf v k =
  let a = Array.unsafe_get parent_arc v in
  if a = -1 then k
  else begin
    Array.unsafe_set buf k a;
    tree_path ~arc_src parent_arc buf (Array.unsafe_get arc_src a) (k + 1)
  end

(* The group-flow additions of a phase routed ahead ({!Gk_loop.run}), in
   routing order: entry [e] is a path of group [g] with [k] arcs, stored
   as [g; k; arc ...] in [paths], shipping [amounts.(e)]. Replayed into
   the group flows when the phase is kept, dropped when it is rolled
   back. A path crosses an arc at most once, so every cell gets the
   additions it would have got from routing straight into it, in the
   same order, and no groups × arcs copy is needed. *)
type group_log = {
  mutable paths : int array;
  mutable fill : int;
  mutable amounts : float array;
  mutable entries : int;
}

let grow a len zero =
  let b = Array.make (2 * len) zero in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Append group [gi]'s path [path.(0 .. k - 1)]; return the entry, whose
   amount the caller sets. *)
let log_path lg gi path k =
  let start = lg.fill and e = lg.entries in
  if start + 2 + k > Array.length lg.paths then
    lg.paths <- grow lg.paths (start + 2 + k) 0;
  if e = Array.length lg.amounts then lg.amounts <- grow lg.amounts (e + 1) 0.0;
  lg.paths.(start) <- gi;
  lg.paths.(start + 1) <- k;
  Array.blit path 0 lg.paths (start + 2) k;
  lg.fill <- start + 2 + k;
  lg.entries <- e + 1;
  e

let clear_log lg =
  lg.fill <- 0;
  lg.entries <- 0

let replay_log lg gflow =
  let pos = ref 0 in
  for e = 0 to lg.entries - 1 do
    let gf = gflow.(lg.paths.(!pos)) and k = lg.paths.(!pos + 1) in
    let amount = lg.amounts.(e) in
    for x = !pos + 2 to !pos + 1 + k do
      let a = lg.paths.(x) in
      gf.(a) <- gf.(a) +. amount
    done;
    pos := !pos + 2 + k
  done;
  clear_log lg

(* What a solve starts from: cold, a length seed ({!solve_with_state}),
   or the baseline of a failure re-solve ({!resolve_after_failure}), of
   which only the demand scale and the dual bound carry over. *)
type start = Cold | Seeded of warm_state | Failure of warm_state

(* [mean_dist] is ⟨D⟩ when the caller already has it ([None]: computed
   here if the scale needs it). *)
let solve_impl ~params ~stats ~obs ~start ~mean_dist ~track_groups g
    commodities =
  Gk_loop.validate params;
  if Array.length commodities = 0 then invalid_arg "Mcmf_fptas: no commodities";
  let n = Graph.n g in
  Commodity.validate ~n commodities;
  let m_all = Graph.num_arcs g in
  let m_pos = ref 0 in
  Graph.iter_arcs g (fun a -> if Graph.arc_cap g a > 0.0 then incr m_pos);
  if !m_pos = 0 then invalid_arg "Mcmf_fptas: graph has no capacity";
  (* The scale is a pure change of units — any positive value yields a
     correct certificate — so when the demand vector is unchanged we reuse
     the seed's scale and skip the BFS sweep behind [mean_distance]. *)
  let scale =
    match start with
    | (Seeded w | Failure w) when commodities_equal w.w_commodities commodities
      ->
        w.w_scale
    | Cold | Seeded _ | Failure _ ->
        demand_scale g commodities
          ~mean_dist:
            (match mean_dist with
            | Some d -> d
            | None -> mean_distance g commodities)
  in
  (* The length step shrinks adaptively ({!Gk_loop.run}). A warm start
     resumes at the seed's reached eps (clamped to the requested range) so
     the chain does not re-pay the halving ladder; any other solve starts
     from the cold floor, so it paces itself like a cold solve. *)
  let eps =
    ref
      (match start with
      | Seeded w -> Gk_loop.warm_eps params w.w_eps
      | Cold | Failure _ -> Gk_loop.start_eps params)
  in
  let groups =
    Commodity.group_by_source ~n
      (Array.map
         (fun (c : Commodity.t) -> { c with Commodity.demand = c.demand *. scale })
         commodities)
  in
  let ngroups = Array.length groups in
  (* Per-source target lists, computed once: the shortest-path sweeps only
     need distances (and tree paths) to these destinations, so Dijkstra can
     stop as soon as all of them are finalized. *)
  let group_targets =
    Array.map (fun (_, dests) -> List.map fst dests) groups
  in
  (* Commodity [j] of group [gi] (in [dests] order) has flat index
     [group_off.(gi) + j]. *)
  let group_off = Array.make (ngroups + 1) 0 in
  Array.iteri
    (fun gi (_, dests) ->
      group_off.(gi + 1) <- group_off.(gi) + List.length dests)
    groups;
  let ncomm = group_off.(ngroups) in
  (* Flat per-group and per-commodity views of [groups], which the
     fan-out's kernels read without allocating. *)
  let group_src = Array.map fst groups in
  let comm_dst = Array.make ncomm 0 and comm_demand = Array.make ncomm 0.0 in
  Array.iteri
    (fun gi (_, dests) ->
      List.iteri
        (fun j (dst, d) ->
          comm_dst.(group_off.(gi) + j) <- dst;
          comm_demand.(group_off.(gi) + j) <- d)
        dests)
    groups;
  (* [comm_rest.(ci)]: the destinations of commodity [ci] and of the ones
     after it in its group, a suffix of the group's sorted target list
     (shared, not copied). A tree rebuilt mid-group serves only these, so
     it can stop once they are finalized; the labels it finalizes are
     those of the full rebuild, bit for bit. *)
  let comm_rest = Array.make ncomm [] in
  let rec fill_rest ci = function
    | [] -> ()
    | _ :: tl as rest ->
        comm_rest.(ci) <- rest;
        fill_rest (ci + 1) tl
  in
  Array.iteri (fun gi ts -> fill_rest group_off.(gi) ts) group_targets;
  (* Paths stored by the last dual sweep, one per commodity, in one buffer
     per group: commodity [ci] of group [gi] has the arcs
     [sp_arcs.(gi).(start) .. sp_arcs.(gi).(sp_end.(ci) - 1)] in
     [path_buf] order, where [start] is 0 for the group's first commodity
     and [sp_end.(ci - 1)] otherwise, and [sp_dist.(ci)] is its length
     when the sweep ran. Valid ([sp_valid]) from the first sweep on:
     routing ahead only grows the lengths, and a rollback restores the
     frozen lengths the sweep read. *)
  let sp_end = Array.make ncomm 0 in
  let sp_arcs =
    Array.init ngroups (fun gi ->
        Array.make (4 * (group_off.(gi + 1) - group_off.(gi))) 0)
  in
  let sp_dist = Array.make ncomm 0.0 in
  let sp_valid = ref false in
  let csr = Graph.csr g in
  let arc_src = csr.Graph.csr_arc_src and arc_cap = csr.Graph.csr_arc_cap in
  let lengths = Array.make m_all 0.0 in
  Gk_loop.init_lengths ~eps:!eps ~cap:arc_cap lengths;
  (match start with
  | Seeded w ->
      (* Seeded lengths: copy the seed (never mutate the caller's state);
         arcs the seed left at zero — e.g. capacity restored between
         instances — keep the cold floor so every usable arc has a positive
         length. The dual bound is valid for any positive lengths, so this
         is purely a quality-of-start choice. *)
      Array.iteri
        (fun a c ->
          let seed = w.w_lengths.(a) in
          if c > 0.0 && seed > 0.0 then lengths.(a) <- seed)
        arc_cap
  | Cold | Failure _ -> ());
  let flow = Array.make m_all 0.0 in
  (* Per-group flow tracking, requested by callers that want the group
     flows in the returned warm state. Kept out of the per-arc routing
     loop: the extra write loop runs once per routed path, only when
     tracking. A phase routed ahead writes to [glog] instead. *)
  let gflow =
    if track_groups then
      Some (Array.init ngroups (fun _ -> Array.make m_all 0.0))
    else None
  in
  let glog = { paths = [||]; fill = 0; amounts = [||]; entries = 0 } in
  let routing_ahead = ref false in
  let tree =
    { Dijkstra.dist = Array.make n infinity; parent_arc = Array.make n (-1) }
  in
  let scratch = Dijkstra.make_scratch n in
  let build_tree ~src ~targets =
    Dijkstra.shortest_tree_targets scratch csr ~lengths ~src ~targets tree
  in
  (* Reusable arc buffer for the tree path currently being routed. A simple
     path has at most [n - 1] arcs, so one allocation serves the whole
     solve. [path_buf.(0)] is the arc into the destination; the arc leaving
     the source is at index [path_len - 1]. *)
  let path_buf = Array.make (max 1 (n - 1)) (-1) in
  (* Copy commodity [ci] of group [gi]'s stored path into [path_buf];
     return its arc count. *)
  let load_stored gi ci =
    let off = if ci = group_off.(gi) then 0 else sp_end.(ci - 1) in
    let k = sp_end.(ci) - off in
    Array.blit sp_arcs.(gi) off path_buf 0 k;
    k
  in
  (* Whether the group being routed is on a fresh tree rather than on the
     stored paths. *)
  let on_tree = ref false in
  (* Ship commodity [ci] of group [gi]'s demand, each piece on a path
     whose current length is within [(1 + eps)] of a lower bound on its
     current distance (Fleischer's rule). The reference is the distance at
     the time the path was computed: lengths only grow, so it stays a
     lower bound. The first stale path switches the rest of the group to a
     freshly built tree to [comm_rest.(ci)], the destinations still to be
     routed.

     The routing pass allocates nothing: floats stay in local references,
     and minima are plain comparisons (capacities and amounts are
     positive, never NaN, so they pick what [Float.min] picks). The path
     length sums from the source end, keeping the float addition order of
     the original list-based implementation, so staleness decisions (and
     hence the whole trajectory) are bit-identical. *)
  let route_commodity gi ci =
    let dst = comm_dst.(ci) in
    let rem = ref comm_demand.(ci) in
    while !rem > 0.0 do
      let ref_dist =
        if !on_tree then tree.Dijkstra.dist.(dst) else sp_dist.(ci)
      in
      if ref_dist >= infinity then
        invalid_arg "Mcmf_fptas: commodity endpoints are disconnected";
      let k =
        if !on_tree then
          tree_path ~arc_src tree.Dijkstra.parent_arc path_buf dst 0
        else load_stored gi ci
      in
      let len = ref 0.0 and bottleneck = ref infinity in
      for i = k - 1 downto 0 do
        let a = Array.unsafe_get path_buf i in
        len := !len +. Array.unsafe_get lengths a;
        let c = Array.unsafe_get arc_cap a in
        if c < !bottleneck then bottleneck := c
      done;
      if !len > (1.0 +. !eps) *. ref_dist then begin
        (* Path is stale: rebuild the tree and retry on it. *)
        obs.o_tree_rebuilds <- obs.o_tree_rebuilds + 1;
        build_tree ~src:group_src.(gi) ~targets:comm_rest.(ci);
        on_tree := true
      end
      else begin
        let amount = if !bottleneck < !rem then !bottleneck else !rem in
        for i = k - 1 downto 0 do
          let a = Array.unsafe_get path_buf i in
          Array.unsafe_set flow a (Array.unsafe_get flow a +. amount);
          let cap = Array.unsafe_get arc_cap a in
          Array.unsafe_set lengths a
            (Array.unsafe_get lengths a *. (1.0 +. (!eps *. amount /. cap)))
        done;
        (match gflow with
        | None -> ()
        | Some gf ->
            if !routing_ahead then
              glog.amounts.(log_path glog gi path_buf k) <- amount
            else begin
              let gfa = gf.(gi) in
              for i = k - 1 downto 0 do
                let a = Array.unsafe_get path_buf i in
                Array.unsafe_set gfa a (Array.unsafe_get gfa a +. amount)
              done
            end);
        rem := !rem -. amount
      end
    done
  in
  (* Route all of group [gi]'s demand, starting on the paths of the last
     dual sweep when [stored], otherwise on a fresh tree. *)
  let route_group ~stored gi =
    let targets = group_targets.(gi) in
    on_tree := not stored;
    if not stored then build_tree ~src:group_src.(gi) ~targets;
    for ci = group_off.(gi) to group_off.(gi + 1) - 1 do
      route_commodity gi ci
    done;
    if not !on_tree then obs.o_paths_reused <- obs.o_paths_reused + 1
  in
  (* The dual sweep over groups [[lo, hi)] at lengths [at]: each group's
     tree, every commodity's distance into [sp_dist] and its path into the
     group's buffer. Allocates nothing unless a group's buffer must
     grow. *)
  let sweep_groups at ws lo hi =
    let tree = ws.ws_tree and path = ws.ws_path in
    for gi = lo to hi - 1 do
      Dijkstra.shortest_tree_targets ws.ws_scratch csr ~lengths:at
        ~src:group_src.(gi) ~targets:group_targets.(gi) tree;
      let fill = ref 0 in
      for ci = group_off.(gi) to group_off.(gi + 1) - 1 do
        let dst = comm_dst.(ci) in
        sp_dist.(ci) <- tree.Dijkstra.dist.(dst);
        let k = tree_path ~arc_src tree.Dijkstra.parent_arc path dst 0 in
        if !fill + k > Array.length sp_arcs.(gi) then begin
          let grown = Array.make (2 * (!fill + k)) 0 in
          Array.blit sp_arcs.(gi) 0 grown 0 !fill;
          sp_arcs.(gi) <- grown
        end;
        Array.blit path 0 sp_arcs.(gi) !fill k;
        fill := !fill + k;
        sp_end.(ci) <- !fill
      done
    done
  in
  (* Σ_j d_j · dist_l(j) over [sp_dist], in commodity order. *)
  let weighted_distance () =
    let alpha = ref 0.0 in
    for ci = 0 to ncomm - 1 do
      alpha := !alpha +. (comm_demand.(ci) *. sp_dist.(ci))
    done;
    !alpha
  in
  (* The warm state keeps the whole history ([flow] and the group flows,
     [phases·d] per commodity) even when a window certified [certified]. *)
  let finish ~flow:certified ~phases ~lo ~hi ~mu ~converged =
    let warm_out =
      {
        w_n = n;
        w_num_arcs = m_all;
        w_commodities = Array.copy commodities;
        w_scale = scale;
        w_eps = !eps;
        w_phases = phases;
        w_dual = hi;
        w_lengths = Array.copy lengths;
        w_group_flow = gflow;
      }
    in
    let result =
      Gk_loop.result ~scale ~flow:certified ~phases ~lo ~hi ~mu ~converged
    in
    { result; warm = warm_out }
  in
  (* One phase of routing, every source group in order: on the paths the
     last dual sweep stored when there was one (they stay valid across a
     rollback, which restores the lengths the sweep read). *)
  let route () =
    let stored = !sp_valid in
    for gi = 0 to ngroups - 1 do
      route_group ~stored gi
    done
  in
  (* Route groups [[lo, hi)] of the phase ahead on the sweep's paths; the
     group flows go to [glog]. *)
  let route_ahead lo hi =
    let t0 = Gk_loop.tick () in
    routing_ahead := true;
    for gi = lo to hi - 1 do
      route_group ~stored:true gi
    done;
    routing_ahead := false;
    stats.Gk_loop.route_ns <- stats.Gk_loop.route_ns + Gk_loop.ns_since t0
  in
  (* [chunk_done.(c)] is the number of the last sweep whose chunk [c] is
     built; an atomic, so the router reads the chunk's paths only after
     the domain that built them published them. *)
  let chunk_done = Array.init ngroups (fun _ -> Atomic.make 0) in
  let sweeps = ref 0 in
  (* What a rolled-back phase counted. *)
  let kept_rebuilds = ref 0 and kept_reused = ref 0 in
  (* The dual sweep at the frozen lengths, then the next phase's routing
     on the live ones. The sweep is one batch of contiguous chunks of
     groups, and the caller routes each chunk's groups as soon as the
     chunk is built, building unclaimed chunks while it waits. A routed
     group reads only its own stored paths, so the routing reads what it
     would read after the whole sweep. With one chunk (no workers, or a
     small instance) the caller sweeps, then routes. *)
  let step ~lengths:frozen =
    kept_rebuilds := obs.o_tree_rebuilds;
    kept_reused := obs.o_paths_reused;
    let sweep = sweep_groups frozen in
    let chunks = chunk_count ~num_arcs:m_all ~ngroups in
    let lo c = chunk_lo ~ngroups ~chunks c in
    incr sweeps;
    let stamp = !sweeps in
    let built c = Atomic.get chunk_done.(c) = stamp in
    Dcn_util.Pool.run_with ~total:chunks
      (fun c ->
        match with_workspace n sweep (lo c) (lo (c + 1)) with
        | () -> Atomic.set chunk_done.(c) stamp
        | exception e ->
            Atomic.set chunk_done.(c) stamp;
            raise e)
      ~caller:(fun help ->
        for c = 0 to chunks - 1 do
          while (not (built c)) && help () do
            ()
          done;
          if not (built c) then begin
            (* Chunk [c] is being built elsewhere. *)
            let t0 = Gk_loop.tick () in
            while not (built c) do
              Domain.cpu_relax ()
            done;
            stats.Gk_loop.route_wait_ns <-
              stats.Gk_loop.route_wait_ns + Gk_loop.ns_since t0
          end;
          route_ahead (lo c) (lo (c + 1))
        done);
    sp_valid := true;
    weighted_distance ()
  in
  let settle ~keep =
    if keep then Option.iter (replay_log glog) gflow
    else begin
      clear_log glog;
      obs.o_tree_rebuilds <- !kept_rebuilds;
      obs.o_paths_reused <- !kept_reused
    end
  in
  (* Removing capacity can only lower λ*, so a failure baseline's dual
     bound still bounds the survivor graph. *)
  let best_dual =
    match start with Failure w -> w.w_dual | Cold | Seeded _ -> infinity
  in
  Gk_loop.run ~cat:"fptas" ~params ~stats ~eps ~cap:arc_cap ~flow ~lengths
    ~route ~step ~settle ~best_dual ~finish

let run ~params ~start ~mean_dist ~track_groups g commodities =
  (* A seed from a differently shaped instance cannot be applied (per-arc
     state is indexed by arc id); fall back to a cold start silently so
     sweep drivers can thread state without caring where a grid changes
     size. *)
  let start =
    match start with
    | Seeded w when w.w_num_arcs <> Graph.num_arcs g || w.w_n <> Graph.n g ->
        Cold
    | (Cold | Seeded _ | Failure _) as s -> s
  in
  let obs = { o_tree_rebuilds = 0; o_paths_reused = 0 } in
  let flush st =
    Metrics.add m_tree_rebuilds obs.o_tree_rebuilds;
    Metrics.add m_paths_reused obs.o_paths_reused;
    (match start with
    | Cold -> ()
    | Seeded w | Failure w ->
        Metrics.incr m_warm_starts;
        Metrics.add m_phases_saved (max 0 (w.w_phases - st.result.phases)));
    match start with
    | Failure _ -> Metrics.incr m_delta_solves
    | Cold | Seeded _ -> ()
  in
  Gk_loop.solve fptas ~result:(fun st -> st.result) ~flush (fun stats ->
      solve_impl ~params ~stats ~obs ~start ~mean_dist ~track_groups g
        commodities)

let solve_cold ~params ~mean_dist g commodities =
  (run ~params ~start:Cold ~mean_dist ~track_groups:false g commodities).result

let solve ?(params = default_params) g commodities =
  solve_cold ~params ~mean_dist:None g commodities

let solve_with_mean_dist ~params ~mean_dist g commodities =
  solve_cold ~params ~mean_dist:(Some mean_dist) g commodities

let solve_with_state ?(params = default_params) ?warm ?(track_groups = false) g
    commodities =
  let start = match warm with Some w -> Seeded w | None -> Cold in
  run ~params ~start ~mean_dist:None ~track_groups g commodities

let resolve_after_failure ?(params = default_params) ?(track_groups = false)
    ~warm ~failed g commodities =
  if warm.w_num_arcs <> Graph.num_arcs g || warm.w_n <> Graph.n g then
    invalid_arg "Mcmf_fptas.resolve_after_failure: instance shape mismatch";
  if not (commodities_equal warm.w_commodities commodities) then
    invalid_arg
      "Mcmf_fptas.resolve_after_failure: commodities differ from warm state";
  List.iter
    (fun a ->
      if a < 0 || a >= Graph.num_arcs g then
        invalid_arg "Mcmf_fptas.resolve_after_failure: arc id out of range")
    failed;
  run ~params ~start:(Failure warm) ~mean_dist:None ~track_groups g
    commodities

let lambda ?params g commodities = Gk_loop.midpoint (solve ?params g commodities)
