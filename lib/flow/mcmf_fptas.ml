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
   producing solve's certified phase count minus the phases this call
   actually routed — i.e. how many phases the seed let us inherit rather
   than re-execute. For delta-solves that is exact bookkeeping (inherited
   phases are literally not re-run); for cross-instance warm starts it is
   a proxy (the neighboring instance's cold cost stands in for this
   instance's). *)
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

type group_state = {
  gs_flow : float array array;
      (* per source group, per arc: the group's share of the raw
         (unnormalized) flow at capture time. Summing over groups
         reproduces the aggregate flow exactly (each routed chunk is added
         to exactly one group). *)
  gs_tree : Dijkstra.tree array;
      (* per source group: a full shortest-path tree at the captured
         lengths — the starting point for dynamic repair after a
         failure. *)
}

type warm_state = {
  w_n : int;
  w_num_arcs : int;
  w_commodities : Commodity.t array;
  w_scale : float;
  w_eps : float;
  w_phases : int;
  w_executed : int;
  w_dual : float;
  w_lengths : float array;
  w_groups : group_state option;
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

(* Pre-scale demands so the optimum concurrency is Θ(1): the number of
   phases the FPTAS needs is proportional to λ*, so a wildly large or small
   λ* would waste work. The Theorem-1 quantity C / (⟨D⟩_demand · f) is a
   cheap upper bound on λ* and empirically within ~2x of it on the graphs
   we care about. Results are scaled back transparently. *)
let demand_scale g commodities =
  let pairs =
    Array.map (fun (c : Commodity.t) -> (c.src, c.dst, c.demand)) commodities
  in
  let mean_dist = Graph_metrics.weighted_pair_distance_array g ~pairs in
  let capacity = Graph.total_capacity g in
  let demand = Commodity.total_demand commodities in
  let bound = capacity /. (Float.max 1.0 mean_dist *. demand) in
  (* After scaling demands by [bound], the Theorem-1 bound on λ* becomes 1. *)
  Float.max 1e-30 bound

(* Cheap per-solve event tallies, flushed to the registry by [run].
   [o_mode] records what the solve actually did (0 = cold, 1 =
   length-seeded warm start, 2 = delta-solve), [o_inherited] the seed's
   certified phase count. *)
type obs = {
  mutable o_tree_rebuilds : int;
  mutable o_paths_reused : int;
  mutable o_mode : int;
  mutable o_inherited : int;
}

let solve_impl ~params ~stats ~obs ~warm ~failed ~track_groups g commodities =
  Gk_loop.validate params;
  if Array.length commodities = 0 then invalid_arg "Mcmf_fptas: no commodities";
  let n = Graph.n g in
  Commodity.validate ~n commodities;
  let m_all = Graph.num_arcs g in
  let m_pos = ref 0 in
  Graph.iter_arcs g (fun a -> if Graph.arc_cap g a > 0.0 then incr m_pos);
  if !m_pos = 0 then invalid_arg "Mcmf_fptas: graph has no capacity";
  (* A seed from a differently shaped instance cannot be applied (per-arc
     state is indexed by arc id); fall back to a cold start silently so
     sweep drivers can thread state without caring where a grid changes
     size. *)
  let warm =
    match warm with
    | Some w when w.w_num_arcs = m_all && w.w_n = n -> Some w
    | _ -> None
  in
  (match warm with
  | Some w ->
      obs.o_mode <- 1;
      obs.o_inherited <- w.w_phases
  | None -> ());
  (* The scale is a pure change of units — any positive value yields a
     correct certificate — so when the demand vector is unchanged we reuse
     the seed's scale and skip the BFS sweep behind [demand_scale]. *)
  let scale =
    match warm with
    | Some w when commodities_equal w.w_commodities commodities -> w.w_scale
    | _ -> demand_scale g commodities
  in
  (* The length step shrinks adaptively ({!Gk_loop.run}). A warm start
     resumes at the seed's reached eps (clamped to the requested range) so
     the chain does not re-pay the halving ladder. *)
  let eps =
    ref
      (match warm with
      | Some w -> Gk_loop.warm_eps params w.w_eps
      | None -> params.eps)
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
  (* Paths stored by the last dual sweep, one per commodity, CSR-style:
     commodity [ci]'s arcs are [sp_arcs.(sp_off.(ci)) ..
     sp_arcs.(sp_off.(ci + 1) - 1)] in [path_buf] order, and [sp_dist.(ci)]
     is its length when the sweep ran. Valid ([sp_valid]) from a sweep
     until the next routing pass, and only while lengths have not shrunk
     since the sweep. *)
  let sp_off = Array.make (ncomm + 1) 0 in
  let sp_arcs = ref (Array.make (4 * ncomm) 0) in
  let sp_dist = Array.make ncomm 0.0 in
  let sp_valid = ref false in
  let csr = Graph.csr g in
  let arc_src = csr.Graph.csr_arc_src and arc_cap = csr.Graph.csr_arc_cap in
  let lengths = Array.make m_all 0.0 in
  Gk_loop.init_lengths ~eps:!eps ~cap:arc_cap lengths;
  (match warm with
  | Some w ->
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
  | None -> ());
  let flow = Array.make m_all 0.0 in
  (* Per-group flow tracking, requested by callers that want the returned
     warm state to support delta-solves. Kept out of the per-arc routing
     loop: the extra write loop runs once per routed path, only when
     tracking. *)
  let gflow =
    if track_groups then
      Some (Array.init ngroups (fun _ -> Array.make m_all 0.0))
    else None
  in
  (* Drop every shipped phase and restart from cold-floor lengths. A fine
     step inherited from the seed is the right pace only while we also
     keep the seed's lengths: a restart from the cold floor should pace
     itself like a cold solve. Each eps halving roughly doubles the phases
     to a given gap, so restarting at the seed's halved eps would make the
     fallback *slower* than the cold solve it is meant to beat. Reset the
     step and recompute the matching floor. *)
  let restart () =
    Array.fill flow 0 m_all 0.0;
    Option.iter (Array.iter (fun f -> Array.fill f 0 m_all 0.0)) gflow;
    sp_valid := false;
    eps := params.eps;
    Gk_loop.init_lengths ~eps:!eps ~cap:arc_cap lengths
  in
  let cur_gflow = ref None in
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
  (* Walk the tree path into [path_buf]; return its arc count. *)
  let load_path dst =
    let rec go v k =
      let a = Array.unsafe_get tree.Dijkstra.parent_arc v in
      if a = -1 then k
      else begin
        Array.unsafe_set path_buf k a;
        go (Array.unsafe_get arc_src a) (k + 1)
      end
    in
    go dst 0
  in
  (* Summing from the source end keeps the float addition order of the
     original list-based implementation, so staleness decisions (and hence
     the whole trajectory) are bit-identical. The bottleneck is
     order-independent. *)
  let path_length_and_bottleneck k =
    let len = ref 0.0 and bottleneck = ref infinity in
    for i = k - 1 downto 0 do
      let a = Array.unsafe_get path_buf i in
      len := !len +. Array.unsafe_get lengths a;
      bottleneck := Float.min !bottleneck (Array.unsafe_get arc_cap a)
    done;
    (!len, !bottleneck)
  in
  (* Route [amount] along the buffered path, updating lengths. *)
  let route_path k amount =
    for i = k - 1 downto 0 do
      let a = Array.unsafe_get path_buf i in
      Array.unsafe_set flow a (Array.unsafe_get flow a +. amount);
      let cap = Array.unsafe_get arc_cap a in
      Array.unsafe_set lengths a
        (Array.unsafe_get lengths a *. (1.0 +. (!eps *. amount /. cap)))
    done;
    match !cur_gflow with
    | Some gfa ->
        for i = k - 1 downto 0 do
          let a = Array.unsafe_get path_buf i in
          Array.unsafe_set gfa a (Array.unsafe_get gfa a +. amount)
        done
    | None -> ()
  in
  (* Copy commodity [ci]'s stored path into [path_buf]; return its arc
     count. *)
  let load_stored ci =
    let off = sp_off.(ci) in
    let k = sp_off.(ci + 1) - off in
    Array.blit !sp_arcs off path_buf 0 k;
    k
  in
  (* Route one group's commodities, each on a path whose current length is
     within [(1 + eps)] of a lower bound on its current distance
     (Fleischer's rule). The reference is the distance at the time the
     path was computed: lengths only grow, so it stays a lower bound.

     With [stored] the group starts on the paths of the last dual sweep
     ([commodities] must then be the group's full [dests], so positions
     match the stored indices), otherwise on a fresh tree. The first stale
     path switches the rest of the group to a freshly built tree. *)
  let route_source ?(stored = false) gi s commodities targets =
    (match gflow with
    | Some gf -> cur_gflow := Some gf.(gi)
    | None -> ());
    let on_tree = ref (not stored) in
    if not stored then build_tree ~src:s ~targets;
    let rec route_commodity ci dst rem =
      if rem > 0.0 then begin
        let ref_dist =
          if !on_tree then tree.Dijkstra.dist.(dst) else sp_dist.(ci)
        in
        if Float.equal ref_dist infinity then
          invalid_arg "Mcmf_fptas: commodity endpoints are disconnected";
        let k = if !on_tree then load_path dst else load_stored ci in
        let current_len, bottleneck = path_length_and_bottleneck k in
        if current_len > (1.0 +. !eps) *. ref_dist then begin
          (* Path is stale: rebuild the tree and retry on it. *)
          obs.o_tree_rebuilds <- obs.o_tree_rebuilds + 1;
          build_tree ~src:s ~targets;
          on_tree := true;
          route_commodity ci dst rem
        end
        else begin
          let amount = Float.min rem bottleneck in
          route_path k amount;
          route_commodity ci dst (rem -. amount)
        end
      end
    in
    List.iteri
      (fun j (dst, d) -> route_commodity (group_off.(gi) + j) dst d)
      commodities;
    if not !on_tree then obs.o_paths_reused <- obs.o_paths_reused + 1
  in
  (* Σ_j d_j · dist_l(j) for the dual bound. The sweep's trees are the
     shortest paths the next phase starts from, so their paths to the
     destinations are stored for it. *)
  let alpha () =
    let alpha = ref 0.0 in
    let fill = ref 0 in
    Array.iteri
      (fun gi (s, dests) ->
        build_tree ~src:s ~targets:group_targets.(gi);
        List.iteri
          (fun j (dst, d) ->
            let ci = group_off.(gi) + j in
            let dist = tree.Dijkstra.dist.(dst) in
            alpha := !alpha +. (d *. dist);
            sp_dist.(ci) <- dist;
            let k = load_path dst in
            if !fill + k > Array.length !sp_arcs then begin
              let grown = Array.make (2 * (!fill + k)) 0 in
              Array.blit !sp_arcs 0 grown 0 !fill;
              sp_arcs := grown
            end;
            Array.blit path_buf 0 !sp_arcs !fill k;
            fill := !fill + k;
            sp_off.(ci + 1) <- !fill)
          dests)
      groups;
    sp_valid := true;
    !alpha
  in
  (* ---- delta-solve preparation ----

     After masking the failed arcs, the inherited primal certificate is
     damaged only where flow actually crossed a failed arc. The damage is
     surgical, so the repair is too: for each source group, peel off
     exactly the path-flow through the failed arcs — repeatedly extract an
     [s → … → a → … → t] path inside the flow's support and subtract its
     bottleneck — and re-route only the peeled shipments. Everything else
     (the overwhelming majority of the flow after a small failure) is kept
     in place, so the surviving congestion is essentially the baseline's
     and {!Gk_loop.run}'s inherited-certificate check usually
     re-certifies with zero new phases.
     The seed's dual bound survives too: removing capacity can only lower
     λ*, so any upper bound for the unmasked instance still upper-bounds
     the masked one.

     If the peeled volume is a large share of the inherited ledger
     (> 1/4), re-shipping it against the frozen remainder would congest
     more than it saves; fall back to a cold-length solve that keeps only
     the seed's dual bound. (Converged lengths are a bad start for a
     perturbed instance — they encode pressure toward the now-dead arcs —
     while the carried dual bound stays valid and cuts the convergence
     tail, so the fallback is measurably {e faster} than a cold solve.) *)
  let cold_lengths_carry_dual (w : warm_state) =
    restart ();
    (0, w.w_dual)
  in
  let start_phases, start_dual =
    match (failed, warm) with
    | Some failed_arcs, Some w -> (
        match w.w_groups with
        | None -> cold_lengths_carry_dual w
        | Some gs ->
            Gk_loop.check_cancelled ();
            let failed_all =
              List.sort_uniq Int.compare
                (List.concat_map
                   (fun a -> [ a; Graph.arc_rev g a ])
                   failed_arcs)
            in
            let arc_dst = csr.Graph.csr_arc_dst in
            let arc_rev = csr.Graph.csr_arc_rev in
            let adj_off = csr.Graph.csr_adj_off in
            let adj_arc = csr.Graph.csr_adj_arc in
            let p = float_of_int w.w_phases in
            (* Peeling scratch, shared across groups. [pos] doubles as the
               visited set of the walk in flight (node → step index). *)
            let nodes_b = Array.make n (-1) and arcs_b = Array.make n (-1) in
            let nodes_f = Array.make n (-1) and arcs_f = Array.make n (-1) in
            let pos = Array.make n (-1) in
            let absorb = Array.make n 0.0 in
            let removed = Array.make n 0.0 in
            let is_dst = Array.make n false in
            (* Walk from [v0] along arcs with positive flow into [nodes] /
               [arcs]: backward along in-arcs until [s], or with [fwd]
               forward along out-arcs until a destination with remaining
               absorption. Directed flow cycles met on the way are
               cancelled (pure congestion, no shipment) and the walk
               restarts; each cancellation zeroes at least one arc, so this
               terminates. Returns the path length [k] (the walk ends at
               [nodes.(k)]), or -1 when conservation dust left it stuck. *)
            let rec walk ~fwd f s nodes arcs v0 =
              let k = ref 0 and v = ref v0 in
              let stop = ref false and stuck = ref false
              and cycled = ref false in
              nodes.(0) <- v0;
              pos.(v0) <- 0;
              while not !stop do
                let u = !v in
                if (if fwd then is_dst.(u) && absorb.(u) > 0.0 else u = s)
                then stop := true
                else begin
                  let b = ref (-1) in
                  let idx = ref adj_off.(u) in
                  let hi = adj_off.(u + 1) in
                  while !b < 0 && !idx < hi do
                    let out = adj_arc.(!idx) in
                    let cand = if fwd then out else arc_rev.(out) in
                    if f.(cand) > 0.0 then b := cand else incr idx
                  done;
                  if !b < 0 then begin
                    (* No onward flow: a destination whose analytic
                       absorption was exhausted by float dust ends a
                       forward walk; anything else is a dead end left by
                       dust. *)
                    stop := true;
                    stuck := not (fwd && is_dst.(u))
                  end
                  else begin
                    let w = if fwd then arc_dst.(!b) else arc_src.(!b) in
                    if pos.(w) >= 0 then begin
                      (* Cycle w → … → u → w: arc [b] plus the
                         already-collected arcs from step [pos w] on. *)
                      let j = pos.(w) in
                      let c = ref f.(!b) in
                      for i = j to !k - 1 do
                        c := Float.min !c f.(arcs.(i))
                      done;
                      f.(!b) <- f.(!b) -. !c;
                      for i = j to !k - 1 do
                        f.(arcs.(i)) <- f.(arcs.(i)) -. !c
                      done;
                      stop := true;
                      cycled := true
                    end
                    else begin
                      arcs.(!k) <- !b;
                      incr k;
                      nodes.(!k) <- w;
                      pos.(w) <- !k;
                      v := w
                    end
                  end
                end
              done;
              for i = 0 to !k do
                pos.(nodes.(i)) <- -1
              done;
              if !cycled then walk ~fwd f s nodes arcs v0
              else if !stuck then -1
              else !k
            in
            (* Peel one group's flow copy [f] off every failed arc,
               crediting peeled amounts to [removed] per destination. *)
            let peel_group f s =
              List.iter
                (fun a ->
                  while f.(a) > 0.0 do
                    let bl = walk ~fwd:false f s nodes_b arcs_b arc_src.(a) in
                    if bl < 0 then
                      (* Conservation dust (≲1e-9 relative): discard. *)
                      f.(a) <- 0.0
                    else begin
                      let fl = walk ~fwd:true f s nodes_f arcs_f arc_dst.(a) in
                      if fl < 0 then f.(a) <- 0.0
                      else begin
                        let t = nodes_f.(fl) in
                        let amt = ref f.(a) in
                        for i = 0 to bl - 1 do
                          amt := Float.min !amt f.(arcs_b.(i))
                        done;
                        for i = 0 to fl - 1 do
                          amt := Float.min !amt f.(arcs_f.(i))
                        done;
                        if absorb.(t) > 0.0 then
                          amt := Float.min !amt absorb.(t);
                        let c = !amt in
                        (* [c] can be 0 when a cycle cancellation inside
                           the forward walk zeroed a back-path arc; the
                           next walk routes around it. *)
                        if c > 0.0 then begin
                          f.(a) <- f.(a) -. c;
                          for i = 0 to bl - 1 do
                            f.(arcs_b.(i)) <- f.(arcs_b.(i)) -. c
                          done;
                          for i = 0 to fl - 1 do
                            f.(arcs_f.(i)) <- f.(arcs_f.(i)) -. c
                          done;
                          absorb.(t) <- absorb.(t) -. c;
                          removed.(t) <- removed.(t) +. c
                        end
                      end
                    end
                  done)
                failed_all
            in
            let stripped = Array.make ngroups None in
            let reship = Array.make ngroups [] in
            let total_removed = ref 0.0 and total_ledger = ref 0.0 in
            Array.iteri
              (fun gi (s, dests) ->
                List.iter
                  (fun (_, d) -> total_ledger := !total_ledger +. (p *. d))
                  dests;
                let f0 = gs.gs_flow.(gi) in
                if List.exists (fun a -> f0.(a) > 0.0) failed_all then begin
                  Gk_loop.check_cancelled ();
                  let f = Array.copy f0 in
                  List.iter
                    (fun (dst, d) ->
                      is_dst.(dst) <- true;
                      absorb.(dst) <- p *. d)
                    dests;
                  peel_group f s;
                  let rm =
                    List.filter_map
                      (fun (dst, _) ->
                        if removed.(dst) > 0.0 then begin
                          total_removed := !total_removed +. removed.(dst);
                          Some (dst, removed.(dst))
                        end
                        else None)
                      dests
                  in
                  List.iter
                    (fun (dst, _) ->
                      is_dst.(dst) <- false;
                      absorb.(dst) <- 0.0;
                      removed.(dst) <- 0.0)
                    dests;
                  stripped.(gi) <- Some f;
                  reship.(gi) <- rm
                end)
              groups;
            if !total_removed *. 4.0 > !total_ledger then
              cold_lengths_carry_dual w
            else begin
              obs.o_mode <- 2;
              for gi = 0 to ngroups - 1 do
                let f =
                  match stripped.(gi) with
                  | Some f -> f
                  | None -> gs.gs_flow.(gi)
                in
                for a = 0 to m_all - 1 do
                  flow.(a) <- flow.(a) +. f.(a)
                done;
                match gflow with
                | Some gf -> Array.blit f 0 gf.(gi) 0 m_all
                | None -> ()
              done;
              (* Repair every group's tree for the masked graph at the
                 seeded lengths: the repairs give an immediate dual bound
                 (distances under the current lengths) before any re-ship
                 perturbs the lengths. *)
              let rtrees =
                Array.map
                  (fun (t : Dijkstra.tree) ->
                    {
                      Dijkstra.dist = Array.copy t.Dijkstra.dist;
                      parent_arc = Array.copy t.Dijkstra.parent_arc;
                    })
                  gs.gs_tree
              in
              let alpha = ref 0.0 in
              Array.iteri
                (fun gi (_, dests) ->
                  let t = rtrees.(gi) in
                  Dijkstra.repair_tree scratch csr ~lengths ~arcs:failed_all t;
                  List.iter
                    (fun (dst, d) ->
                      if Float.equal t.Dijkstra.dist.(dst) infinity then
                        invalid_arg
                          "Mcmf_fptas: commodity endpoints are disconnected";
                      alpha := !alpha +. (d *. t.Dijkstra.dist.(dst)))
                    dests)
                groups;
              stats.Gk_loop.dual_checks <- stats.Gk_loop.dual_checks + 1;
              let fresh =
                Gk_loop.dual_bound
                  ~volume:(Gk_loop.volume ~cap:arc_cap lengths)
                  ~alpha:!alpha
              in
              let start_dual = Float.min w.w_dual fresh in
              (* Re-ship the peeled amounts under the seeded lengths. They
                 are small — bounded by the failed arcs' carried flow, not
                 by the groups' full ledgers — so routing them in one pass
                 barely moves the congestion profile. *)
              Array.iteri
                (fun gi (s, _) ->
                  match reship.(gi) with
                  | [] -> ()
                  | rm ->
                      Gk_loop.check_cancelled ();
                      route_source gi s rm (List.map fst rm))
                groups;
              Gk_loop.rescale_lengths lengths;
              (w.w_phases, start_dual)
            end)
    | _ -> (0, infinity)
  in
  let capture_groups () =
    match gflow with
    | None -> None
    | Some gf ->
        (* Full trees at the final lengths, one sweep per source — the
           price of making the state delta-capable, paid only when the
           caller asked for it. *)
        let trees =
          Array.map
            (fun (s, _) ->
              let t =
                {
                  Dijkstra.dist = Array.make n infinity;
                  parent_arc = Array.make n (-1);
                }
              in
              Dijkstra.shortest_tree_full scratch csr ~lengths ~src:s t;
              t)
            groups
        in
        Some { gs_flow = gf; gs_tree = trees }
  in
  let finish ~phases ~lo ~hi ~mu ~converged =
    let warm_out =
      {
        w_n = n;
        w_num_arcs = m_all;
        w_commodities = Array.copy commodities;
        w_scale = scale;
        w_eps = !eps;
        w_phases = phases;
        w_executed = stats.Gk_loop.routed;
        w_dual = hi;
        w_lengths = Array.copy lengths;
        w_groups = capture_groups ();
      }
    in
    let result = Gk_loop.result ~scale ~flow ~phases ~lo ~hi ~mu ~converged in
    { result; warm = warm_out }
  in
  (* One phase of routing: every source group, starting on the paths the
     previous phase's dual sweep stored when there was one. *)
  let route () =
    let stored = !sp_valid in
    Array.iteri
      (fun gi (s, dests) -> route_source ~stored gi s dests group_targets.(gi))
      groups;
    sp_valid := false
  in
  Gk_loop.run ~cat:"fptas" ~params ~stats ~eps ~cap:arc_cap ~flow ~lengths
    ~route ~alpha ~restart ~phases:start_phases ~best_dual:start_dual ~finish

let run ~params ~warm ~failed ~track_groups g commodities =
  let obs =
    { o_tree_rebuilds = 0; o_paths_reused = 0; o_mode = 0; o_inherited = 0 }
  in
  let flush st =
    Metrics.add m_tree_rebuilds obs.o_tree_rebuilds;
    Metrics.add m_paths_reused obs.o_paths_reused;
    if obs.o_mode >= 1 then begin
      Metrics.incr m_warm_starts;
      Metrics.add m_phases_saved
        (max 0 (obs.o_inherited - st.warm.w_executed))
    end;
    if obs.o_mode = 2 then Metrics.incr m_delta_solves
  in
  Gk_loop.solve fptas ~result:(fun st -> st.result) ~flush (fun stats ->
      solve_impl ~params ~stats ~obs ~warm ~failed ~track_groups g commodities)

let solve ?(params = default_params) g commodities =
  (run ~params ~warm:None ~failed:None ~track_groups:false g commodities).result

let solve_with_state ?(params = default_params) ?warm ?(track_groups = false) g
    commodities =
  run ~params ~warm ~failed:None ~track_groups g commodities

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
  run ~params ~warm:(Some warm) ~failed:(Some failed) ~track_groups g
    commodities

let lambda ?params g commodities = Gk_loop.midpoint (solve ?params g commodities)
