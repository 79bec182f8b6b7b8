open Dcn_graph

(* Routing state for one [paths] or [restrict] call. Every leg is a
   shortest path read off the BFS parent tree of its first node. The
   search that finds one is unmasked, so its parents are those of a full
   BFS from that node, and each tree is built at most once per call. *)
type ctx = {
  csr : Graph.csr;
  trees : int array array;
      (** [trees.(r).(v)]: parent arc of [v] in the BFS tree rooted at
          [r], [-1] at the root and at unreachable nodes; [[||]] until the
          tree is first needed. *)
  queue : int array;
  mark : int array;  (** generation-stamped node marks, see [is_simple] *)
  mutable stamp : int;
  perm : int array;  (** intermediate order, shuffled per switch pair *)
}

let create g =
  let n = Graph.n g in
  {
    csr = Graph.csr g;
    trees = Array.make n [||];
    queue = Array.make n 0;
    mark = Array.make n 0;
    stamp = 0;
    perm = Array.make n 0;
  }

let tree ctx r =
  let t = ctx.trees.(r) in
  if Array.length t > 0 then t
  else begin
    let c = ctx.csr in
    let parent = Array.make c.Graph.csr_n (-1) in
    let queue = ctx.queue in
    queue.(0) <- r;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      for i = c.Graph.csr_adj_off.(u) to c.Graph.csr_adj_off.(u + 1) - 1 do
        let a = c.Graph.csr_adj_arc.(i) in
        if c.Graph.csr_arc_cap.(a) > 0.0 then begin
          let v = c.Graph.csr_arc_dst.(a) in
          if v <> r && parent.(v) < 0 then begin
            parent.(v) <- a;
            queue.(!tail) <- v;
            incr tail
          end
        end
      done
    done;
    ctx.trees.(r) <- parent;
    parent
  end

let reaches t ~root v = v = root || t.(v) >= 0

(* Arc path root -> v in tree [t], prepended to [acc]. *)
let rec leg ctx t ~root v acc =
  if v = root then acc
  else
    let a = t.(v) in
    leg ctx t ~root ctx.csr.Graph.csr_arc_src.(a) (a :: acc)

(* Whether the bounce src -> m -> dst, legs from trees [ts] and [tm],
   visits no node twice. Each leg is a tree path and so simple on its
   own; it remains to check that no node after [m] on the second leg is
   on the first. *)
let is_simple ctx ts tm ~src ~m ~dst =
  let arc_src = ctx.csr.Graph.csr_arc_src and mark = ctx.mark in
  ctx.stamp <- ctx.stamp + 1;
  let stamp = ctx.stamp in
  let v = ref m in
  mark.(m) <- stamp;
  while !v <> src do
    v := arc_src.(ts.(!v));
    mark.(!v) <- stamp
  done;
  let ok = ref true in
  v := dst;
  while !ok && !v <> m do
    if mark.(!v) = stamp then ok := false else v := arc_src.(tm.(!v))
  done;
  !ok

let paths_in ctx st ~src ~dst ~intermediates =
  if src = dst then invalid_arg "Vlb.paths: src = dst";
  if intermediates < 0 then invalid_arg "Vlb.paths: negative intermediates";
  let ts = tree ctx src in
  if not (reaches ts ~root:src dst) then []
  else begin
    let direct = leg ctx ts ~root:src dst [] in
    (* The same draws as [Sampling.permutation st n]. *)
    let perm = ctx.perm in
    for i = 0 to Array.length perm - 1 do
      perm.(i) <- i
    done;
    Dcn_util.Sampling.shuffle st perm;
    let bounced = ref [] and remaining = ref intermediates and i = ref 0 in
    while !remaining > 0 && !i < Array.length perm do
      let m = perm.(!i) in
      incr i;
      if m <> src && m <> dst && reaches ts ~root:src m then begin
        let tm = tree ctx m in
        if reaches tm ~root:m dst && is_simple ctx ts tm ~src ~m ~dst then begin
          bounced := leg ctx ts ~root:src m (leg ctx tm ~root:m dst []) :: !bounced;
          decr remaining
        end
      end
    done;
    (* Keep the direct path too; dedupe in case a bounce equals it. *)
    List.sort_uniq compare (direct :: !bounced)
  end

let paths st g ~src ~dst ~intermediates =
  paths_in (create g) st ~src ~dst ~intermediates

let restrict st g ~intermediates commodities =
  let ctx = create g in
  let cache = Hashtbl.create 64 in
  Array.map
    (fun (c : Commodity.t) ->
      let key = (c.Commodity.src, c.Commodity.dst) in
      let ps =
        match Hashtbl.find_opt cache key with
        | Some p -> p
        | None ->
            let p =
              paths_in ctx st ~src:c.Commodity.src ~dst:c.Commodity.dst
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
