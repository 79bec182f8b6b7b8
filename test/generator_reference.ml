(* The random generators as they were before their incremental
   rewrites: the Jellyfish construction with its per-step rebuild of the
   free-port list, the tuple-keyed traffic aggregation with its
   comparison sort, and the configuration-model repair that scores every
   candidate swap by mutating its edge multiset. They are kept unchanged
   (bar the repair's metric counters) as oracles: the library versions
   must draw the same random numbers and return the same edge lists and
   demand lists. [splices] is added to count the Jellyfish deadlock
   repairs. *)

open Dcn_graph

(* ---- Wiring ---- *)

module Wiring = struct
  (* Multiset of undirected edges, used to detect parallel links. It is an
     open-addressing table (linear probing, backward-shift deletion) keyed
     by the int [min u v lsl 31 lor max u v], whose slots are (key, count)
     pairs in one flat int array. The capacity is fixed at creation to a
     power of two at least twice the number of edges the table will hold,
     so the load stays at most 1/2 and no operation allocates. *)
  module Multiset = struct
    type t = { slots : int array; shift : int; mask : int }

    let empty = -1

    let key u v = if u <= v then (u lsl 31) lor v else (v lsl 31) lor u

    (* Multiplicative hashing: the top bits of [k * c], for an odd [c],
       depend on every bit of [k]. *)
    let home t k = (k * 0x1E3779B97F4A7C15) lsr t.shift

    let create ~edges =
      let bits = ref 3 in
      while 1 lsl !bits < 2 * edges do
        incr bits
      done;
      {
        slots = Array.make (2 lsl !bits) empty;
        shift = Sys.int_size - !bits;
        mask = (1 lsl !bits) - 1;
      }

    (* The slot holding [k], or the empty slot ending its probe run. *)
    let rec probe t k i =
      let s = t.slots.(2 * i) in
      if s = k || s = empty then i else probe t k ((i + 1) land t.mask)

    let count t u v =
      let k = key u v in
      let i = probe t k (home t k) in
      if t.slots.(2 * i) = k then t.slots.((2 * i) + 1) else 0

    let add t u v =
      let k = key u v in
      let i = probe t k (home t k) in
      if t.slots.(2 * i) = k then
        t.slots.((2 * i) + 1) <- t.slots.((2 * i) + 1) + 1
      else begin
        t.slots.(2 * i) <- k;
        t.slots.((2 * i) + 1) <- 1
      end

    (* Empty slot [hole] by moving later entries of its probe run back: the
       entry at [j] moves into the hole unless its home slot lies cyclically
       in (hole, j], where a lookup would no longer reach it. *)
    let rec close t hole j =
      let j = (j + 1) land t.mask in
      let k = t.slots.(2 * j) in
      if k = empty then t.slots.(2 * hole) <- empty
      else begin
        let h = home t k in
        let stays =
          if hole <= j then hole < h && h <= j else hole < h || h <= j
        in
        if stays then close t hole j
        else begin
          t.slots.(2 * hole) <- k;
          t.slots.((2 * hole) + 1) <- t.slots.((2 * j) + 1);
          close t j j
        end
      end

    let remove t u v =
      let k = key u v in
      let i = probe t k (home t k) in
      if t.slots.(2 * i) = k then begin
        let c = t.slots.((2 * i) + 1) in
        if c > 1 then t.slots.((2 * i) + 1) <- c - 1 else close t i i
      end
  end

  (* Swap the second endpoints of pairs i and j if that strictly reduces the
     number of defects. [defect u v] scores the edge (u, v): 1000 for a
     self-loop, 1 for a parallel link, 0 otherwise (see [repair]). *)
  let try_swap seen left right i j ~defect =
    let li = left.(i) and ri = right.(i) and lj = left.(j) and rj = right.(j) in
    (* Score under the multiset with the old pair removed. *)
    Multiset.remove seen li ri;
    Multiset.remove seen lj rj;
    let before = defect li ri + defect lj rj in
    let score_i = defect li rj in
    Multiset.add seen li rj;
    let score_j = defect lj ri in
    Multiset.remove seen li rj;
    let after = score_i + score_j in
    if after < before then begin
      Multiset.add seen li rj;
      Multiset.add seen lj ri;
      right.(i) <- rj;
      right.(j) <- ri;
      true
    end
    else begin
      Multiset.add seen li ri;
      Multiset.add seen lj rj;
      false
    end

  let repair ?(avoid_multi = true) st ~existing left right =
    let npairs = Array.length left in
    let seen = Multiset.create ~edges:(List.length existing + npairs) in
    (* Self-loops must dominate the defect score by more than any number of
       parallel links a swap can create: a hub with more ports than peers is
       forced to keep parallel links, and trading a self-loop for two of
       them must still count as progress. *)
    let defect u v =
      if u = v then 1000
      else if avoid_multi && Multiset.count seen u v >= 1 then 1
      else 0
    in
    List.iter (fun (u, v) -> Multiset.add seen u v) existing;
    for i = 0 to npairs - 1 do
      Multiset.add seen left.(i) right.(i)
    done;
    (* Each pass scans all pairs and tries random partners for defective
       ones. Self-loops strictly dominate the defect score, so they are fixed
       first; remaining multi-edges get best-effort treatment. *)
    let max_passes = 200 in
    let attempts_per_defect = 40 in
    let passes = ref 0 and attempts = ref 0 in
    let pass () =
      incr passes;
      let bad = ref 0 in
      for i = 0 to npairs - 1 do
        let u = left.(i) and v = right.(i) in
        Multiset.remove seen u v;
        let d = defect u v in
        Multiset.add seen u v;
        if d > 0 then begin
          let fixed = ref false in
          let tries = ref 0 in
          while (not !fixed) && !tries < attempts_per_defect do
            let j = Random.State.int st npairs in
            if j <> i then begin
              incr attempts;
              fixed := try_swap seen left right i j ~defect
            end;
            incr tries
          done;
          if not !fixed then incr bad
        end
      done;
      !bad
    in
    (* Random perturbation to escape local minima of the greedy repair:
       swap random pairs unconditionally as long as no self-loop results. *)
    let shake () =
      for _ = 1 to max 1 (npairs / 4) do
        let i = Random.State.int st npairs and j = Random.State.int st npairs in
        if i <> j && left.(i) <> right.(j) && left.(j) <> right.(i) then begin
          let ri = right.(i) and rj = right.(j) in
          Multiset.remove seen left.(i) ri;
          Multiset.remove seen left.(j) rj;
          right.(i) <- rj;
          right.(j) <- ri;
          Multiset.add seen left.(i) rj;
          Multiset.add seen left.(j) ri
        end
      done
    in
    let rec run p last_bad =
      if p >= max_passes then last_bad
      else begin
        let bad = pass () in
        if bad = 0 then 0
        else begin
          if bad >= last_bad then shake ();
          run (p + 1) bad
        end
      end
    in
    let residual = run 0 max_int in
    ignore (!passes, !attempts);
    (* Self-loops are never acceptable. *)
    Array.iteri
      (fun i u ->
        if u = right.(i) then
          failwith "Wiring: could not eliminate self-loops (degree too skewed)")
      left;
    ignore residual

  let random_matching ?(existing = []) ?(avoid_multi = true) st stubs =
    let total = Array.length stubs in
    if total mod 2 = 1 then invalid_arg "Wiring.random_matching: odd stub count";
    let shuffled = Array.copy stubs in
    Dcn_util.Sampling.shuffle st shuffled;
    let npairs = total / 2 in
    let left = Array.init npairs (fun i -> shuffled.(2 * i)) in
    let right = Array.init npairs (fun i -> shuffled.((2 * i) + 1)) in
    repair ~avoid_multi st ~existing left right;
    Array.to_list (Array.init npairs (fun i -> (left.(i), right.(i))))

  let random_bipartite_matching ?(existing = []) ?(avoid_multi = true) st
      left_stubs right_stubs =
    if Array.length left_stubs <> Array.length right_stubs then
      invalid_arg "Wiring.random_bipartite_matching: side size mismatch";
    let left = Array.copy left_stubs and right = Array.copy right_stubs in
    Dcn_util.Sampling.shuffle st left;
    Dcn_util.Sampling.shuffle st right;
    repair ~avoid_multi st ~existing left right;
    Array.to_list (Array.init (Array.length left) (fun i -> (left.(i), right.(i))))
end

(* ---- Rrg.jellyfish ---- *)

let check_args ~n ~r =
  if r < 2 then invalid_arg "Rrg: degree must be at least 2";
  if r >= n then invalid_arg "Rrg: degree must be below the switch count";
  if n * r mod 2 = 1 then invalid_arg "Rrg: n*r must be even"

let max_connectivity_retries = 50

let until_connected build =
  let rec attempt k =
    if k >= max_connectivity_retries then
      failwith "Rrg: failed to produce a connected graph";
    let g = build () in
    if Graph.is_connected g then g else attempt (k + 1)
  in
  attempt 0

(* Deadlock splices run by [jellyfish] since the program started, so a
   test can tell that its cases reach that branch. *)
let splices = Atomic.make 0

(* Jellyfish-style incremental construction. Adjacency is tracked in a set
   of (min,max) pairs; free ports per node in an array. When no two
   non-adjacent nodes with free ports remain but free ports do, a random
   existing edge (u,v) with endpoints not adjacent to a free-port node x is
   removed and replaced by (x,u),(x,v). *)
let jellyfish st ~n ~r =
  check_args ~n ~r;
  let build () =
    let edges = Hashtbl.create (n * r) in
    let adjacent u v = Hashtbl.mem edges (min u v, max u v) in
    let add_edge u v = Hashtbl.replace edges (min u v, max u v) () in
    let remove_edge u v = Hashtbl.remove edges (min u v, max u v) in
    let free = Array.make n r in
    let nodes_with_free () =
      let acc = ref [] in
      for u = n - 1 downto 0 do
        if free.(u) > 0 then acc := u :: !acc
      done;
      Array.of_list !acc
    in
    let rec fill stuck =
      let candidates = nodes_with_free () in
      let total_free = Array.fold_left (fun a u -> a + free.(u)) 0 candidates in
      if total_free = 0 then ()
      else if Array.length candidates >= 2 && stuck < 200 then begin
        let u = Dcn_util.Sampling.pick st candidates in
        let v = Dcn_util.Sampling.pick st candidates in
        if u <> v && not (adjacent u v) then begin
          add_edge u v;
          free.(u) <- free.(u) - 1;
          free.(v) <- free.(v) - 1;
          fill 0
        end
        else fill (stuck + 1)
      end
      else begin
        (* Deadlocked: the nodes holding free ports are mutually adjacent
           (or there is just one). Break a random edge (u,v) and splice the
           free ports into it. *)
        Atomic.incr splices;
        let all_edges =
          Hashtbl.fold (fun (u, v) () acc -> (u, v) :: acc) edges []
          |> Array.of_list
        in
        let x = Dcn_util.Sampling.pick st candidates in
        if free.(x) >= 2 then begin
          (* Replace (u,v) with (x,u) and (x,v). *)
          let rec swap tries =
            if tries > 10_000 then
              failwith "Rrg.jellyfish: deadlock repair failed"
            else begin
              let u, v = Dcn_util.Sampling.pick st all_edges in
              if u <> x && v <> x && (not (adjacent x u)) && not (adjacent x v)
              then begin
                remove_edge u v;
                add_edge x u;
                add_edge x v;
                free.(x) <- free.(x) - 2
              end
              else swap (tries + 1)
            end
          in
          swap 0
        end
        else begin
          (* Two adjacent nodes x, y each hold one free port (the total
             free count is even, so a lone single-port node cannot occur).
             Replace (u,v) with (x,u) and (y,v). *)
          let y =
            match Array.to_list candidates |> List.filter (fun c -> c <> x) with
            | [] -> failwith "Rrg.jellyfish: parity violation"
            | others -> Dcn_util.Sampling.pick st (Array.of_list others)
          in
          let rec swap tries =
            if tries > 10_000 then
              failwith "Rrg.jellyfish: deadlock repair failed"
            else begin
              let u, v = Dcn_util.Sampling.pick st all_edges in
              let distinct = u <> x && v <> x && u <> y && v <> y in
              if distinct && (not (adjacent x u)) && not (adjacent y v) then begin
                remove_edge u v;
                add_edge x u;
                add_edge y v;
                free.(x) <- free.(x) - 1;
                free.(y) <- free.(y) - 1
              end
              else if distinct && (not (adjacent x v)) && not (adjacent y u)
              then begin
                remove_edge u v;
                add_edge x v;
                add_edge y u;
                free.(x) <- free.(x) - 1;
                free.(y) <- free.(y) - 1
              end
              else swap (tries + 1)
            end
          in
          swap 0
        end;
        fill 0
      end
    in
    fill 0;
    let b = Graph.builder n in
    Hashtbl.iter (fun (u, v) () -> Graph.add_edge b u v) edges;
    Graph.freeze b
  in
  until_connected build

(* ---- Traffic generators ---- *)

module Traffic = struct
  type t = Dcn_traffic.Traffic.t = {
    name : string;
    demands : (int * int * float) list;
    flows_per_server : int;
  }

  let compare_demand = Dcn_traffic.Traffic.compare_demand

  let num_servers ~servers = Array.fold_left ( + ) 0 servers

  let offsets servers =
    let n = Array.length servers in
    let off = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      off.(i + 1) <- off.(i) + servers.(i)
    done;
    off

  (* Binary search for the switch whose server-id range contains sid. *)
  let switch_of_offsets off n sid =
    let rec search lo hi =
      if lo + 1 >= hi then lo
      else begin
        let mid = (lo + hi) / 2 in
        if off.(mid) <= sid then search mid hi else search lo mid
      end
    in
    search 0 n

  (* Aggregate server-level (src_server, dst_server) pairs into switch-level
     demands, dropping intra-switch pairs. *)
  let aggregate ~name ~flows_per_server ~servers pairs =
    let off = offsets servers in
    let n = Array.length servers in
    let switch_of = switch_of_offsets off n in
    let tbl = Hashtbl.create 256 in
    List.iter
      (fun (a, b) ->
        let u = switch_of a and v = switch_of b in
        if u <> v then begin
          let prev = try Hashtbl.find tbl (u, v) with Not_found -> 0.0 in
          Hashtbl.replace tbl (u, v) (prev +. 1.0)
        end)
      pairs;
    let demands =
      Hashtbl.fold (fun (u, v) d acc -> (u, v, d) :: acc) tbl []
      |> List.sort compare_demand
    in
    { name; demands; flows_per_server }

  let permutation st ~servers =
    let total = num_servers ~servers in
    if total < 2 then invalid_arg "Traffic.permutation: need at least 2 servers";
    let image = Dcn_util.Sampling.derangement st total in
    let pairs = ref [] in
    for s = 0 to total - 1 do
      pairs := (s, image.(s)) :: !pairs
    done;
    aggregate ~name:"permutation" ~flows_per_server:1 ~servers !pairs

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
    let pairs = ref [] in
    (* ToR-level permutation on the chunky part: pair consecutive ToRs both
       ways; server i of one ToR sends to server i of the other (a
       server-level bijection between the two racks). *)
    let link_tors a b =
      let cnt = min servers.(a) servers.(b) in
      for i = 0 to cnt - 1 do
        pairs := (off.(a) + i, off.(b) + i) :: !pairs
      done;
      (* Leftover servers on the bigger rack still send somewhere: wrap
         around the partner's servers. *)
      for i = cnt to servers.(a) - 1 do
        if servers.(b) > 0 then pairs := (off.(a) + i, off.(b) + (i mod servers.(b))) :: !pairs
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
      Array.iteri (fun idx s -> pairs := (s, rest.(image.(idx))) :: !pairs) rest
    end;
    aggregate
      ~name:(Printf.sprintf "chunky-%.0f%%" (fraction *. 100.0))
      ~flows_per_server:1 ~servers !pairs

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
    let pairs = ref [] in
    for s = 0 to total - 1 do
      let dst = Dcn_util.Sampling.pick st hot_servers in
      if dst <> s then pairs := (s, dst) :: !pairs
    done;
    aggregate ~name:(Printf.sprintf "hotspot-%d" targets) ~flows_per_server:1
      ~servers !pairs
end
