type edge = int * int

module Metrics = Dcn_obs.Metrics

let m_repairs = Metrics.counter "wiring.repairs"
let m_passes = Metrics.counter "wiring.passes"
let m_swap_attempts = Metrics.counter "wiring.swap_attempts"

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

(* Whether (a, b) and (c, d) are the same undirected link. *)
let same (a : int) (b : int) c d = (a = c && b = d) || (a = d && b = c)

(* The defect score of the link (u, v) if [seen] did not hold the links
   (a, b) and (c, d), which it does hold: 1000 for a self-loop, 1 for a
   parallel link (when [avoid_multi]), 0 otherwise. Self-loops must
   dominate the score by more than any number of parallel links a swap can
   create: a hub with more ports than peers is forced to keep parallel
   links, and trading a self-loop for two of them must still count as
   progress. *)
let defect seen ~avoid_multi a b c d u v =
  if u = v then 1000
  else if not avoid_multi then 0
  else if
    Multiset.count seen u v
    - Bool.to_int (same u v a b)
    - Bool.to_int (same u v c d)
    >= 1
  then 1
  else 0

(* Swap the second endpoints of pairs i and j if that strictly reduces the
   number of defects, scored as if both pairs' links were out of [seen].
   [seen] changes only when the swap is accepted. The two new links are
   scored apart: they are the same link only when the old ones are too
   (no gain either way) or both are self-loops (a gain either way). *)
let try_swap seen ~avoid_multi left right i j =
  let li = left.(i) and ri = right.(i) and lj = left.(j) and rj = right.(j) in
  let before =
    defect seen ~avoid_multi li ri lj rj li ri
    + defect seen ~avoid_multi li ri lj rj lj rj
  in
  let score_i = defect seen ~avoid_multi li ri lj rj li rj in
  (* Scores are never negative: a first link that scores [before] alone
     already rejects the swap. *)
  score_i < before
  && score_i + defect seen ~avoid_multi li ri lj rj lj ri < before
  && begin
       Multiset.remove seen li ri;
       Multiset.remove seen lj rj;
       Multiset.add seen li rj;
       Multiset.add seen lj ri;
       right.(i) <- rj;
       right.(j) <- ri;
       true
     end

let repair ?(avoid_multi = true) st ~existing left right =
  let npairs = Array.length left in
  let seen = Multiset.create ~edges:(List.length existing + npairs) in
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
      (* A self-loop, or a link [seen] holds more than once. *)
      if u = v || (avoid_multi && Multiset.count seen u v >= 2) then begin
        let fixed = ref false in
        let tries = ref 0 in
        while (not !fixed) && !tries < attempts_per_defect do
          let j = Random.State.int st npairs in
          if j <> i then begin
            incr attempts;
            fixed := try_swap seen ~avoid_multi left right i j
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
  if Metrics.enabled () then begin
    Metrics.incr m_repairs;
    Metrics.add m_passes !passes;
    Metrics.add m_swap_attempts !attempts
  end;
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
