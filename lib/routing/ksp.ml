open Dcn_graph

(* BFS scratch shared by every search of the calls it is given. Visited
   and banned marks are generation stamps: a node is visited in the
   current search iff [visited.(v) = gen], and banned iff
   [banned_node.(v) = ban] (likewise for arcs), so starting a new search
   or a new ban set is one counter bump instead of an O(n + m) reset, and
   the stamps of earlier calls never match again. *)
type scratch = {
  csr : Graph.csr;
  queue : int array;
  parent : int array;  (** BFS parent arc; valid only for visited nodes. *)
  visited : int array;
  banned_node : int array;
  banned_arc : int array;
  mutable gen : int;
  mutable ban : int;
}

let scratch g =
  let n = Graph.n g and m = Graph.num_arcs g in
  {
    csr = Graph.csr g;
    queue = Array.make n 0;
    parent = Array.make n (-1);
    visited = Array.make n 0;
    banned_node = Array.make n 0;
    banned_arc = Array.make m 0;
    gen = 0;
    ban = 0;
  }

(* Start an empty ban set. *)
let new_ban_set s = s.ban <- s.ban + 1
let ban_node s v = s.banned_node.(v) <- s.ban
let ban_arc s a = s.banned_arc.(a) <- s.ban

(* Breadth-first search over positive-capacity, unbanned arcs, stopping as
   soon as [dst] is discovered. Every node's parent is fixed at its
   discovery, so the path read back from [dst] is the one a full search
   would give. *)
let search s ~src ~dst =
  let c = s.csr in
  s.gen <- s.gen + 1;
  let gen = s.gen and ban = s.ban in
  let visited = s.visited and parent = s.parent and queue = s.queue in
  let found = ref false and head = ref 0 and tail = ref 0 in
  if s.banned_node.(src) <> ban then begin
    visited.(src) <- gen;
    queue.(0) <- src;
    tail := 1;
    found := src = dst
  end;
  while (not !found) && !head < !tail do
    let u = queue.(!head) in
    incr head;
    let i = ref c.Graph.csr_adj_off.(u) in
    let stop = c.Graph.csr_adj_off.(u + 1) in
    while (not !found) && !i < stop do
      let a = c.Graph.csr_adj_arc.(!i) in
      incr i;
      if c.Graph.csr_arc_cap.(a) > 0.0 && s.banned_arc.(a) <> ban then begin
        let v = c.Graph.csr_arc_dst.(a) in
        if s.banned_node.(v) <> ban && visited.(v) <> gen then begin
          visited.(v) <- gen;
          parent.(v) <- a;
          queue.(!tail) <- v;
          incr tail;
          if v = dst then found := true
        end
      end
    done
  done;
  if not !found then None
  else begin
    let rec walk v acc =
      if v = src then acc
      else
        let a = parent.(v) in
        walk c.Graph.csr_arc_src.(a) (a :: acc)
    in
    Some (walk dst [])
  end

let shortest_path g ~src ~dst =
  let s = scratch g in
  new_ban_set s;
  search s ~src ~dst

let path_nodes g ~src arcs =
  src :: List.map (fun a -> Graph.arc_dst g a) arcs

(* [Some a] if [p] starts with the [i] arcs [prefix.(0 .. i-1)] and has an
   [i]-th arc [a]; [None] otherwise. *)
let rec arc_after_prefix (prefix : int array) i j (p : int list) =
  match p with
  | [] -> None
  | a :: rest ->
      if j = i then Some a
      else if a = prefix.(j) then arc_after_prefix prefix i (j + 1) rest
      else None

(* Paths are kept with their hop counts, so comparing two starts with one
   integer test. *)
let same_path (l1, p1) (l2, p2) = l1 = l2 && List.equal Int.equal p1 p2

(* Shorter first, then lexicographic on arc ids. *)
let cmp_candidate ((l1, p1) : int * int list) (l2, p2) =
  if l1 <> l2 then Int.compare l1 l2 else List.compare Int.compare p1 p2

let k_shortest_in s ~src ~dst ~k =
  if k < 1 then invalid_arg "Ksp.k_shortest: k < 1";
  if src = dst then invalid_arg "Ksp.k_shortest: src = dst";
  let c = s.csr in
  new_ban_set s;
  match search s ~src ~dst with
  | None -> []
  | Some first ->
      let accepted = ref [ (List.length first, first) ]
      and num_accepted = ref 1 in
      (* Candidate set; duplicates are merged. *)
      let candidates = ref [] in
      let add_candidate p =
        let cand = (List.length p, p) in
        if not (List.exists (same_path cand) !candidates) then
          candidates := cand :: !candidates
      in
      let rec extend () =
        if !num_accepted < k then begin
          let prev = snd (List.hd !accepted) in
          let prev_arcs = Array.of_list prev in
          let prev_nodes = Array.make (Array.length prev_arcs + 1) src in
          Array.iteri
            (fun i a -> prev_nodes.(i + 1) <- c.Graph.csr_arc_dst.(a))
            prev_arcs;
          (* Spur from every prefix of the latest accepted path; [root_rev]
             is that prefix, reversed. *)
          let root_rev = ref [] in
          for i = 0 to Array.length prev_arcs - 1 do
            new_ban_set s;
            (* Ban arcs that would retrace any accepted path sharing this
               root (and their reverses, to keep paths simple overall). *)
            List.iter
              (fun (_, p) ->
                match arc_after_prefix prev_arcs i 0 p with
                | Some a ->
                    ban_arc s a;
                    ban_arc s c.Graph.csr_arc_rev.(a)
                | None -> ())
              !accepted;
            (* Ban the root's interior nodes so spur paths are simple. *)
            for j = 0 to i - 1 do
              ban_node s prev_nodes.(j)
            done;
            (match search s ~src:prev_nodes.(i) ~dst with
             | None -> ()
             | Some spur -> add_candidate (List.rev_append !root_rev spur));
            root_rev := prev_arcs.(i) :: !root_rev
          done;
          (* Promote the best unused candidate: the first minimum under
             [cmp_candidate], as sorting and taking the head would. *)
          let best =
            List.fold_left
              (fun best cand ->
                if List.exists (same_path cand) !accepted then best
                else
                  match best with
                  | Some b when cmp_candidate b cand <= 0 -> best
                  | _ -> Some cand)
              None !candidates
          in
          match best with
          | None -> ()
          | Some cand ->
              accepted := cand :: !accepted;
              incr num_accepted;
              extend ()
        end
      in
      extend ();
      List.rev_map snd !accepted

let k_shortest g ~src ~dst ~k = k_shortest_in (scratch g) ~src ~dst ~k
