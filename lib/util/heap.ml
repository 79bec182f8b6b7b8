type t = {
  mutable keys : float array;
  mutable payloads : int array;
  mutable size : int;
}

let create capacity_hint =
  let cap = max 4 capacity_hint in
  { keys = Array.make cap 0.0; payloads = Array.make cap 0; size = 0 }

let is_empty h = h.size = 0

let length h = h.size

let grow h =
  let cap = Array.length h.keys in
  let keys = Array.make (2 * cap) 0.0 in
  let payloads = Array.make (2 * cap) 0 in
  Array.blit h.keys 0 keys 0 h.size;
  Array.blit h.payloads 0 payloads 0 h.size;
  h.keys <- keys;
  h.payloads <- payloads

(* Hole-based sifting: carry the moving entry in registers and shift the
   others over it, writing it once at its final slot. Same comparisons and
   final layout as the classic swap-based version, about half the array
   traffic. Bounds checks are elided — indices are maintained in range by
   construction.

   The moving key is read from [keys] inside the loops rather than passed
   in: without cross-module inlining (dune's dev profile builds with
   -opaque) a float argument or result is boxed, so [push_at] and
   [pop_into] hand keys over through float arrays and Dijkstra's loop
   allocates nothing. *)

(* Sift the entry staged at slot [i] (the new last slot) up. *)
let sift_up h i payload =
  let keys = h.keys and payloads = h.payloads in
  let key = Array.unsafe_get keys i in
  let i = ref i in
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / 2 in
    if key < Array.unsafe_get keys parent then begin
      Array.unsafe_set keys !i (Array.unsafe_get keys parent);
      Array.unsafe_set payloads !i (Array.unsafe_get payloads parent);
      i := parent
    end
    else continue_ := false
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set payloads !i payload

(* Sift the entry at slot [h.size] (just vacated, outside the heap) down
   from the root. *)
let sift_down h =
  let keys = h.keys and payloads = h.payloads in
  let size = h.size in
  let key = Array.unsafe_get keys size in
  let payload = Array.unsafe_get payloads size in
  let i = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let left = (2 * !i) + 1 in
    let right = left + 1 in
    let smallest =
      if left < size && Array.unsafe_get keys left < key then left else !i
    in
    let smallest =
      if
        right < size
        && Array.unsafe_get keys right
           < (if smallest = !i then key else Array.unsafe_get keys smallest)
      then right
      else smallest
    in
    if smallest = !i then continue_ := false
    else begin
      Array.unsafe_set keys !i (Array.unsafe_get keys smallest);
      Array.unsafe_set payloads !i (Array.unsafe_get payloads smallest);
      i := smallest
    end
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set payloads !i payload

let push h key payload =
  if h.size = Array.length h.keys then grow h;
  let i = h.size in
  Array.unsafe_set h.keys i key;
  h.size <- i + 1;
  sift_up h i payload

let push_at h (dist : float array) payload =
  if h.size = Array.length h.keys then grow h;
  let i = h.size in
  Array.unsafe_set h.keys i (Array.get dist payload);
  h.size <- i + 1;
  sift_up h i payload

let min_key h = Array.unsafe_get h.keys 0
let min_payload h = Array.unsafe_get h.payloads 0

let remove_min h =
  h.size <- h.size - 1;
  if h.size > 0 then sift_down h

let pop_into h (key_out : float array) =
  key_out.(0) <- Array.unsafe_get h.keys 0;
  let payload = min_payload h in
  remove_min h;
  payload

let pop_min h =
  if h.size = 0 then None
  else begin
    let key = min_key h and payload = min_payload h in
    remove_min h;
    Some (key, payload)
  end

let clear h = h.size <- 0
