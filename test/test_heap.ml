(* Unit and property tests for the binary min-heap. *)

module Heap = Dcn_util.Heap

let test_empty () =
  let h = Heap.create 4 in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option (pair (float 0.0) int))) "pop" None (Heap.pop_min h)

let test_single () =
  let h = Heap.create 1 in
  Heap.push h 3.5 42;
  Alcotest.(check int) "length" 1 (Heap.length h);
  Alcotest.(check (option (pair (float 0.0) int)))
    "pop" (Some (3.5, 42)) (Heap.pop_min h);
  Alcotest.(check bool) "empty after" true (Heap.is_empty h)

let test_ordering () =
  let h = Heap.create 2 in
  List.iter (fun (k, v) -> Heap.push h k v)
    [ (5.0, 5); (1.0, 1); (4.0, 4); (2.0, 2); (3.0, 3) ];
  let order = ref [] in
  let rec drain () =
    match Heap.pop_min h with
    | None -> ()
    | Some (_, v) ->
        order := v :: !order;
        drain ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_duplicate_keys () =
  let h = Heap.create 2 in
  Heap.push h 1.0 10;
  Heap.push h 1.0 11;
  Heap.push h 0.5 9;
  (match Heap.pop_min h with
  | Some (k, 9) -> Alcotest.(check (float 0.0)) "min key" 0.5 k
  | _ -> Alcotest.fail "expected payload 9 first");
  Alcotest.(check int) "two left" 2 (Heap.length h)

let test_clear () =
  let h = Heap.create 2 in
  Heap.push h 1.0 1;
  Heap.push h 2.0 2;
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h);
  Heap.push h 7.0 7;
  Alcotest.(check (option (pair (float 0.0) int)))
    "usable after clear" (Some (7.0, 7)) (Heap.pop_min h)

let test_growth () =
  let h = Heap.create 1 in
  for i = 99 downto 0 do
    Heap.push h (float_of_int i) i
  done;
  Alcotest.(check int) "length 100" 100 (Heap.length h);
  (match Heap.pop_min h with
  | Some (_, 0) -> ()
  | _ -> Alcotest.fail "min should be 0")

let test_unboxed_api () =
  (* min_key/min_payload/remove_min must agree with pop_min. *)
  let h = Heap.create 2 in
  List.iter (fun (k, v) -> Heap.push h k v)
    [ (5.0, 5); (1.0, 1); (4.0, 4); (2.0, 2); (3.0, 3) ];
  let order = ref [] in
  while not (Heap.is_empty h) do
    Alcotest.(check (float 0.0)) "key pairs with payload"
      (float_of_int (Heap.min_payload h)) (Heap.min_key h);
    order := Heap.min_payload h :: !order;
    Heap.remove_min h
  done;
  Alcotest.(check (list int)) "sorted drain" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let prop_heapsort =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun keys ->
      let h = Heap.create 4 in
      List.iteri (fun i k -> Heap.push h k i) keys;
      let rec drain acc =
        match Heap.pop_min h with
        | None -> List.rev acc
        | Some (k, _) -> drain (k :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare keys)

let prop_array_api_matches =
  (* [push_at]/[pop_into] against [push]/[pop_min] on the same interleaved
     operations. Keys come from a small range so ties are common: both
     pairs must pop the same payloads in the same order. [None] is a pop,
     [Some k] pushes key [k] with the operation's index as payload. *)
  QCheck.Test.make ~name:"push_at/pop_into match push/pop_min" ~count:300
    QCheck.(list (option (int_bound 6)))
    (fun ops ->
      let ops = Array.of_list ops in
      let dist = Array.map (function Some k -> float_of_int k | None -> 0.0) ops in
      let a = Heap.create 2 and b = Heap.create 2 in
      let key = [| 0.0 |] in
      let ok = ref true in
      Array.iteri
        (fun i op ->
          match op with
          | Some _ ->
              Heap.push a dist.(i) i;
              Heap.push_at b dist i
          | None -> (
              match Heap.pop_min a with
              | None -> ok := !ok && Heap.is_empty b
              | Some (k, v) ->
                  let v' = Heap.pop_into b key in
                  ok := !ok && v = v' && Float.equal k key.(0)))
        ops;
      while not (Heap.is_empty a) do
        match Heap.pop_min a with
        | None -> ()
        | Some (k, v) ->
            let v' = Heap.pop_into b key in
            ok := !ok && v = v' && Float.equal k key.(0)
      done;
      !ok && Heap.is_empty b)

let suite =
  ( "heap",
    [
      Alcotest.test_case "empty heap" `Quick test_empty;
      Alcotest.test_case "single element" `Quick test_single;
      Alcotest.test_case "ordering" `Quick test_ordering;
      Alcotest.test_case "duplicate keys" `Quick test_duplicate_keys;
      Alcotest.test_case "clear" `Quick test_clear;
      Alcotest.test_case "growth" `Quick test_growth;
      Alcotest.test_case "unboxed access" `Quick test_unboxed_api;
      QCheck_alcotest.to_alcotest prop_heapsort;
      QCheck_alcotest.to_alcotest prop_array_api_matches;
    ] )
