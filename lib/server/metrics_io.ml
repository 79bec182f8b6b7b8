open Dcn_obs

(* Decode a rendered metrics snapshot (the body of [GET /metrics], i.e.
   [Metrics.to_json] output) back into the snapshot algebra, so a
   coordinator can diff and merge fleet telemetry with
   [Metrics.diff]/[Metrics.merge] exactly as if it were local. Top-level
   fields other than the three sections (e.g. [solver_version],
   [uptime_ns] meta) are ignored. *)

let ( let* ) = Result.bind

let num_field name j =
  match Json.to_float_opt j with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "metrics: %s is not a number" name)

let float_array name j =
  match j with
  | Json.Arr xs ->
      let rec go acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | x :: rest -> (
            match Json.to_float_opt x with
            | Some x -> go (x :: acc) rest
            | None ->
                Error (Printf.sprintf "metrics: %s has a non-number element" name))
      in
      go [] xs
  | Json.Null | Bool _ | Int _ | Num _ | Str _ | Obj _ ->
      Error (Printf.sprintf "metrics: %s is not an array" name)

let int_array name j =
  let* xs = float_array name j in
  let out = Array.make (Array.length xs) 0 in
  let bad = ref false in
  Array.iteri
    (fun i x ->
      if Float.is_integer x && Float.abs x <= 1e15 then
        out.(i) <- int_of_float x
      else bad := true)
    xs;
  if !bad then Error (Printf.sprintf "metrics: %s has a non-integer element" name)
  else Ok out

let histogram name j =
  match
    (Json.member "bounds" j, Json.member "counts" j, Json.member "sum" j)
  with
  | Some bounds, Some counts, Some sum ->
      let* bounds = float_array (name ^ ".bounds") bounds in
      let* counts = int_array (name ^ ".counts") counts in
      let* sum = num_field (name ^ ".sum") sum in
      if Array.length counts <> Array.length bounds + 1 then
        Error (Printf.sprintf "metrics: %s bucket/bound mismatch" name)
      else Ok (Metrics.Histogram_v { bounds; counts; sum })
  | _ -> Error (Printf.sprintf "metrics: %s is missing bounds/counts/sum" name)

let section name decode j acc =
  match Json.member name j with
  | None | Some Json.Null -> Ok acc
  | Some (Json.Obj fields) ->
      List.fold_left
        (fun acc (k, v) ->
          let* acc = acc in
          let* value = decode k v in
          Ok ((k, value) :: acc))
        (Ok acc) fields
  | Some (Json.Bool _ | Int _ | Num _ | Str _ | Arr _) ->
      Error (Printf.sprintf "metrics: %s is not an object" name)

let snapshot_of_json j =
  let* entries =
    let* acc =
      section "counters"
        (fun k v ->
          let* x = num_field k v in
          if Float.is_integer x && Float.abs x <= 1e15 then
            Ok (Metrics.Counter_v (int_of_float x))
          else Error (Printf.sprintf "metrics: counter %s is not an integer" k))
        j []
    in
    let* acc =
      section "gauges"
        (fun k v ->
          let* x = num_field k v in
          Ok (Metrics.Gauge_v x))
        j acc
    in
    section "histograms" histogram j acc
  in
  Ok (List.sort (fun (a, _) (b, _) -> String.compare a b) entries)

let snapshot_of_body body =
  let* j = Json.parse body in
  snapshot_of_json j
