type t = { src : int; dst : int; demand : float }

let make ~src ~dst ~demand =
  if src = dst then invalid_arg "Commodity.make: src = dst";
  if demand <= 0.0 || Float.is_nan demand then
    invalid_arg "Commodity.make: demand must be positive";
  if not (Float.is_finite demand) then
    invalid_arg "Commodity.make: demand must be finite";
  { src; dst; demand }

let total_demand cs = Array.fold_left (fun acc c -> acc +. c.demand) 0.0 cs

let validate ~n cs =
  Array.iter
    (fun c ->
      if c.src < 0 || c.src >= n || c.dst < 0 || c.dst >= n then
        invalid_arg "Commodity.validate: endpoint out of range")
    cs

let group_by_source ~n cs =
  validate ~n cs;
  let merged = Array.init n (fun _ -> Hashtbl.create 8) in
  Array.iter
    (fun c ->
      let tbl = merged.(c.src) in
      let existing = try Hashtbl.find tbl c.dst with Not_found -> 0.0 in
      Hashtbl.replace tbl c.dst (existing +. c.demand))
    cs;
  let groups = ref [] in
  for s = n - 1 downto 0 do
    if Hashtbl.length merged.(s) > 0 then begin
      let dests =
        (* Destinations are unique per source table: key order is total. *)
        Hashtbl.fold (fun dst d acc -> (dst, d) :: acc) merged.(s) []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      in
      groups := (s, dests) :: !groups
    end
  done;
  Array.of_list !groups

let pp ppf c = Format.fprintf ppf "%d->%d (%.3g)" c.src c.dst c.demand
