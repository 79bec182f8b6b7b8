let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

type counter = { c_name : string; c : int Atomic.t }

(* Gauges and histogram sums store float bits in an int64 Atomic so updates
   can use compare-and-set without boxing a mutex around every metric. *)
type gauge = { g_name : string; g : int64 Atomic.t }

type histogram = {
  h_name : string;
  bounds : float array;
  counts : int Atomic.t array;  (* length = Array.length bounds + 1 *)
  sum : int64 Atomic.t;  (* float bits *)
}

type metric = C of counter | G of gauge | H of histogram

let registry : (string, metric) Hashtbl.t =
  Hashtbl.create 64 [@@dcn.guarded_by "reg_mutex"]
let reg_mutex = Mutex.create ()

let register name make =
  Mutex.lock reg_mutex;
  let m =
    match Hashtbl.find_opt registry name with
    | Some m -> m
    | None ->
        let m = make () in
        Hashtbl.add registry name m;
        m
  in
  Mutex.unlock reg_mutex;
  m

let kind_error name want =
  invalid_arg
    (Printf.sprintf "Metrics: %s is already registered and is not a %s" name
       want)

let counter name =
  match register name (fun () -> C { c_name = name; c = Atomic.make 0 }) with
  | C c -> c
  | G _ | H _ -> kind_error name "counter"

let gauge name =
  match
    register name (fun () ->
        G { g_name = name; g = Atomic.make (Int64.bits_of_float 0.0) })
  with
  | G g -> g
  | C _ | H _ -> kind_error name "gauge"

(* Exponential latency grid, 1µs .. 30s, for durations in seconds. *)
let default_bounds =
  [| 1e-6; 1e-5; 1e-4; 3e-4; 1e-3; 3e-3; 1e-2; 3e-2; 0.1; 0.3; 1.0; 3.0;
     10.0; 30.0 |]

let histogram ?(bounds = default_bounds) name =
  if Array.length bounds = 0 then invalid_arg "Metrics.histogram: no bounds";
  Array.iteri
    (fun i b ->
      if i > 0 && not (bounds.(i - 1) < b) then
        invalid_arg "Metrics.histogram: bounds must be strictly increasing")
    bounds;
  match
    register name (fun () ->
        H
          {
            h_name = name;
            bounds = Array.copy bounds;
            counts = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
            sum = Atomic.make (Int64.bits_of_float 0.0);
          })
  with
  | H h -> h
  | C _ | G _ -> kind_error name "histogram"

let add c n = if Atomic.get on then ignore (Atomic.fetch_and_add c.c n)
let incr c = add c 1
let set g v = if Atomic.get on then Atomic.set g.g (Int64.bits_of_float v)

let rec atomic_add_float cell x =
  let old = Atomic.get cell in
  let updated = Int64.bits_of_float (Int64.float_of_bits old +. x) in
  if not (Atomic.compare_and_set cell old updated) then atomic_add_float cell x

(* First bucket whose upper bound exceeds [v]; the trailing bucket catches
   everything >= the last bound. Linear scan: bucket arrays are short. *)
let bucket_index bounds v =
  let k = Array.length bounds in
  let rec go i = if i >= k || v < bounds.(i) then i else go (i + 1) in
  go 0

let observe h v =
  if Atomic.get on then begin
    Atomic.incr h.counts.(bucket_index h.bounds v);
    atomic_add_float h.sum v
  end

(* Quantile estimate from fixed buckets: the upper edge of the bucket in
   which the rank-⌈q·n⌉ observation lies. Exact at bucket boundaries by
   the bucket semantics (lower bound inclusive): a value observed at bound
   b lands in the bucket whose upper edge is the next bound, so the
   estimate is always an upper bound on the true quantile and coincides
   with it when the distribution sits on the grid. *)
let histogram_quantile ~bounds ~counts q =
  if q < 0.0 || q > 1.0 then invalid_arg "Metrics.histogram_quantile: q out of [0,1]";
  let n = Array.fold_left ( + ) 0 counts in
  if n = 0 then Float.nan
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
    let k = Array.length bounds in
    let rec go i cum =
      if i >= Array.length counts then infinity
      else
        let cum = cum + counts.(i) in
        if cum >= rank then (if i < k then bounds.(i) else infinity)
        else go (i + 1) cum
    in
    go 0 0
  end

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { bounds : float array; counts : int array; sum : float }

let value_quantile v q =
  match v with
  | Histogram_v { bounds; counts; _ } -> Some (histogram_quantile ~bounds ~counts q)
  | Counter_v _ | Gauge_v _ -> None

type snapshot = (string * value) list

let snapshot () =
  Mutex.lock reg_mutex;
  let entries =
    Hashtbl.fold
      (fun name m acc ->
        let v =
          match m with
          | C c -> Counter_v (Atomic.get c.c)
          | G g -> Gauge_v (Int64.float_of_bits (Atomic.get g.g))
          | H h ->
              Histogram_v
                {
                  bounds = Array.copy h.bounds;
                  counts = Array.map Atomic.get h.counts;
                  sum = Int64.float_of_bits (Atomic.get h.sum);
                }
        in
        (name, v) :: acc)
      registry []
  in
  Mutex.unlock reg_mutex;
  List.sort (fun (a, _) (b, _) -> String.compare a b) entries

let find snap name = List.assoc_opt name snap

let counter_value snap name =
  match find snap name with
  | Some (Counter_v n) -> n
  | Some (Gauge_v _ | Histogram_v _) | None -> 0

let diff ~before ~after =
  List.filter_map
    (fun (name, v) ->
      match (v, find before name) with
      | Counter_v a, Some (Counter_v b) ->
          if a = b then None else Some (name, Counter_v (a - b))
      | Gauge_v a, Some (Gauge_v b) ->
          if Float.equal a b then None else Some (name, Gauge_v a)
      | Histogram_v h, Some (Histogram_v hb)
        when Array.length h.counts = Array.length hb.counts ->
          let counts = Array.mapi (fun i c -> c - hb.counts.(i)) h.counts in
          if Array.for_all (fun c -> c = 0) counts then None
          else
            Some
              ( name,
                Histogram_v
                  { bounds = h.bounds; counts; sum = h.sum -. hb.sum } )
      | Counter_v 0, None -> None
      | Histogram_v h, None when Array.for_all (fun c -> c = 0) h.counts ->
          None
      | ( ((Counter_v _ | Gauge_v _ | Histogram_v _) as v),
          (Some (Counter_v _ | Gauge_v _ | Histogram_v _) | None) ) ->
          Some (name, v))
    after

let merge a b =
  let names =
    List.sort_uniq String.compare (List.map fst a @ List.map fst b)
  in
  List.filter_map
    (fun name ->
      match (find a name, find b name) with
      | Some ((Counter_v _ | Gauge_v _ | Histogram_v _) as v), None
      | None, Some ((Counter_v _ | Gauge_v _ | Histogram_v _) as v) ->
          Some (name, v)
      | Some (Counter_v x), Some (Counter_v y) -> Some (name, Counter_v (x + y))
      | Some (Gauge_v _), Some (Gauge_v y) -> Some (name, Gauge_v y)
      | Some (Histogram_v x), Some (Histogram_v y)
        when Array.length x.counts = Array.length y.counts ->
          Some
            ( name,
              Histogram_v
                {
                  bounds = y.bounds;
                  counts = Array.mapi (fun i c -> c + y.counts.(i)) x.counts;
                  sum = x.sum +. y.sum;
                } )
      | ( Some (Counter_v _ | Gauge_v _ | Histogram_v _),
          Some ((Counter_v _ | Gauge_v _ | Histogram_v _) as v) ) ->
          Some (name, v)
      | None, None -> None)
    names

let sections snap =
  let section kind render =
    ( kind,
      Json.Obj
        (List.filter_map
           (fun (name, v) -> Option.map (fun j -> (name, j)) (render v))
           snap) )
  in
  let nums xs = Json.Arr (Array.to_list (Array.map (fun x -> Json.Num x) xs)) in
  [
    section "counters" (function
      | Counter_v n -> Some (Json.Int n)
      | Gauge_v _ | Histogram_v _ -> None);
    section "gauges" (function
      | Gauge_v v -> Some (Json.Num v)
      | Counter_v _ | Histogram_v _ -> None);
    section "histograms" (function
      | Histogram_v { bounds; counts; sum } ->
          (* Bucketed percentile summaries: the empty histogram's NaN and
             the overflow bucket's infinity render as null. *)
          let q p = Json.Num (histogram_quantile ~bounds ~counts p) in
          Some
            (Json.Obj
               [
                 ("bounds", nums bounds);
                 ( "counts",
                   Json.Arr (Array.to_list (Array.map (fun c -> Json.Int c) counts)) );
                 ("sum", Json.Num sum);
                 ("count", Json.Int (Array.fold_left ( + ) 0 counts));
                 ("p50", q 0.5);
                 ("p95", q 0.95);
                 ("p99", q 0.99);
               ])
      | Counter_v _ | Gauge_v _ -> None);
  ]

let json snap = Json.Obj (sections snap)
let to_json ?(meta = []) snap = Json.pretty (meta @ sections snap)

let write ~path snap = Json.atomic_write ~path (to_json snap)

let reset () =
  Mutex.lock reg_mutex;
  Hashtbl.iter
    (fun _ m ->
      match m with
      | C c -> Atomic.set c.c 0
      | G g -> Atomic.set g.g (Int64.bits_of_float 0.0)
      | H h ->
          Array.iter (fun c -> Atomic.set c 0) h.counts;
          Atomic.set h.sum (Int64.bits_of_float 0.0))
    registry;
  Mutex.unlock reg_mutex

(* Silence unused-field warnings: names are carried for debuggability. *)
let _ = fun (c : counter) -> c.c_name
let _ = fun (g : gauge) -> g.g_name
let _ = fun (h : histogram) -> h.h_name
