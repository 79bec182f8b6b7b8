module Mcmf_fptas = Dcn_flow.Mcmf_fptas
module Commodity = Dcn_flow.Commodity
module Throughput = Dcn_flow.Throughput
module Float_text = Dcn_util.Float_text

(* Line-oriented "key value..." records, one per field, with the arc-flow
   array written one value per line after a declared count. *)

let add_float buf key x =
  Buffer.add_string buf
    (Printf.sprintf "%s %s\n" key (Float_text.to_string x))

let add_int buf key x = Buffer.add_string buf (Printf.sprintf "%s %d\n" key x)

let add_floats buf key xs =
  Buffer.add_string buf (Printf.sprintf "%s %d\n" key (Array.length xs));
  Array.iter
    (fun x -> Buffer.add_string buf (Float_text.to_string x ^ "\n"))
    xs

(* A tiny sequential reader over the payload's lines; every accessor
   returns [None] on any mismatch, and [let*] threads the failure. *)
type cursor = { lines : string array; mutable pos : int }

let ( let* ) = Option.bind
let guard ok = if ok then Some () else None

let cursor text =
  { lines = Array.of_list (String.split_on_char '\n' text); pos = 0 }

let next_line c =
  if c.pos >= Array.length c.lines then None
  else begin
    let line = c.lines.(c.pos) in
    c.pos <- c.pos + 1;
    Some line
  end

let field c key =
  let* line = next_line c in
  let prefix = key ^ " " in
  let plen = String.length prefix in
  if String.length line >= plen && String.sub line 0 plen = prefix then
    Some (String.sub line plen (String.length line - plen))
  else None

let float_field c key =
  let* v = field c key in
  Float_text.of_string_opt v

let int_field c key =
  let* v = field c key in
  int_of_string_opt v

let floats_field c key =
  let* n = int_field c key in
  if n < 0 || c.pos + n > Array.length c.lines then None
  else begin
    let out = Array.make n 0.0 in
    let ok = ref true in
    for i = 0 to n - 1 do
      match Float_text.of_string_opt c.lines.(c.pos + i) with
      | Some x -> out.(i) <- x
      | None -> ok := false
    done;
    c.pos <- c.pos + n;
    if !ok then Some out else None
  end

(* ---- FPTAS results ---- *)

let add_result buf (r : Mcmf_fptas.result) =
  add_float buf "lambda_lower" r.Mcmf_fptas.lambda_lower;
  add_float buf "lambda_upper" r.Mcmf_fptas.lambda_upper;
  add_int buf "phases" r.Mcmf_fptas.phases;
  add_int buf "converged" (if r.Mcmf_fptas.converged then 1 else 0);
  add_floats buf "arc_flow" r.Mcmf_fptas.arc_flow

(* A certified interval is finite with [λ_lo ≤ λ_hi]; a stored one that
   is not (a corrupted digit, say) decodes to [None], a miss. *)
let interval lo hi = Float.is_finite lo && Float.is_finite hi && lo <= hi

let result_fields c =
  let* lambda_lower = float_field c "lambda_lower" in
  let* lambda_upper = float_field c "lambda_upper" in
  let* () = guard (interval lambda_lower lambda_upper) in
  let* phases = int_field c "phases" in
  let* converged = int_field c "converged" in
  let* arc_flow = floats_field c "arc_flow" in
  Some
    {
      Mcmf_fptas.lambda_lower;
      lambda_upper;
      phases;
      converged = converged <> 0;
      arc_flow;
    }

let fptas_magic = "fptas-result 1"

let fptas_result_to_string (r : Mcmf_fptas.result) =
  let buf = Buffer.create (64 + (16 * Array.length r.Mcmf_fptas.arc_flow)) in
  Buffer.add_string buf (fptas_magic ^ "\n");
  add_result buf r;
  Buffer.contents buf

let fptas_result_of_string text =
  let c = cursor text in
  let* m = next_line c in
  if m <> fptas_magic then None else result_fields c

(* ---- FPTAS solve states (result + warm seed) ----

   The whole point of caching a state-carrying solve is that a hit must
   reconstruct the warm state {e bit-exactly}: any later solve seeded from
   it would otherwise depend on whether its producer was computed or
   replayed, breaking the cache-state-independence guarantee. Every float
   goes through {!Float_text} (exact round-trip, including infinities).
   The magic line names the layout: a payload of any other version
   decodes to [None], a miss. *)

let fptas_state_magic = "fptas-state 3"

let fptas_state_to_string (st : Mcmf_fptas.solve_state) =
  let w = st.Mcmf_fptas.warm in
  let buf =
    Buffer.create (256 + (32 * Array.length w.Mcmf_fptas.w_lengths))
  in
  Buffer.add_string buf (fptas_state_magic ^ "\n");
  add_result buf st.Mcmf_fptas.result;
  add_int buf "w_n" w.Mcmf_fptas.w_n;
  add_int buf "w_num_arcs" w.Mcmf_fptas.w_num_arcs;
  add_int buf "w_commodities" (Array.length w.Mcmf_fptas.w_commodities);
  Array.iter
    (fun (cm : Commodity.t) ->
      Buffer.add_string buf
        (Printf.sprintf "%d %d %s\n" cm.Commodity.src cm.Commodity.dst
           (Float_text.to_string cm.Commodity.demand)))
    w.Mcmf_fptas.w_commodities;
  add_float buf "w_scale" w.Mcmf_fptas.w_scale;
  add_float buf "w_eps" w.Mcmf_fptas.w_eps;
  add_int buf "w_phases" w.Mcmf_fptas.w_phases;
  add_float buf "w_dual" w.Mcmf_fptas.w_dual;
  add_floats buf "w_lengths" w.Mcmf_fptas.w_lengths;
  (match w.Mcmf_fptas.w_group_flow with
  | None -> add_int buf "w_groups" (-1)
  | Some gf ->
      add_int buf "w_groups" (Array.length gf);
      Array.iter (add_floats buf "gs_flow") gf);
  Buffer.contents buf

let fptas_state_of_string text =
  let c = cursor text in
  let* m = next_line c in
  if m <> fptas_state_magic then None
  else
    let* result = result_fields c in
    let* w_n = int_field c "w_n" in
    let* w_num_arcs = int_field c "w_num_arcs" in
    let* ncs = int_field c "w_commodities" in
    if ncs < 0 || c.pos + ncs > Array.length c.lines then None
    else begin
      let cs = Array.make ncs { Commodity.src = 0; dst = 0; demand = 0.0 } in
      let ok = ref true in
      for i = 0 to ncs - 1 do
        match String.split_on_char ' ' c.lines.(c.pos + i) with
        | [ s; d; dem ] -> (
            match
              (int_of_string_opt s, int_of_string_opt d,
               Float_text.of_string_opt dem)
            with
            | Some src, Some dst, Some demand ->
                cs.(i) <- { Commodity.src; dst; demand }
            | _ -> ok := false)
        | _ -> ok := false
      done;
      c.pos <- c.pos + ncs;
      if not !ok then None
      else
        let* w_scale = float_field c "w_scale" in
        let* w_eps = float_field c "w_eps" in
        let* w_phases = int_field c "w_phases" in
        let* w_dual = float_field c "w_dual" in
        let* w_lengths = floats_field c "w_lengths" in
        let* k = int_field c "w_groups" in
        let* w_group_flow =
          if k < 0 then Some None
          else begin
            let gf = Array.make k [||] in
            let rec go gi =
              if gi >= k then Some (Some gf)
              else
                let* f = floats_field c "gs_flow" in
                gf.(gi) <- f;
                go (gi + 1)
            in
            go 0
          end
        in
        Some
          {
            Mcmf_fptas.result;
            warm =
              {
                Mcmf_fptas.w_n;
                w_num_arcs;
                w_commodities = cs;
                w_scale;
                w_eps;
                w_phases;
                w_dual;
                w_lengths;
                w_group_flow;
              };
          }
    end

(* ---- Throughput metrics ---- *)

let throughput_magic = "throughput 1"

let throughput_to_string (t : Throughput.t) =
  let buf = Buffer.create (96 + (16 * Array.length t.Throughput.arc_flow)) in
  Buffer.add_string buf (throughput_magic ^ "\n");
  add_float buf "lambda" t.Throughput.lambda;
  add_float buf "lambda_lower" (fst t.Throughput.lambda_bounds);
  add_float buf "lambda_upper" (snd t.Throughput.lambda_bounds);
  add_float buf "utilization" t.Throughput.utilization;
  add_float buf "mean_shortest_path" t.Throughput.mean_shortest_path;
  add_float buf "stretch" t.Throughput.stretch;
  add_floats buf "arc_flow" t.Throughput.arc_flow;
  Buffer.contents buf

let throughput_of_string text =
  let c = cursor text in
  let* m = next_line c in
  if m <> throughput_magic then None
  else
    let* lambda = float_field c "lambda" in
    let* lo = float_field c "lambda_lower" in
    let* hi = float_field c "lambda_upper" in
    let* utilization = float_field c "utilization" in
    let* mean_shortest_path = float_field c "mean_shortest_path" in
    let* () =
      guard
        (Float.is_finite lambda && interval lo hi
        && Float.is_finite mean_shortest_path)
    in
    let* stretch = float_field c "stretch" in
    let* arc_flow = floats_field c "arc_flow" in
    Some
      {
        Throughput.lambda;
        lambda_bounds = (lo, hi);
        utilization;
        mean_shortest_path;
        stretch;
        arc_flow;
      }
