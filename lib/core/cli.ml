(* Shared command-line vocabulary.

   Every front end of the repository — bin/topobench, bench/main, and
   the serving layer's daemon and client, all cmdliner — accepts the same
   option surface: --jobs, --cache-dir, --metrics/--trace/--progress,
   --eps/--gap, topology and traffic specs.
   The parsers live here exactly once, as plain string -> result functions
   with the cmdliner terms wrapped around them, so the validation messages
   cannot drift between the tools and the JSON request schema of the
   serving layer reuses the very same spec syntax. *)

open Cmdliner

(* ---- pure parsers ---- *)

let parse_unit_open ~what s =
  match float_of_string_opt s with
  | None -> Error (Printf.sprintf "%s expects a number, got '%s'" what s)
  | Some x when x > 0.0 && x < 1.0 -> Ok x
  | Some x ->
      Error
        (Printf.sprintf
           "%s must be strictly between 0 and 1 (exclusive), got %g" what x)

let parse_jobs s =
  match int_of_string_opt s with
  | Some j when j >= 1 -> Ok j
  | Some _ -> Error (Printf.sprintf "--jobs must be at least 1 (got %s)" s)
  | None -> Error (Printf.sprintf "--jobs expects an integer, got '%s'" s)

let default_jobs () = Domain.recommended_domain_count ()

(* ---- topology specs ---- *)

type topo_spec =
  | Rrg of int * int * int (* n, k, r *)
  | Vl2 of int * int (* da, di *)
  | Rewired of int * int * int (* da, di, tors *)
  | Fat_tree of int
  | Hypercube of int * int (* dim, servers per switch *)
  | Bcube of int * int (* n, k *)
  | Dcell of int * int (* n, l *)
  | Dragonfly of int * int (* a, h *)
  | From_file of string

let topo_spec_syntax =
  "rrg:N,K,R | vl2:DA,DI | rewired:DA,DI,TORS | fat-tree:K | \
   hypercube:DIM,SERVERS | bcube:N,K | dcell:N,L | dragonfly:A,H | file:PATH"

let parse_topo_spec s =
  let fail () =
    Error
      (Printf.sprintf "cannot parse topology %S; expected %s" s
         topo_spec_syntax)
  in
  (* [int_of_string_opt] and [String.split_on_char] never raise: parse
     failures flow through the options, no exception handler needed (a
     catch-all here could swallow Cancelled raised around CLI parsing). *)
  let ints rest k =
    let parts = List.map int_of_string_opt (String.split_on_char ',' rest) in
    match
      List.fold_right
        (fun x acc -> Option.bind acc (fun t -> Option.map (fun x -> x :: t) x))
        parts (Some [])
    with
    | Some xs -> k xs
    | None -> fail ()
  in
  match String.split_on_char ':' s with
  | [ "rrg"; rest ] ->
      ints rest (function [ n; k; r ] -> Ok (Rrg (n, k, r)) | _ -> fail ())
  | [ "vl2"; rest ] ->
      ints rest (function [ da; di ] -> Ok (Vl2 (da, di)) | _ -> fail ())
  | [ "rewired"; rest ] ->
      ints rest (function
        | [ da; di; t ] -> Ok (Rewired (da, di, t))
        | _ -> fail ())
  | [ "fat-tree"; k ] -> (
      match int_of_string_opt k with
      | Some k -> Ok (Fat_tree k)
      | None -> fail ())
  | [ "hypercube"; rest ] ->
      ints rest (function [ d; s ] -> Ok (Hypercube (d, s)) | _ -> fail ())
  | [ "bcube"; rest ] ->
      ints rest (function [ n; k ] -> Ok (Bcube (n, k)) | _ -> fail ())
  | [ "dcell"; rest ] ->
      ints rest (function [ n; l ] -> Ok (Dcell (n, l)) | _ -> fail ())
  | [ "dragonfly"; rest ] ->
      ints rest (function [ a; h ] -> Ok (Dragonfly (a, h)) | _ -> fail ())
  | [ "file"; path ] -> Ok (From_file path)
  | _ -> fail ()

let topo_spec_to_string = function
  | Rrg (n, k, r) -> Printf.sprintf "rrg:%d,%d,%d" n k r
  | Vl2 (da, di) -> Printf.sprintf "vl2:%d,%d" da di
  | Rewired (da, di, t) -> Printf.sprintf "rewired:%d,%d,%d" da di t
  | Fat_tree k -> Printf.sprintf "fat-tree:%d" k
  | Hypercube (d, s) -> Printf.sprintf "hypercube:%d,%d" d s
  | Bcube (n, k) -> Printf.sprintf "bcube:%d,%d" n k
  | Dcell (n, l) -> Printf.sprintf "dcell:%d,%d" n l
  | Dragonfly (a, h) -> Printf.sprintf "dragonfly:%d,%d" a h
  | From_file p -> Printf.sprintf "file:%s" p

let build_topology spec ~seed =
  let st = Random.State.make [| seed |] in
  match spec with
  | Rrg (n, k, r) -> Dcn_topology.Rrg.topology st ~n ~k ~r
  | Vl2 (da, di) -> Dcn_topology.Vl2.create ~da ~di ()
  | Rewired (da, di, tors) -> Dcn_topology.Rewire.create st ~tors ~da ~di ()
  | Fat_tree k -> Dcn_topology.Fat_tree.create ~k ()
  | Hypercube (dim, servers_per_switch) ->
      Dcn_topology.Hypercube.topology ~dim ~servers_per_switch
  | Bcube (n, k) -> Dcn_topology.Bcube.create ~n ~k
  | Dcell (n, l) -> Dcn_topology.Dcell.create ~n ~l
  | Dragonfly (a, h) -> Dcn_topology.Dragonfly.create ~a ~h ()
  | From_file path -> Dcn_io.Topology_io.load path

(* ---- traffic specs ---- *)

type traffic_kind = Perm | A2a | Chunky of float

let parse_traffic s =
  match s with
  | "permutation" | "perm" -> Ok Perm
  | "all-to-all" | "a2a" -> Ok A2a
  | s when String.length s > 7 && String.sub s 0 7 = "chunky:" -> (
      match float_of_string_opt (String.sub s 7 (String.length s - 7)) with
      | Some f when f >= 0.0 && f <= 100.0 -> Ok (Chunky (f /. 100.0))
      | _ -> Error "chunky:PERCENT expects a percentage in [0, 100]")
  | _ -> Error "traffic must be permutation | a2a | chunky:PERCENT"

let traffic_to_string = function
  | Perm -> "permutation"
  | A2a -> "a2a"
  | Chunky f -> Printf.sprintf "chunky:%g" (f *. 100.0)

let make_traffic kind st ~servers =
  match kind with
  | Perm -> Dcn_traffic.Traffic.permutation st ~servers
  | A2a -> Dcn_traffic.Traffic.all_to_all ~servers
  | Chunky fraction -> Dcn_traffic.Traffic.chunky st ~servers ~fraction

(* ---- cmdliner terms ---- *)

let result_conv ~parse ~print = Arg.conv ((fun s ->
    match parse s with Ok v -> Ok v | Error msg -> Error (`Msg msg)), print)

let unit_open_conv what =
  result_conv
    ~parse:(fun s -> parse_unit_open ~what s)
    ~print:(fun ppf x -> Format.fprintf ppf "%g" x)

let eps_arg =
  let doc =
    "FPTAS length step, strictly between 0 and 1. A solve starts at \
     twice this step (at most the larger of this step and 0.5) and \
     halves to it after a short stall; a longer stall halves it further. \
     The step moves only the phase count: the answer is certified to \
     $(b,--gap) either way."
  in
  Arg.(value & opt (unit_open_conv "--eps") 0.05 & info [ "eps" ] ~doc)

let gap_arg =
  let doc =
    "Certified relative gap at which the solver stops, strictly between 0 \
     and 1."
  in
  Arg.(value & opt (unit_open_conv "--gap") 0.05 & info [ "gap" ] ~doc)

let params_of eps gap = { Dcn_flow.Mcmf_fptas.eps; gap; max_phases = 100_000 }

let jobs_conv =
  result_conv ~parse:parse_jobs ~print:(fun ppf j -> Format.fprintf ppf "%d" j)

let jobs_arg =
  let doc =
    "Total parallelism of the shared domain pool (at least 1). The batch \
     tools give the pool $(docv)-1 workers plus the submitting thread; the \
     serving daemon runs $(docv) request handlers. Defaults to the \
     machine's recommended domain count. Results are bit-identical at any \
     value."
  in
  Arg.(
    value
    & opt jobs_conv (default_jobs ())
    & info [ "jobs" ] ~doc ~docv:"JOBS")

let seed_arg =
  let doc = "Random seed (experiments are deterministic given the seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

let topo_conv =
  result_conv ~parse:parse_topo_spec ~print:(fun ppf spec ->
      Format.pp_print_string ppf (topo_spec_to_string spec))

let traffic_conv =
  result_conv ~parse:parse_traffic ~print:(fun ppf k ->
      Format.pp_print_string ppf (traffic_to_string k))

let traffic_arg =
  let doc = "Traffic matrix: permutation (default), a2a, or chunky:PERCENT." in
  Arg.(value & opt traffic_conv Perm & info [ "traffic" ] ~doc)

(* ---- result-store options ---- *)

let cache_dir_arg =
  let doc =
    "Directory of the content-addressed result store. Solves whose \
     canonical request (topology, demands, parameters, solver version) \
     was measured before are replayed from disk, bit-identically."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~doc ~docv:"DIR")

let no_cache_arg =
  let doc = "Ignore the result store for this invocation." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let open_store dir =
  match Dcn_store.Store.open_store dir with
  | store -> Ok store
  | exception Failure msg -> Error msg

let setup_store cache_dir no_cache =
  match cache_dir with
  | Some dir when not no_cache ->
      Result.map
        (fun store ->
          Dcn_store.Store.set_shared (Some store);
          true)
        (open_store dir)
  | _ -> Ok false

let report_cache_stats () =
  match Dcn_store.Store.shared () with
  | None -> ()
  | Some store ->
      let c = Dcn_store.Store.counters store in
      Format.printf "cache           : %d hits, %d misses@."
        c.Dcn_store.Store.hits c.Dcn_store.Store.misses

(* ---- observability options ---- *)

let metrics_arg =
  let doc =
    "Write a JSON snapshot of the metrics registry (FPTAS phases and \
     Dijkstra work, simplex pivots, store hit/miss latencies, pool \
     queue-wait histograms) to $(docv) on exit. Observational only: \
     results are bit-identical with or without it."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~doc ~docv:"FILE")

let trace_arg =
  let doc =
    "Write a Chrome trace-event file of solver and pool spans to $(docv) \
     on exit; open it in Perfetto (ui.perfetto.dev) or chrome://tracing. \
     One track per domain."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")

let progress_arg =
  let doc =
    "Print one line per experiment sample to stderr (figure label, sample \
     index, elapsed seconds, cache traffic). Stdout — tables and CSVs — \
     is untouched."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

let obs_args =
  Term.(
    const (fun metrics trace progress -> (metrics, trace, progress))
    $ metrics_arg $ trace_arg $ progress_arg)

(* Enable the requested sinks, run the command body, and publish the files
   afterwards — also on exceptions, so a failed run still leaves a usable
   partial trace for diagnosis. *)
let with_obs (metrics, trace, progress) body =
  if metrics <> None then Dcn_obs.Metrics.set_enabled true;
  if trace <> None then Dcn_obs.Trace.set_enabled true;
  if progress then Dcn_obs.Progress.set_enabled true;
  Fun.protect body ~finally:(fun () ->
      (match metrics with
      | Some path -> Dcn_obs.Metrics.write ~path (Dcn_obs.Metrics.snapshot ())
      | None -> ());
      match trace with
      | Some path -> Dcn_obs.Trace.write path
      | None -> ())
