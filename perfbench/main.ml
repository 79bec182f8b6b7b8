(* perfbench — the repository's benchmark.

   Three workloads, one executable. README.md in this directory says why
   each workload exists and which per-layer metric should move which
   end-to-end metric on which workload.

     solve  cold certified solves in process, no store: the computations
            of `topobench throughput rrg:200,24,12` and
            `topobench routing rrg:100,24,12`;
     sweep  fig4c + fig6c + fig12a at quick scale, parallel across points,
            computed into an empty result store (cold pass) and then
            replayed from it (replay pass);
     serve  a closed loop of keep-alive callers against a fresh
            `dcn_served --engine epoll` on a pre-filled store: cold,
            store and hot request classes.

   Usage:
     main.exe --workload W --seed N --seconds S --trace 0|1 [--commit SHA]
     main.exe --record-reference FILE

   Run from the repository root (perfbench/run.py does both). Pools and
   the daemon get one domain per core; scratch stores and daemon logs go
   to .perfbench-work, removed when the run ends.

   Every answer is checked (see README.md, "Correctness"). The last stdout
   line is the result object {"correct", "attempted", "failed",
   "metrics"}: the end-to-end metrics with --trace 0, the per-layer
   metrics with --trace 1. The line before it starts with
   "perfbench-report " and carries the run's environment, the workload's
   metrics under their own names with sample counts, and the exact
   counters. Exit status 1 means a correctness check failed; 2 means bad
   arguments or a broken set-up. *)

module Metrics = Dcn_obs.Metrics
module Clock = Dcn_obs.Clock
module Json = Dcn_obs.Json
module Request = Dcn_serve.Request
module Load_gen = Dcn_serve.Load_gen
module Http = Dcn_serve.Http
module Json_parse = Dcn_serve.Json_parse
module Spawn = Dcn_orchestrate.Spawn

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                 *)

let timed f =
  let t0 = Clock.now_ns () in
  let v = f () in
  (v, Clock.elapsed_s t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Python's statistics.median: the mean of the middle two for even n. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Exact nearest-rank percentile over the samples themselves: the
   smallest sample with at least [p] of all samples at or below it. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.index_opt line ':' with
             | Some i when String.sub line 0 i = "VmHWM" ->
                 let v = String.sub line (i + 1) (String.length line - i - 1) in
                 Option.map
                   (fun kb -> float_of_int kb /. 1024.0)
                   (int_of_string_opt
                      (List.hd (String.split_on_char ' ' (String.trim v))))
             | _ -> None)
      |> Option.value ~default:nan

(* CPU seconds (user + system, all threads) a process has used so far. *)
let cpu_s pid =
  if pid = "self" then
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  else
    let path = Printf.sprintf "/proc/%s/stat" pid in
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error _ -> nan
    | text ->
        (* After the parenthesised command name comes field 3 (state);
           utime and stime are fields 14 and 15, in 100 Hz ticks. *)
        let i = String.rindex text ')' + 2 in
        let fields =
          Array.of_list (String.split_on_char ' ' (String.sub text i (String.length text - i)))
        in
        if Array.length fields < 13 then nan
        else (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.0

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let fresh_dir path =
  rm_rf path;
  Json.mkdir_p path

let hist_sum snap name =
  match Metrics.find snap name with
  | Some (Metrics.Histogram_v { sum; _ }) -> sum
  | _ -> 0.0

let hist_count snap name =
  match Metrics.find snap name with
  | Some (Metrics.Histogram_v { counts; _ }) -> Array.fold_left ( + ) 0 counts
  | _ -> 0

(* ------------------------------------------------------------------ *)
(* Spans: per-layer time from the benchmark's own calls                *)

(* Seconds spent in each (leg, layer) pair, recorded around the
   benchmark's calls into each layer's public functions. Recording is on
   only in the traced round and only on the main domain. *)
let tracing = ref false
let spans : (string * string, float) Hashtbl.t = Hashtbl.create 32

let add_span leg layer dt =
  let prev = Option.value ~default:0.0 (Hashtbl.find_opt spans (leg, layer)) in
  Hashtbl.replace spans (leg, layer) (prev +. dt)

let span leg layer f =
  if not !tracing then f ()
  else begin
    let v, dt = timed f in
    add_span leg layer dt;
    v
  end

(* Layer total over every leg. *)
let layer_s layer =
  Hashtbl.fold (fun (_, l) dt acc -> if l = layer then acc +. dt else acc) spans 0.0

(* Leg total over every layer. *)
let leg_s leg =
  Hashtbl.fold (fun (g, _) dt acc -> if g = leg then acc +. dt else acc) spans 0.0

(* ------------------------------------------------------------------ *)
(* Correctness accounting                                              *)

let attempted = ref 0
let failed = ref 0

(* One checked answer; [problems] names every check it failed. *)
let check what problems =
  incr attempted;
  if problems <> [] then begin
    incr failed;
    List.iter
      (fun p -> Printf.eprintf "perfbench: FAILED %s: %s\n%!" what p)
      problems
  end

let expect cond msg = if cond then None else Some msg

(* Reference certified intervals, "label spec seed lo hi" per line,
   produced by --record-reference. Two certificates of the same optimum
   must overlap, so a solver change that stays correct still passes.
   Lines "work:LEG spec seed arcs" record the Dijkstra arcs each
   solve-pool leg scans (a machine-independent measure of its work);
   they only rank instances by difficulty. *)
let reference : (string, float * float) Hashtbl.t = Hashtbl.create 256
let recorded_work : (string, int) Hashtbl.t = Hashtbl.create 64

let ref_key ~label ~spec ~seed =
  Printf.sprintf "%s %s %d" label (Core.Cli.topo_spec_to_string spec) seed

let load_reference path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> die "cannot read reference file: %s" msg
  | text ->
      List.iter
        (fun line ->
          match String.split_on_char ' ' (String.trim line) with
          | [ label; spec; seed; lo; hi ] when label.[0] <> '#' ->
              Hashtbl.replace reference
                (String.concat " " [ label; spec; seed ])
                (float_of_string lo, float_of_string hi)
          | [ label; spec; seed; work ] when label.[0] <> '#' ->
              Hashtbl.replace recorded_work
                (String.concat " " [ label; spec; seed ])
                (int_of_string work)
          | _ -> ())
        (String.split_on_char '\n' text)

let tol = 1e-9

(* Every FPTAS answer: a proper interval, achieved gap <= requested,
   lambda_lo <= the Theorem-1 bound (when given), and overlap with the
   recorded reference interval. *)
let certificate_problems ~key ~gap ?bound (lo, hi) =
  List.filter_map Fun.id
    [
      expect (lo > 0.0 && hi >= lo) (Printf.sprintf "bad interval [%g, %g]" lo hi);
      expect
        ((hi /. lo) -. 1.0 <= gap +. tol)
        (Printf.sprintf "achieved gap %.5f exceeds requested %.5f"
           ((hi /. lo) -. 1.0) gap);
      (match bound with
      | Some b ->
          expect
            (lo <= b *. (1.0 +. tol))
            (Printf.sprintf "lambda_lo %.6f above Theorem-1 bound %.6f" lo b)
      | None -> None);
      (match Hashtbl.find_opt reference key with
      | None -> Some ("no reference interval for " ^ key)
      | Some (rlo, rhi) ->
          expect
            (lo <= rhi *. (1.0 +. tol) && rlo <= hi *. (1.0 +. tol))
            (Printf.sprintf "[%.6f, %.6f] does not overlap reference [%.6f, %.6f]"
               lo hi rlo rhi));
    ]

(* Instance [i] of a run: the runs walk a fixed pool of instance seeds
   [1..pool] (each with a recorded reference interval), starting at an
   offset the run seed picks. *)
let pool_seed ~pool ~seed i = 1 + ((((seed * 5) + i) mod pool) + pool) mod pool

(* Solve instances cost from 0.9x to 1.5x the median (the FPTAS stops at
   a certified gap after a number of phases that varies by instance), so
   a run that drew its instances uniformly would swing with the draw.
   The pool is instead ranked by recorded work and cut into [strata]
   equal strata; round [r] takes stratum [r mod strata], and the run seed
   picks the instance inside it. Every run spans the same difficulty. *)
let strata = 4

let ranked_pool ~pool ~spec leg =
  let work seed =
    Option.value ~default:0
      (Hashtbl.find_opt recorded_work (ref_key ~label:("work:" ^ leg) ~spec ~seed))
  in
  List.init pool (fun i -> (work (i + 1), i + 1))
  |> List.sort compare |> List.map snd |> Array.of_list

let stratified_seed ranked ~seed r =
  let per = Array.length ranked / strata in
  let j = r mod strata in
  ranked.((j * per) + ((Hashtbl.hash (seed, j) + (r / strata)) mod per))

let permutation (topo : Core.Topology.t) st =
  Core.Traffic.to_commodities
    (Core.Traffic.permutation st ~servers:topo.Core.Topology.servers)

(* ------------------------------------------------------------------ *)
(* Workload: solve                                                     *)

let solve_params = Core.Cli.params_of 0.05 0.05
let throughput_spec = Core.Cli.Rrg (200, 24, 12)
let routing_spec = Core.Cli.Rrg (100, 24, 12)
let solve_pool = 16

(* Post-solve share of Throughput.compute (its own sweeps after the
   FPTAS returns), separated with the registry's fptas.solve_s. *)
let post_solve_s = ref 0.0

(* spec -> topology -> traffic -> Throughput.compute -> Theorem-1 bound,
   as `topobench throughput` does. *)
let throughput_leg ~seed =
  let leg = "throughput" in
  let topo =
    span leg "topology" (fun () -> Core.Cli.build_topology throughput_spec ~seed)
  in
  let g = topo.Core.Topology.graph in
  let cs =
    span leg "traffic" (fun () -> permutation topo (Random.State.make [| seed; 1 |]))
  in
  let compute () =
    Core.Throughput.compute ~solver:(Core.Throughput.Fptas solve_params) g cs
  in
  let t =
    if not !tracing then compute ()
    else begin
      let before = Metrics.snapshot () in
      let t, dt = timed compute in
      let d = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
      add_span leg "compute" dt;
      post_solve_s := !post_solve_s +. dt -. hist_sum d "fptas.solve_s";
      t
    end
  in
  let bound =
    span leg "theorem1" (fun () -> Core.Throughput_bound.upper_bound_capacity g cs)
  in
  (t.Core.Throughput.lambda_bounds, bound)

type routed = { model : string; lo : float; hi : float }

(* The five-model comparison of `topobench routing`, in its order: the
   VLB path sets draw from the traffic generator's advanced state. *)
let routing_leg ~seed =
  let leg = "routing" in
  let topo =
    span leg "topology" (fun () -> Core.Cli.build_topology routing_spec ~seed)
  in
  let g = topo.Core.Topology.graph in
  let st = Random.State.make [| seed; 1 |] in
  let cs = span leg "traffic" (fun () -> permutation topo st) in
  let optimal =
    span leg "fptas" (fun () -> Core.Mcmf_fptas.solve ~params:solve_params g cs)
  in
  let restricted model build =
    let rcs = span leg "path_sets" build in
    let r =
      span leg "paths" (fun () -> Core.Mcmf_paths.solve ~params:solve_params g rcs)
    in
    {
      model;
      lo = r.Core.Mcmf_paths.lambda_lower;
      hi = r.Core.Mcmf_paths.lambda_upper;
    }
  in
  let ksp = restricted "ksp:8" (fun () -> Core.Mcmf_paths.of_k_shortest g ~k:8 cs) in
  let ecmp = restricted "ecmp" (fun () -> Core.Mcmf_paths.of_ecmp g ~limit:64 cs) in
  let vlb = restricted "vlb:8" (fun () -> Core.Vlb.restrict st g ~intermediates:8 cs) in
  let single =
    restricted "single" (fun () -> Core.Mcmf_paths.of_k_shortest g ~k:1 cs)
  in
  let opt =
    {
      model = "optimal";
      lo = optimal.Core.Mcmf_fptas.lambda_lower;
      hi = optimal.Core.Mcmf_fptas.lambda_upper;
    }
  in
  (g, cs, opt, [ ksp; ecmp; vlb; single ])

let check_throughput ~seed ((lo, hi), bound) =
  let key = ref_key ~label:"throughput" ~spec:throughput_spec ~seed in
  check key (certificate_problems ~key ~gap:0.05 ~bound (lo, hi))

let check_routing ~seed (g, cs, opt, restricted) =
  let key model = ref_key ~label:("routing:" ^ model) ~spec:routing_spec ~seed in
  let bound = Core.Throughput_bound.upper_bound_capacity g cs in
  check (key opt.model)
    (certificate_problems ~key:(key opt.model) ~gap:0.05 ~bound (opt.lo, opt.hi));
  List.iter
    (fun r ->
      check (key r.model)
        (certificate_problems ~key:(key r.model) ~gap:0.05 (r.lo, r.hi)
        @ List.filter_map Fun.id
            [
              expect
                (r.lo <= opt.hi *. (1.0 +. tol))
                "restricted routing beats the optimal upper bound";
            ]))
    restricted

(* One round: the throughput leg on instance [thr_seed], the routing leg
   on [rt_seed], each timed. The checks come back as a thunk so their own
   graph work stays out of the traced counters. *)
let solve_round ~thr_seed ~rt_seed =
  let thr, throughput_s = timed (fun () -> throughput_leg ~seed:thr_seed) in
  let rt, routing_s = timed (fun () -> routing_leg ~seed:rt_seed) in
  ( (throughput_s, routing_s),
    fun () ->
      check_throughput ~seed:thr_seed thr;
      check_routing ~seed:rt_seed rt )

(* ------------------------------------------------------------------ *)
(* Workload: sweep                                                     *)

let sweep_figures =
  [
    ("fig4c", Core.Hetero_experiments.fig4c);
    ("fig6c", Core.Hetero_experiments.fig6c);
    ("fig12a", Core.Vl2_study.fig12a);
  ]

(* Seed 1 is the quick scale exactly as bench/main.exe runs it. *)
let sweep_scale ~seed ~cycle =
  {
    Core.Scale.quick with
    Core.Scale.seed = Core.Scale.quick.Core.Scale.seed + seed - 1 + (1000 * cycle);
  }

let render table =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "%a@." Core.Table.pp table;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* One pass over the three figures against the store at [dir]. The
   figures run one after another, each parallel across its own points:
   overlapping whole figures on the pool made the pass's wall time
   depend on how their tasks happened to interleave. Each pass starts
   from a compacted heap, so it does not pay for the previous one's
   garbage. *)
let sweep_pass ~scale ~dir =
  Gc.compact ();
  let store = Core.Store.open_store dir in
  Core.Store.set_shared (Some store);
  let figures, dt =
    timed (fun () ->
        List.map (fun (_, f) -> timed (fun () -> render (f scale))) sweep_figures)
  in
  Core.Store.set_shared None;
  (figures, dt, Core.Store.counters store)

let check_sweep ~cold:(cold_figures, _, (cc : Core.Store.counters))
    ~replay:(replay_figures, _, (rc : Core.Store.counters)) =
  List.iteri
    (fun i (name, _) ->
      check ("sweep " ^ name)
        (List.filter_map Fun.id
           [
             expect
               (String.equal
                  (fst (List.nth cold_figures i))
                  (fst (List.nth replay_figures i)))
               "replay table differs from the cold-pass table";
           ]))
    sweep_figures;
  check "sweep store"
    (List.filter_map Fun.id
       [
         expect (cc.Core.Store.hits = 0) "cold pass hit an empty store";
         expect (cc.Core.Store.misses > 0) "cold pass solved nothing";
         expect (rc.Core.Store.misses = 0) "replay pass missed the store";
         expect
           (rc.Core.Store.hits = cc.Core.Store.misses)
           (Printf.sprintf "replay hits %d <> cold solves %d" rc.Core.Store.hits
              cc.Core.Store.misses);
       ])

(* The sweep reaches topology, traffic and digesting only inside the
   figure functions, so the traced run times the same public calls on the
   sweep's own point inputs. The enumeration mirrors fig4c
   (server_distribution_table), fig6c (cross_sweep_table) and fig12a
   (max_tors_at_full_throughput, whose binary search reads each probe's
   answer back from the store). Every digest must name a stored entry:
   that checks the mirror against what the figures actually solved. *)
type family = { nl : int; kl : int; ns : int; ks : int; total : int }

let expected_per_large f =
  float_of_int (f.total * f.kl) /. float_of_int ((f.nl * f.kl) + (f.ns * f.ks))

let feasible_splits f =
  List.init f.kl Fun.id
  |> List.filter_map (fun sl ->
         let rem = f.total - (f.nl * sl) in
         if rem >= 0 && rem mod f.ns = 0 && rem / f.ns <= f.ks - 1 then
           Some (sl, rem / f.ns)
         else None)

let proportional_split f =
  let e = expected_per_large f in
  match feasible_splits f with
  | [] -> invalid_arg "proportional_split"
  | first :: _ as splits ->
      List.fold_left
        (fun (bl, bs) (sl, ss) ->
          if Float.abs (float_of_int sl -. e) < Float.abs (float_of_int bl -. e)
          then (sl, ss)
          else (bl, bs))
        first splits

let split_grid f =
  let e = expected_per_large f in
  let splits =
    List.filter
      (fun (sl, _) ->
        let x = float_of_int sl /. e in
        x >= 0.3 && x <= 2.5)
      (feasible_splits f)
  in
  if List.length splits <= 7 then splits
  else
    let arr = Array.of_list splits in
    let n = Array.length arr in
    List.sort_uniq compare
      (proportional_split f :: List.init 7 (fun i -> arr.(i * (n - 1) / 6)))

let replica_pass ~(scale : Core.Scale.t) ~store =
  let leg = "sweep" in
  let params = scale.Core.Scale.params in
  let points = ref 0 and unstored = ref 0 in
  let inputs ~kind build st =
    let topo = span leg "topology" (fun () -> build st) in
    let cs = span leg "traffic" (fun () -> permutation topo st) in
    let key =
      span leg "digest" (fun () ->
          Core.Digest_key.of_solve ~kind ~params ~dual_check_every:1
            topo.Core.Topology.graph cs)
    in
    incr points;
    if not (Core.Store.mem store key) then incr unstored;
    (topo, cs)
  in
  let samples ~salt build =
    for i = 0 to scale.Core.Scale.runs - 1 do
      ignore
        (inputs ~kind:"throughput-fptas" build
           (Random.State.make [| scale.Core.Scale.seed; salt; i |]))
    done
  in
  let two_class ?cross_fraction f (sl, ss) st =
    Core.Hetero.two_class ?cross_fraction st
      ~large:{ Core.Hetero.count = f.nl; ports = f.kl; servers_each = sl }
      ~small:{ Core.Hetero.count = f.ns; ports = f.ks; servers_each = ss }
  in
  let family total = { nl = 20; kl = 30; ns = 30; ks = 20; total } in
  (* fig4c *)
  List.iteri
    (fun fi f ->
      List.iter
        (fun (sl, ss) ->
          samples ~salt:(4300 + (100 * fi) + sl) (two_class f (sl, ss)))
        (split_grid f))
    (List.map family [ 480; 510; 540 ]);
  (* fig6c *)
  List.iteri
    (fun fi f ->
      let split = proportional_split f in
      List.iter
        (fun x ->
          samples
            ~salt:(6300 + (100 * fi) + int_of_float (x *. 20.0))
            (two_class ~cross_fraction:x f split))
        [ 0.2; 0.4; 0.7; 1.0; 1.4; 2.0 ])
    (List.map family [ 300; 500; 700 ]);
  (* fig12a: every run of a probe is evaluated, as under the pool. *)
  let threshold = Core.Vl2_study.full_threshold scale in
  let di = 16 in
  List.iter
    (fun da ->
      let salt = 12100 + (1000 * di) + da in
      let probe tors =
        tors < 2
        ||
        let s = salt + tors in
        let topo =
          span leg "topology" (fun () ->
              Core.Rewire.create
                (Random.State.make [| scale.Core.Scale.seed; s; 77 |])
                ~tors ~da ~di ())
        in
        let passes =
          List.init scale.Core.Scale.runs (fun i ->
              let st = Random.State.make [| scale.Core.Scale.seed; s; i |] in
              let _, cs = inputs ~kind:"fptas" (fun _ -> topo) st in
              let lambda =
                Core.Solve_cache.fptas_lambda ~params topo.Core.Topology.graph cs
              in
              not (lambda < threshold))
        in
        List.for_all Fun.id passes
      in
      let hi =
        min (Core.Rewire.max_tors ~da ~di) (2 * Core.Vl2.num_tors ~da ~di)
      in
      let rec search lo hi =
        if lo >= hi then ()
        else
          let mid = (lo + hi + 1) / 2 in
          if probe mid then search mid hi else search lo (mid - 1)
      in
      if probe 1 then search 1 hi)
    [ 6; 10; 14 ];
  (!points, !unstored)

(* ------------------------------------------------------------------ *)
(* Workload: serve                                                     *)

let serve_spec = Core.Cli.Rrg (40, 12, 8)
let serve_gap = 0.1
let cold_pool = 64
let store_pool = 32
let cold_count = 16
let store_count = 24

let serve_request ~seed routing =
  {
    Request.topology = Request.Spec serve_spec;
    seed;
    traffic = Core.Cli.Perm;
    eps = serve_gap;
    gap = serve_gap;
    routing;
    timeout_s = None;
  }

(* Cold instances cycle through the four routing modes; store instances
   are optimal (only optimal answers live in the result store). Seeds
   1001.. and 2001.. keep the two pools disjoint. *)
let cold_routing i =
  match i mod 4 with
  | 0 -> Request.Optimal
  | 1 -> Request.Ksp 4
  | 2 -> Request.Ecmp 64
  | _ -> Request.Vlb 4

let cold_instance k = serve_request ~seed:(1000 + k) (cold_routing k)
let store_instance k = serve_request ~seed:(2000 + k) Request.Optimal

let serve_label (req : Request.t) =
  "serve:" ^ Request.routing_to_string req.Request.routing

let serve_key (req : Request.t) =
  ref_key ~label:(serve_label req) ~spec:serve_spec ~seed:req.Request.seed

(* What the daemon computes for a request (Server's compute_solve), in
   process and without a store: the reference recorder's oracle. *)
let serve_answer (req : Request.t) =
  let r = Request.resolve req in
  let g = r.Request.topo.Core.Topology.graph and cs = r.Request.commodities in
  let params = Request.params req in
  let paths rcs =
    let p = Core.Mcmf_paths.solve ~params g rcs in
    (p.Core.Mcmf_paths.lambda_lower, p.Core.Mcmf_paths.lambda_upper)
  in
  match req.Request.routing with
  | Request.Optimal ->
      (Core.Throughput.compute ~solver:(Core.Throughput.Fptas params) g cs)
        .Core.Throughput.lambda_bounds
  | Request.Ksp k -> paths (Core.Mcmf_paths.of_k_shortest g ~k cs)
  | Request.Ecmp limit -> paths (Core.Mcmf_paths.of_ecmp g ~limit cs)
  | Request.Vlb n ->
      paths
        (Core.Vlb.restrict (Random.State.make [| req.Request.seed; 2 |]) g
           ~intermediates:n cs)

type daemon = {
  proc : Spawn.proc;
  host : string;
  port : int;
  prefilled : (float * float) array;  (** Store instances' intervals. *)
}

let served_exe () =
  match Spawn.find_exe () with
  | Some exe -> exe
  | None -> die "cannot locate the dcn_served executable"

(* Set-up of one serve measurement: a fresh store pre-filled with the
   store instances through the daemon's own cached solve path, then a
   fresh epoll daemon on it, ready when /healthz answers. *)
let serve_setup ~work ~jobs ~stores =
  let dir = Filename.concat work "serve" in
  let store_dir = Filename.concat dir "store" in
  fresh_dir store_dir;
  let store = Core.Store.open_store store_dir in
  Core.Store.set_shared (Some store);
  let prefilled =
    Core.Parallel.map_array
      (fun (req : Request.t) ->
        let r = Request.resolve req in
        (Core.Solve_cache.throughput
           ~solver:(Core.Throughput.Fptas (Request.params req))
           r.Request.topo.Core.Topology.graph r.Request.commodities)
          .Core.Throughput.lambda_bounds)
      stores
  in
  Core.Store.set_shared None;
  let proc =
    Spawn.start ~exe:(served_exe ()) ~scratch_dir:dir ~index:0 ~jobs
      ~cache_dir:(Some store_dir)
      ~extra_args:[ "--engine"; "epoll" ] ()
  in
  match Spawn.endpoint proc with
  | Error msg ->
      Spawn.stop [ proc ];
      die "daemon did not start: %s" msg
  | Ok ep -> (
      let host = ep.Dcn_orchestrate.Worker.host
      and port = ep.Dcn_orchestrate.Worker.port in
      match
        Http.client_request ~host ~port ~meth:"GET" ~target:"/healthz"
          ~timeout_s:10.0 ()
      with
      | Ok (200, _) -> { proc; host; port; prefilled }
      | _ ->
          Spawn.stop [ proc ];
          die "daemon is not healthy")

let daemon_metrics d =
  match
    Http.client_request ~host:d.host ~port:d.port ~meth:"GET" ~target:"/metrics"
      ~timeout_s:10.0 ()
  with
  | Ok (200, body) -> (
      match Dcn_serve.Metrics_io.snapshot_of_body body with
      | Ok snap -> snap
      | Error msg -> die "unreadable /metrics: %s" msg)
  | _ -> die "GET /metrics failed"

let body_interval body =
  match Json_parse.parse body with
  | Error _ -> None
  | Ok j -> (
      let num k = Option.bind (Json_parse.member k j) Json_parse.to_float_opt in
      match (num "lambda_lower", num "lambda_upper") with
      | Some lo, Some hi -> Some (lo, hi)
      | _ -> None)

type mix = {
  cold_lat : float list;
  store_lat : float list;
  hot_lat : float list;
  hot_elapsed_s : float;
  hot_requests : int;
  wall_s : float;
  daemon_cpu_s : float;
  before : Metrics.snapshot;  (** Daemon registry before the mix. *)
  before_hot : Metrics.snapshot;
  after : Metrics.snapshot;
  rss_mb : float;
}

let hot_chunk = 20_000

(* The request mix on daemon [d]: each cold instance once, each store
   instance once, then [hot] round-robin repeats of all of them. Every
   response is checked; [d] is stopped afterwards. *)
let serve_mix d ~cold ~stores ~hot ~concurrency =
  let instances = Array.append cold stores in
  let bodies = Array.map Request.to_body instances in
  let first = Array.make (Array.length instances) "" in
  let send bodies requests =
    Load_gen.run ~host:d.host ~port:d.port ~bodies ~requests ~concurrency
      ~qps:0.0 ()
  in
  let bound_of (req : Request.t) =
    let r = Request.resolve req in
    Core.Throughput_bound.upper_bound_capacity r.Request.topo.Core.Topology.graph
      r.Request.commodities
  in
  let class_phase ~offset reqs =
    let _, rows = send (Array.sub bodies offset (Array.length reqs)) (Array.length reqs) in
    Array.iteri
      (fun i (row : Load_gen.row) ->
        let req = reqs.(i) in
        first.(offset + i) <- row.Load_gen.body;
        let key = serve_key req in
        let problems =
          if row.Load_gen.status <> 200 then
            [ Printf.sprintf "HTTP status %d" row.Load_gen.status ]
          else
            match body_interval row.Load_gen.body with
            | None -> [ "response carries no certified interval" ]
            | Some iv ->
                let bound =
                  if req.Request.routing = Request.Optimal then Some (bound_of req)
                  else None
                in
                let stored = offset + i - Array.length cold in
                certificate_problems ~key ~gap:serve_gap ?bound iv
                @
                if stored >= 0 && iv <> d.prefilled.(stored) then
                  [ "store answer differs from the pre-filled entry" ]
                else []
        in
        check ("serve " ^ key) problems)
      rows;
    List.map (fun (r : Load_gen.row) -> r.Load_gen.latency_s) (Array.to_list rows)
  in
  let before = daemon_metrics d in
  let pid = string_of_int d.proc.Spawn.pid in
  let cpu0 = cpu_s pid in
  let t_mix = Clock.now_ns () in
  let cold_lat = class_phase ~offset:0 cold in
  let store_lat = class_phase ~offset:(Array.length cold) stores in
  let before_hot = daemon_metrics d in
  let hot_lat = ref [] and hot_elapsed = ref 0.0 and left = ref hot in
  let mismatched = ref 0 and bad_status = ref 0 in
  while !left > 0 do
    let n = min hot_chunk !left in
    let report, rows = send bodies n in
    hot_elapsed := !hot_elapsed +. report.Load_gen.elapsed_s;
    Array.iteri
      (fun i (row : Load_gen.row) ->
        incr attempted;
        if row.Load_gen.status <> 200 then begin
          incr failed;
          incr bad_status
        end
        else if not (String.equal row.Load_gen.body first.(i mod Array.length bodies))
        then begin
          incr failed;
          incr mismatched
        end;
        hot_lat := row.Load_gen.latency_s :: !hot_lat)
      rows;
    left := !left - n
  done;
  if !bad_status > 0 || !mismatched > 0 then
    Printf.eprintf
      "perfbench: FAILED serve hot class: %d non-200, %d bodies differ from \
       the cold/store answer\n%!"
      !bad_status !mismatched;
  let wall_s = Clock.elapsed_s t_mix in
  let daemon_cpu_s = cpu_s pid -. cpu0 in
  let after = daemon_metrics d in
  let rss_mb = peak_rss_mb pid in
  Spawn.stop [ d.proc ];
  let d_all = Metrics.diff ~before ~after in
  let count name = Metrics.counter_value d_all name in
  let optimal_cold =
    Array.fold_left
      (fun acc (r : Request.t) -> if r.Request.routing = Request.Optimal then acc + 1 else acc)
      0 cold
  in
  let expect_count name want =
    expect (count name = want)
      (Printf.sprintf "%s = %d, the mix predicts %d" name (count name) want)
  in
  check "serve daemon counters"
    (List.filter_map Fun.id
       [
         expect_count "store.hits" (Array.length stores);
         expect_count "store.misses" optimal_cold;
         expect_count "engine.cache.hits" hot;
         expect_count "engine.cache.misses" (Array.length instances);
       ]);
  {
    cold_lat;
    store_lat;
    hot_lat = !hot_lat;
    hot_elapsed_s = !hot_elapsed;
    hot_requests = hot;
    wall_s;
    daemon_cpu_s;
    before;
    before_hot;
    after;
    rss_mb;
  }

(* ------------------------------------------------------------------ *)
(* Running a workload                                                  *)

type opts = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  jobs : int;
  work_dir : string;
  commit : string;
}

(* A workload metric under its own name, with the number of samples a
   median or percentile was taken over (1 for a single measurement). *)
type named = { name : string; unit_ : string; value : float; n : int }

type outcome = {
  setup_s : float;
  primary_s : float;
  secondary_s : float;
  rss_mb : float;
  named : named list;
  layers : (string * float) list;  (** Traced runs only. *)
}

(* Median over [setup_reps] repetitions of a set-up step. A solve or
   sweep set-up is about 0.1 s, and on a shared host three or four
   consecutive repetitions can run 40% slow, so the median needs enough
   repetitions to outlast such a burst. *)
let setup_reps = 15

let measure_setup f = median (List.init setup_reps (fun _ -> snd (timed f)))

(* A small certified solve that faults in code and heap before timing. *)
let warm_up () =
  let topo = Core.Cli.build_topology (Core.Cli.Rrg (40, 15, 10)) ~seed:1 in
  ignore
    (Core.Throughput.compute
       ~solver:(Core.Throughput.Fptas Core.Mcmf_fptas.quick_params)
       topo.Core.Topology.graph
       (permutation topo (Random.State.make [| 1; 1 |])))

let counter d name = float_of_int (Metrics.counter_value d name)

let solver_layers d =
  [
    ("flow.fptas_s", hist_sum d "fptas.solve_s");
    ("flow.phases", counter d "fptas.phases");
    ("flow.dual_checks", counter d "fptas.dual_checks");
    ("flow.tree_rebuilds", counter d "fptas.tree_rebuilds");
    ("graph.dijkstra_runs", counter d "dijkstra.runs");
    ("graph.heap_pops", counter d "dijkstra.heap_pops");
    ("graph.arcs_scanned", counter d "dijkstra.arcs_scanned");
  ]

(* busy_frac is CPU seconds / (wall x domains), read from the OS: the
   pool's task-run histogram also counts a nested batch's tasks inside
   their parent task, so its sum can exceed wall x domains. *)
let pool_layers d ~wall ~cpu ~domains =
  [
    ("pool.tasks", counter d "pool.tasks");
    ("pool.queue_wait_s", hist_sum d "pool.queue_wait_s");
    ("pool.task_run_s", hist_sum d "pool.task_run_s");
    ("pool.busy_frac", cpu /. (wall *. float_of_int domains));
  ]

let start_tracing () =
  Metrics.set_enabled true;
  tracing := true

let run_solve o =
  (* No Pool.run here: the solve never dispatches to the pool, so, as
     under `topobench --jobs 2`, its worker domain is never spawned, and
     the solving domain's minor collections need no cross-domain
     rendezvous. *)
  let setup_s = measure_setup warm_up in
  let rounds = strata * max 1 (o.seconds / 20) in
  let thr_ranked = ranked_pool ~pool:solve_pool ~spec:throughput_spec "throughput"
  and rt_ranked = ranked_pool ~pool:solve_pool ~spec:routing_spec "routing" in
  let round r =
    solve_round
      ~thr_seed:(stratified_seed thr_ranked ~seed:o.seed r)
      ~rt_seed:(stratified_seed rt_ranked ~seed:o.seed r)
  in
  let rss () = peak_rss_mb "self" in
  if not o.trace then begin
    let times =
      List.init rounds (fun r ->
          let times, checks = round r in
          checks ();
          times)
    in
    let throughput_s = median (List.map fst times)
    and routing_s = median (List.map snd times) in
    {
      setup_s;
      primary_s = throughput_s;
      secondary_s = routing_s;
      rss_mb = rss ();
      named =
        [
          { name = "throughput_s"; unit_ = "s"; value = throughput_s; n = rounds };
          { name = "routing_s"; unit_ = "s"; value = routing_s; n = rounds };
        ];
      layers = [];
    }
  end
  else begin
    (* Untraced, traced, untraced on one middle-stratum round: the
       overhead is taken against the mean of the two untraced rounds, so
       warm-up effects do not land on either side. *)
    let r = strata / 2 in
    let untraced () =
      let times, checks = round r in
      checks ();
      times
    in
    let u1 = untraced () in
    start_tracing ();
    let before = Metrics.snapshot () in
    let cpu0 = cpu_s "self" in
    let ((thr, rt), checks), wall = timed (fun () -> round r) in
    let cpu = cpu_s "self" -. cpu0 in
    let d = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
    tracing := false;
    Metrics.set_enabled false;
    checks ();
    let u2 = untraced () in
    let untraced_s = (fst u1 +. snd u1 +. fst u2 +. snd u2) /. 2.0 in
    let attributed = leg_s "throughput" in
    {
      setup_s;
      primary_s = thr;
      secondary_s = rt;
      rss_mb = rss ();
      named =
        [
          { name = "throughput_s"; unit_ = "s"; value = thr; n = 1 };
          { name = "routing_s"; unit_ = "s"; value = rt; n = 1 };
        ];
      layers =
        solver_layers d
        @ pool_layers d ~wall ~cpu ~domains:o.jobs
        @ [
            ("topology.build_s", layer_s "topology");
            ("traffic.build_s", layer_s "traffic");
            ("flow.post_solve_s", !post_solve_s);
            ("flow.paths_s", layer_s "paths");
            ("routing.path_sets_s", layer_s "path_sets");
            ("bounds.theorem1_s", layer_s "theorem1");
            ("trace.overhead_frac", ((thr +. rt) /. untraced_s) -. 1.0);
            ("unattributed.throughput_s", thr -. attributed);
            ("unattributed.routing_s", rt -. leg_s "routing");
            ("attributed.throughput_frac", attributed /. thr);
          ];
    }
  end

(* A replay pass is about 3 s, and passes over the same store differ by
   up to 30% on a shared host: a replay solves nothing, so it is many
   small parallel batches, and its wall time follows how fast the pool's
   idle domain wakes for each. The reported replay time is the median of
   [sweep_replays] passes per cycle. *)
let sweep_replays = 10

let run_sweep o =
  let store_dir = Filename.concat o.work_dir "sweep-store" in
  let setup_s =
    measure_setup (fun () ->
        fresh_dir store_dir;
        ignore (Core.Store.open_store store_dir);
        Core.Pool.run ~total:o.jobs ignore;
        warm_up ())
  in
  (* One cycle: a cold pass into an empty store, then [replays] replay
     passes from it, each checked against the cold tables. *)
  let cycle ?(replays = sweep_replays) c =
    let scale = sweep_scale ~seed:o.seed ~cycle:c in
    fresh_dir store_dir;
    let cold = sweep_pass ~scale ~dir:store_dir in
    let replays =
      List.init replays (fun _ ->
          let replay = sweep_pass ~scale ~dir:store_dir in
          check_sweep ~cold ~replay;
          replay)
    in
    (cold, replays)
  in
  let seconds (_, dt, _) = dt in
  (* Cold-pass time per figure, so a change can be traced to the figure
     it moved. *)
  let named ~colds ~replays =
    let median_of f xs = median (List.map f xs) in
    let _, _, first = List.hd colds in
    let n = List.length colds in
    [
      { name = "sweep_cold_s"; unit_ = "s"; value = median_of seconds colds; n };
      {
        name = "sweep_replay_s";
        unit_ = "s";
        value = median_of seconds replays;
        n = List.length replays;
      };
      {
        name = "sweep_solves";
        unit_ = "count";
        value = float_of_int first.Core.Store.misses;
        n = 1;
      };
    ]
    @ List.mapi
        (fun i (fig, _) ->
          {
            name = Printf.sprintf "sweep_cold_%s_s" fig;
            unit_ = "s";
            value = median_of (fun (figures, _, _) -> snd (List.nth figures i)) colds;
            n;
          })
        sweep_figures
  in
  if not o.trace then begin
    let cycles = List.init (max 1 (o.seconds / 20)) cycle in
    let colds = List.map fst cycles and replays = List.concat_map snd cycles in
    {
      setup_s;
      primary_s = median (List.map seconds colds);
      secondary_s = median (List.map seconds replays);
      rss_mb = peak_rss_mb "self";
      named = named ~colds ~replays;
      layers = [];
    }
  end
  else begin
    let u_cold, u_replays = cycle ~replays:1 0 in
    let scale = sweep_scale ~seed:o.seed ~cycle:0 in
    fresh_dir store_dir;
    start_tracing ();
    let s0 = Metrics.snapshot () in
    let cpu0 = cpu_s "self" in
    let ((_, cold_s, cc) as cold) = sweep_pass ~scale ~dir:store_dir in
    let cpu = cpu_s "self" -. cpu0 in
    let s1 = Metrics.snapshot () in
    let ((_, replay_s, rc) as replay) = sweep_pass ~scale ~dir:store_dir in
    let s2 = Metrics.snapshot () in
    check_sweep ~cold ~replay;
    let store = Core.Store.open_store store_dir in
    Core.Store.set_shared (Some store);
    let points, unstored = replica_pass ~scale ~store in
    Core.Store.set_shared None;
    tracing := false;
    check "sweep replica"
      (List.filter_map Fun.id
         [
           expect (unstored = 0)
             (Printf.sprintf "%d mirrored points are not in the store" unstored);
           expect
             (points = rc.Core.Store.hits)
             (Printf.sprintf "mirrored %d points, the replay read %d" points
                rc.Core.Store.hits);
         ]);
    let dc = Metrics.diff ~before:s0 ~after:s1
    and dr = Metrics.diff ~before:s1 ~after:s2 in
    let topology = layer_s "topology"
    and traffic = layer_s "traffic"
    and digest = layer_s "digest" in
    let jobs = float_of_int o.jobs in
    let untraced_s = seconds u_cold +. seconds (List.hd u_replays) in
    {
      setup_s;
      primary_s = cold_s;
      secondary_s = replay_s;
      rss_mb = peak_rss_mb "self";
      named = named ~colds:[ cold ] ~replays:[ replay ];
      layers =
        solver_layers dc
        @ pool_layers dc ~wall:cold_s ~cpu ~domains:o.jobs
        @ [
            ("topology.build_s", topology);
            ("traffic.build_s", traffic);
            ("store.digest_s", digest);
            ("store.hit_s", hist_sum dr "store.hit_s");
            ("store.write_s", hist_sum dc "store.write_s");
            ("store.hits", counter dr "store.hits");
            ("store.misses", counter dc "store.misses");
            ("store.bytes_read", float_of_int rc.Core.Store.bytes_read);
            ("store.bytes_written", float_of_int cc.Core.Store.bytes_written);
            ("trace.overhead_frac", ((cold_s +. replay_s) /. untraced_s) -. 1.0);
            ( "unattributed.sweep_cold_s",
              (cold_s *. jobs)
              -. (hist_sum dc "fptas.solve_s" +. topology +. traffic +. digest
                 +. hist_sum dc "store.write_s" +. hist_sum dc "store.miss_s") );
            ( "unattributed.sweep_replay_s",
              (replay_s *. jobs)
              -. (topology +. traffic +. digest +. hist_sum dr "store.hit_s") );
          ];
    }
  end

let serve_mixes = 5

(* Two keep-alive callers, never more connections than cores. *)
let client_connections jobs = max 1 (min 2 jobs)

let run_serve o =
  let cold =
    Array.init cold_count (fun i ->
        cold_instance (pool_seed ~pool:cold_pool ~seed:o.seed i))
  in
  let stores =
    Array.init store_count (fun i ->
        store_instance (pool_seed ~pool:store_pool ~seed:o.seed i))
  in
  let concurrency = client_connections o.jobs in
  let hot = 3000 * o.seconds in
  (* Every mix gets its own set-up: a fresh pre-filled store and a fresh
     daemon, so its hot cache starts empty. Set-up time is the median
     over the mixes; the latencies pool every mix's samples. *)
  let mixes () =
    List.init serve_mixes (fun _ ->
        let d, dt =
          timed (fun () -> serve_setup ~work:o.work_dir ~jobs:o.jobs ~stores)
        in
        (dt, serve_mix d ~cold ~stores ~hot ~concurrency))
  in
  let untraced = mixes () in
  let setup_s = median (List.map fst untraced) in
  let total f ms = List.fold_left (fun acc m -> acc +. f m) 0.0 ms in
  let outcome ms layers =
    let cold_lat = List.concat_map (fun m -> m.cold_lat) ms
    and store_lat = List.concat_map (fun m -> m.store_lat) ms
    and hot_lat = List.concat_map (fun m -> m.hot_lat) ms in
    let metric name unit_ value samples =
      { name; unit_; value; n = List.length samples }
    in
    {
      setup_s;
      primary_s = median hot_lat;
      secondary_s = median store_lat;
      rss_mb = List.fold_left (fun acc (m : mix) -> Float.max acc m.rss_mb) 0.0 ms;
      named =
        [
          metric "serve_cold_p50_s" "s" (median cold_lat) cold_lat;
          metric "serve_store_p50_s" "s" (median store_lat) store_lat;
          metric "serve_store_p95_s" "s" (percentile 0.95 store_lat) store_lat;
          metric "serve_hot_p50_s" "s" (median hot_lat) hot_lat;
          metric "serve_hot_p99_s" "s" (percentile 0.99 hot_lat) hot_lat;
          metric "serve_hot_rps" "req/s"
            (total (fun m -> float_of_int m.hot_requests) ms
            /. total (fun m -> m.hot_elapsed_s) ms)
            hot_lat;
        ];
      layers;
    }
  in
  if not o.trace then outcome (List.map snd untraced) []
  else begin
    let traced = List.map snd (mixes ()) in
    (* The request path's public calls, timed in process on the run's own
       store-class bodies (per-request means) and cold path-restricted
       instances (totals over the class). *)
    start_tracing ();
    let leg = "serve" in
    Array.iter
      (fun (req : Request.t) ->
        let body = Request.to_body req in
        ignore (span leg "parse" (fun () -> Request.of_body body));
        ignore (span leg "resolve" (fun () -> Request.resolve req));
        let topo = span leg "topology" (fun () -> Request.build_topology req) in
        let r = span leg "traffic" (fun () -> Request.resolve_with ~topo req) in
        ignore (span leg "request_digest" (fun () -> Request.digest req r));
        ignore
          (span leg "digest" (fun () ->
               Core.Digest_key.of_solve ~kind:"throughput-fptas"
                 ~params:(Request.params req) ~dual_check_every:1
                 r.Request.topo.Core.Topology.graph r.Request.commodities)))
      stores;
    Array.iter
      (fun (req : Request.t) ->
        let r = Request.resolve req in
        let g = r.Request.topo.Core.Topology.graph
        and cs = r.Request.commodities in
        let build () =
          match req.Request.routing with
          | Request.Ksp k -> Some (Core.Mcmf_paths.of_k_shortest g ~k cs)
          | Request.Ecmp limit -> Some (Core.Mcmf_paths.of_ecmp g ~limit cs)
          | Request.Vlb n ->
              Some
                (Core.Vlb.restrict
                   (Random.State.make [| req.Request.seed; 2 |])
                   g ~intermediates:n cs)
          | Request.Optimal -> None
        in
        match span leg "path_sets" build with
        | Some rcs ->
            ignore
              (span leg "paths" (fun () ->
                   Core.Mcmf_paths.solve ~params:(Request.params req) g rcs))
        | None -> ())
      cold;
    tracing := false;
    let per_request layer = layer_s layer /. float_of_int store_count in
    let merged f =
      List.fold_left (fun acc m -> Metrics.merge acc (f m)) [] traced
    in
    let d = merged (fun m -> Metrics.diff ~before:m.before ~after:m.after) in
    let dh = merged (fun m -> Metrics.diff ~before:m.before_hot ~after:m.after) in
    let handler_mean_s =
      hist_sum dh "serve.request_s"
      /. float_of_int (hist_count dh "serve.request_s")
    in
    let r = outcome traced [] in
    let transport_s = r.primary_s -. handler_mean_s in
    let hits = counter d "store.hits" in
    let hit_s = hist_sum d "store.hit_s" in
    let wall = total (fun m -> m.wall_s) traced in
    {
      r with
      layers =
        solver_layers d
        @ pool_layers d ~wall
            ~cpu:(total (fun m -> m.daemon_cpu_s) traced)
            ~domains:o.jobs
        @ [
            ("topology.build_s", per_request "topology");
            ("traffic.build_s", per_request "traffic");
            ("flow.paths_s", layer_s "paths");
            ("routing.path_sets_s", layer_s "path_sets");
            ("store.digest_s", per_request "digest");
            ("store.hit_s", hit_s);
            ("store.write_s", hist_sum d "store.write_s");
            ("store.hits", hits);
            ("store.misses", counter d "store.misses");
            ("server.parse_s", per_request "parse");
            ("server.resolve_s", per_request "resolve");
            ("server.digest_s", per_request "request_digest");
            ("server.handler_mean_s", handler_mean_s);
            ("engine.cache_hits", counter d "engine.cache.hits");
            ("engine.cache_misses", counter d "engine.cache.misses");
            ("engine.batches", counter d "engine.batches");
            ("engine.batch_jobs", counter d "engine.batch.jobs");
            ("engine.transport_s", transport_s);
            ( "trace.overhead_frac",
              (wall /. total (fun (_, m) -> m.wall_s) untraced) -. 1.0 );
            ( "unattributed.serve_store_s",
              r.secondary_s
              -. (per_request "parse" +. per_request "resolve"
                 +. per_request "request_digest" +. per_request "digest"
                 +. (if hits > 0.0 then hit_s /. hits else 0.0)
                 +. transport_s) );
          ];
    }
  end

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let end_to_end =
  [ ("setup_s", "s"); ("primary_s", "s"); ("secondary_s", "s"); ("peak_rss_mb", "MiB") ]

(* Every per-layer metric, printed by every traced run; 0 where the
   workload does not reach the layer. *)
let per_layer =
  [
    ("topology.build_s", "s");
    ("traffic.build_s", "s");
    ("flow.fptas_s", "s");
    ("flow.phases", "count");
    ("flow.dual_checks", "count");
    ("flow.tree_rebuilds", "count");
    ("flow.post_solve_s", "s");
    ("flow.paths_s", "s");
    ("graph.dijkstra_runs", "count");
    ("graph.heap_pops", "count");
    ("graph.arcs_scanned", "count");
    ("routing.path_sets_s", "s");
    ("bounds.theorem1_s", "s");
    ("store.digest_s", "s");
    ("store.hit_s", "s");
    ("store.write_s", "s");
    ("store.hits", "count");
    ("store.misses", "count");
    ("store.bytes_read", "bytes");
    ("store.bytes_written", "bytes");
    ("pool.tasks", "count");
    ("pool.queue_wait_s", "s");
    ("pool.task_run_s", "s");
    ("pool.busy_frac", "ratio");
    ("server.parse_s", "s");
    ("server.resolve_s", "s");
    ("server.digest_s", "s");
    ("server.handler_mean_s", "s");
    ("engine.cache_hits", "count");
    ("engine.cache_misses", "count");
    ("engine.batches", "count");
    ("engine.batch_jobs", "count");
    ("engine.transport_s", "s");
    ("trace.overhead_frac", "ratio");
    ("unattributed.throughput_s", "s");
    ("unattributed.routing_s", "s");
    ("unattributed.sweep_cold_s", "s");
    ("unattributed.sweep_replay_s", "s");
    ("unattributed.serve_store_s", "s");
    ("attributed.throughput_frac", "ratio");
  ]

(* Counters a fixed seed reproduces exactly; the self-test compares them
   across runs. Everything else is a time or depends on timing (how the
   engine happens to batch, how the pool happens to split work). *)
let exact =
  [
    "flow.phases"; "flow.dual_checks"; "flow.tree_rebuilds"; "graph.dijkstra_runs";
    "graph.heap_pops"; "graph.arcs_scanned"; "store.hits"; "store.misses";
    "store.bytes_read"; "store.bytes_written"; "engine.cache_hits";
    "engine.cache_misses"; "engine.batch_jobs";
  ]

let inexact_counters = [ "engine.batches"; "pool.tasks" ]

let num v = if Float.is_finite v then Core.Float_text.to_string v else "null"
let str = Json.quote

let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"

let emit o r =
  let e2e =
    [
      ("setup_s", r.setup_s);
      ("primary_s", r.primary_s);
      ("secondary_s", r.secondary_s);
      ("peak_rss_mb", r.rss_mb);
    ]
  in
  let layer name = Option.value ~default:0.0 (List.assoc_opt name r.layers) in
  let failed_frac = float_of_int !failed /. float_of_int (max 1 !attempted) in
  List.iter
    (fun m ->
      Printf.printf "%-22s %14s %-6s (n=%d)\n" m.name (num m.value) m.unit_ m.n)
    r.named;
  List.iter (fun (name, unit_) ->
      Printf.printf "%-22s %14s %s\n" name (num (List.assoc name e2e)) unit_)
    end_to_end;
  Printf.printf "%-22s %14s ratio (%d of %d)\n" "failed_frac" (num failed_frac)
    !failed !attempted;
  if o.trace then
    List.iter
      (fun (name, unit_) ->
        Printf.printf "%-28s %14s %s\n" name (num (layer name)) unit_)
      per_layer;
  let report =
    obj
      [
        ("workload", str o.workload);
        ("seed", string_of_int o.seed);
        ("seconds", string_of_int o.seconds);
        ("trace", string_of_bool o.trace);
        ( "environment",
          obj
            [
              ("nproc", string_of_int (Domain.recommended_domain_count ()));
              ("commit", str o.commit);
              ("ocaml", str Sys.ocaml_version);
              ("jobs", string_of_int o.jobs);
              ("client_connections", string_of_int (client_connections o.jobs));
              ("network", str "loopback");
            ] );
        ( "metrics",
          obj
            (List.map
               (fun m ->
                 ( m.name,
                   obj [ ("value", num m.value); ("unit", str m.unit_); ("n", string_of_int m.n) ] ))
               r.named
            @ [
                ("setup_s", obj [ ("value", num r.setup_s); ("unit", str "s"); ("n", string_of_int (if o.workload = "serve" then serve_mixes else setup_reps)) ]);
                ("failed_frac", obj [ ("value", num failed_frac); ("unit", str "ratio") ]);
                ("peak_rss_mb", obj [ ("value", num r.rss_mb); ("unit", str "MiB") ]);
              ]) );
        ( "exact_counters",
          if o.trace then obj (List.map (fun n -> (n, num (layer n))) exact) else "null" );
        ("inexact_counters", "[" ^ String.concat ", " (List.map str inexact_counters) ^ "]");
      ]
  in
  print_endline ("perfbench-report " ^ report);
  let metrics =
    if o.trace then List.map (fun (n, u) -> (n, layer n, u)) per_layer
    else List.map (fun (n, u) -> (n, List.assoc n e2e, u)) end_to_end
  in
  print_endline
    (obj
       [
         ("correct", string_of_bool (!failed = 0));
         ("attempted", string_of_int !attempted);
         ("failed", string_of_int !failed);
         ( "metrics",
           obj
             (List.map
                (fun (n, v, u) -> (n, obj [ ("value", num v); ("unit", str u) ]))
                metrics) );
       ])

(* ------------------------------------------------------------------ *)
(* Reference intervals                                                 *)

let record_reference path =
  let line label spec seed fields =
    String.concat " "
      (label :: Core.Cli.topo_spec_to_string spec :: string_of_int seed :: fields)
  in
  let interval (lo, hi) = [ Core.Float_text.to_string lo; Core.Float_text.to_string hi ] in
  let seeds n = List.init n (fun i -> i + 1) in
  (* Serial, so each leg's counters are its own. *)
  Metrics.set_enabled true;
  let with_work f =
    let before = Metrics.snapshot () in
    let v = f () in
    let d = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
    (v, [ string_of_int (Metrics.counter_value d "dijkstra.arcs_scanned") ])
  in
  let solve =
    List.concat_map
      (fun seed ->
        let (iv, _), thr_work = with_work (fun () -> throughput_leg ~seed) in
        let (_, _, opt, restricted), rt_work =
          with_work (fun () -> routing_leg ~seed)
        in
        (line "throughput" throughput_spec seed (interval iv)
        :: line "work:throughput" throughput_spec seed thr_work
        :: line "work:routing" routing_spec seed rt_work
        :: List.map
             (fun r ->
               line ("routing:" ^ r.model) routing_spec seed (interval (r.lo, r.hi)))
             (opt :: restricted)))
      (seeds solve_pool)
  in
  let serve =
    Core.Parallel.map
      (fun (req : Request.t) ->
        line (serve_label req) serve_spec req.Request.seed
          (interval (serve_answer req)))
      (List.map cold_instance (seeds cold_pool)
      @ List.map store_instance (seeds store_pool))
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        "# Reference certified intervals: label spec seed lambda_lo lambda_hi.\n\
         # work:LEG spec seed arcs: Dijkstra arcs that solve-pool leg scans.\n\
         # Written by `main.exe --record-reference`; see README.md.\n";
      List.iter (fun l -> output_string oc (l ^ "\n")) (solve @ serve))

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 20 and trace = ref false in
  let commit = ref "unknown" and record = ref None in
  let jobs = Domain.recommended_domain_count () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        if not (List.mem v [ "solve"; "sweep"; "serve" ]) then
          die "unknown workload %S (solve, sweep, serve)" v;
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n -> seed := n
        | None -> die "--seed expects an integer, got %S" v);
        go rest
    | "--seconds" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n >= 1 -> seconds := n
        | _ -> die "--seconds expects a positive integer, got %S" v);
        go rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> trace := false
        | "1" -> trace := true
        | _ -> die "--trace expects 0 or 1");
        go rest
    | "--commit" :: v :: rest ->
        commit := v;
        go rest
    | "--record-reference" :: v :: rest ->
        record := Some v;
        go rest
    | arg :: _ -> die "unknown or incomplete argument %s" arg
  in
  go (List.tl (Array.to_list Sys.argv));
  Core.Pool.set_workers (jobs - 1);
  match (!record, !workload) with
  | Some path, _ -> record_reference path
  | None, None -> die "--workload is required"
  | None, Some workload ->
      load_reference "perfbench/reference.txt";
      let o =
        {
          workload;
          seed = !seed;
          seconds = !seconds;
          trace = !trace;
          jobs;
          work_dir = ".perfbench-work";
          commit = !commit;
        }
      in
      fresh_dir o.work_dir;
      let r =
        Fun.protect
          ~finally:(fun () -> rm_rf o.work_dir)
          (fun () ->
            match workload with
            | "solve" -> run_solve o
            | "sweep" -> run_sweep o
            | _ -> run_serve o)
      in
      emit o r;
      Core.Pool.shutdown ();
      exit (if !failed = 0 then 0 else 1)
