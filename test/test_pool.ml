(* Tests for the shared domain pool and the pool-backed experiment layer:
   results must be bit-identical whether work runs serially or on worker
   domains, and exceptions must surface deterministically. *)

module Pool = Dcn_util.Pool
module Parallel = Dcn_util.Parallel

(* Run [f] with the pool at [n] workers, restoring the previous target
   afterwards so tests compose in any order. *)
let with_workers n f =
  let old = Pool.workers () in
  Pool.set_workers n;
  Fun.protect ~finally:(fun () -> Pool.set_workers old) f

let test_pool_map_matches_serial () =
  let xs = List.init 100 Fun.id in
  let f x = (x * x) - (3 * x) + 1 in
  let serial = List.map f xs in
  with_workers 3 (fun () ->
      Alcotest.(check bool) "enabled" true (Pool.enabled ());
      Alcotest.(check (list int)) "map via pool" serial (Parallel.map f xs));
  with_workers 0 (fun () ->
      Alcotest.(check bool) "disabled" false (Pool.enabled ());
      Alcotest.(check (list int)) "map serial fallback" serial
        (Parallel.map f xs))

let test_pool_map_array_matches_serial () =
  let arr = Array.init 64 Fun.id in
  let f i = Printf.sprintf "task-%d" (i * 7) in
  let serial = Array.map f arr in
  with_workers 3 (fun () ->
      Alcotest.(check (array string)) "map_array via pool" serial
        (Parallel.map_array f arr));
  with_workers 0 (fun () ->
      Alcotest.(check (array string)) "map_array serial" serial
        (Parallel.map_array f arr))

let test_pool_exception_lowest_index () =
  (* Several tasks fail; the surfaced exception must be the one a serial
     loop would raise first, independent of scheduling. *)
  with_workers 3 (fun () ->
      match
        Parallel.map_array
          (fun i -> if i mod 5 = 2 then failwith (string_of_int i) else i)
          (Array.init 32 Fun.id)
      with
      | _ -> Alcotest.fail "expected exception"
      | exception Failure msg ->
          Alcotest.(check string) "lowest failing index" "2" msg)

(* [run_with]: the caller waits on each task in index order, helping
   while tasks are unclaimed, as the FPTAS router does. Every task runs
   once, and the caller sees each task's write once [done_.(i)] is set. *)
let test_pool_run_with () =
  List.iter
    (fun w ->
      with_workers w (fun () ->
          let total = 24 in
          let out = Array.make total 0 in
          let done_ = Array.init total (fun _ -> Atomic.make false) in
          let runs = Atomic.make 0 and helped = ref 0 and seen = ref 0 in
          Pool.run_with ~total
            (fun i ->
              Atomic.incr runs;
              out.(i) <- (i * i) + 1;
              Atomic.set done_.(i) true)
            ~caller:(fun help ->
              for i = 0 to total - 1 do
                while (not (Atomic.get done_.(i))) && help () do
                  incr helped
                done;
                while not (Atomic.get done_.(i)) do
                  Domain.cpu_relax ()
                done;
                seen := !seen + out.(i)
              done);
          let label = Printf.sprintf "workers %d" w in
          Alcotest.(check int) (label ^ " each task once") total
            (Atomic.get runs);
          Alcotest.(check int) (label ^ " caller saw every write")
            (Array.fold_left ( + ) 0 out) !seen;
          if w = 0 then
            Alcotest.(check int) (label ^ " serial: caller ran all") total
              !helped))
    [ 0; 1; 3 ];
  (* A caller that leaves tasks unclaimed: they still run. *)
  with_workers 2 (fun () ->
      let runs = Atomic.make 0 in
      Pool.run_with ~total:10 (fun _ -> Atomic.incr runs) ~caller:ignore;
      Alcotest.(check int) "caller:ignore runs all" 10 (Atomic.get runs));
  (* A failing task is raised after the batch, before the caller's own
     failure; a caller failure alone is raised once the batch is done. *)
  with_workers 2 (fun () ->
      (match
         Pool.run_with ~total:8
           (fun i -> if i = 3 then failwith "task")
           ~caller:(fun _ -> failwith "caller")
       with
      | () -> Alcotest.fail "expected exception"
      | exception Failure msg -> Alcotest.(check string) "task first" "task" msg);
      let runs = Atomic.make 0 in
      match
        Pool.run_with ~total:8
          (fun _ -> Atomic.incr runs)
          ~caller:(fun _ -> failwith "caller")
      with
      | () -> Alcotest.fail "expected exception"
      | exception Failure msg ->
          Alcotest.(check string) "caller failure" "caller" msg;
          Alcotest.(check int) "batch completed first" 8 (Atomic.get runs))

let test_pool_nested_batches () =
  (* An outer batch whose tasks submit inner batches: submitters drain
     their own batches, so this completes on any worker count. *)
  let expected =
    List.init 6 (fun i -> List.init 5 (fun j -> (10 * i) + j))
  in
  with_workers 2 (fun () ->
      let result =
        Parallel.map
          (fun i -> Parallel.map (fun j -> (10 * i) + j) (List.init 5 Fun.id))
          (List.init 6 Fun.id)
      in
      Alcotest.(check (list (list int))) "nested map" expected result)

let test_pool_run_basic () =
  with_workers 2 (fun () ->
      let hits = Array.make 40 0 in
      Pool.run ~total:40 (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check (array int)) "each task exactly once"
        (Array.make 40 1) hits)

let test_pool_worker_resize () =
  let xs = List.init 30 Fun.id in
  let serial = List.map succ xs in
  with_workers 1 (fun () ->
      Alcotest.(check (list int)) "1 worker" serial (Parallel.map succ xs);
      Pool.set_workers 3;
      Alcotest.(check (list int)) "grown to 3" serial (Parallel.map succ xs);
      Pool.set_workers 1;
      Alcotest.(check (list int)) "shrunk back" serial (Parallel.map succ xs))

(* ---- detached tasks and graceful drain ---- *)

let test_submit_runs_detached () =
  with_workers 2 (fun () ->
      let hits = Atomic.make 0 in
      for _ = 1 to 20 do
        Alcotest.(check bool) "accepted" true
          (Pool.submit (fun () -> Atomic.incr hits))
      done;
      (* No completion handle by design; shutdown is the drain barrier. *)
      Pool.shutdown ();
      Alcotest.(check int) "all detached tasks ran" 20 (Atomic.get hits))

let test_submit_synchronous_when_disabled () =
  with_workers 0 (fun () ->
      let ran = Atomic.make false in
      Alcotest.(check bool) "accepted" true
        (Pool.submit (fun () -> Atomic.set ran true));
      Alcotest.(check bool) "ran synchronously" true (Atomic.get ran))

let test_shutdown_drains_in_flight () =
  with_workers 2 (fun () ->
      (* Tasks that are certainly still running when shutdown starts. *)
      let done_ = Atomic.make 0 in
      for _ = 1 to 4 do
        ignore
          (Pool.submit (fun () ->
               Thread.delay 0.05;
               Atomic.incr done_))
      done;
      Pool.shutdown ();
      Alcotest.(check int) "shutdown waited for in-flight tasks" 4
        (Atomic.get done_))

let test_submit_after_shutdown_rejected () =
  with_workers 2 (fun () ->
      Pool.shutdown ();
      Alcotest.(check bool) "draining" true (Pool.draining ());
      let ran = Atomic.make false in
      Alcotest.(check bool) "rejected" false
        (Pool.submit (fun () -> Atomic.set ran true));
      Alcotest.(check bool) "not run" false (Atomic.get ran);
      (* Second shutdown is a no-op, not a deadlock or an error. *)
      Pool.shutdown ();
      Alcotest.(check bool) "still draining" true (Pool.draining ()));
  (* with_workers restored the target via set_workers, which re-opens. *)
  Alcotest.(check bool) "set_workers re-opens the pool" false (Pool.draining ())

(* ---- run-level determinism of the experiment layer ---- *)

let tiny_scale =
  { Core.Scale.quick with Core.Scale.runs = 2 }

let test_scale_samples_deterministic () =
  let measure st = Random.State.float st 1.0 in
  let serial =
    with_workers 0 (fun () -> Core.Scale.samples tiny_scale ~salt:4242 measure)
  in
  let pooled =
    with_workers 3 (fun () -> Core.Scale.samples tiny_scale ~salt:4242 measure)
  in
  (* Bit-identical: every run derives its RNG from (seed, salt, i) alone. *)
  Alcotest.(check (array (float 0.0))) "samples identical" serial pooled

(* A figure driver end-to-end: the rendered table (CSV) must be
   bit-identical between a serial run and a pool-backed run. fig1b is the
   cheapest figure exercising the grid-level + run-level parallel path. *)
let test_figure_table_parallel_matches_serial () =
  let table_csv () = Core.Table.to_csv (Core.Experiments.fig1b tiny_scale) in
  let serial = with_workers 0 table_csv in
  let pooled = with_workers 3 table_csv in
  Alcotest.(check string) "fig1b bit-identical" serial pooled

let test_vl2_supports_parallel_matches_serial () =
  (* The [supports] predicate short-circuits serially but evaluates all
     runs under the pool; the boolean must agree. Probe a tiny rewired
     instance both ways. *)
  let topo =
    let st = Random.State.make [| tiny_scale.Core.Scale.seed; 9999; 77 |] in
    Core.Rewire.create st ~tors:4 ~da:6 ~di:16 ()
  in
  let serial =
    with_workers 0 (fun () ->
        Core.Vl2_study.supports tiny_scale ~salt:9999 ~traffic:`Permutation topo)
  in
  let pooled =
    with_workers 3 (fun () ->
        Core.Vl2_study.supports tiny_scale ~salt:9999 ~traffic:`Permutation topo)
  in
  Alcotest.(check bool) "supports agrees" serial pooled

let suite =
  ( "pool",
    [
      Alcotest.test_case "map matches serial" `Quick test_pool_map_matches_serial;
      Alcotest.test_case "map_array matches serial" `Quick
        test_pool_map_array_matches_serial;
      Alcotest.test_case "exception of lowest index" `Quick
        test_pool_exception_lowest_index;
      Alcotest.test_case "nested batches" `Quick test_pool_nested_batches;
      Alcotest.test_case "run_with: caller waits on its tasks" `Quick
        test_pool_run_with;
      Alcotest.test_case "run covers all tasks" `Quick test_pool_run_basic;
      Alcotest.test_case "worker resize" `Quick test_pool_worker_resize;
      Alcotest.test_case "submit runs detached" `Quick test_submit_runs_detached;
      Alcotest.test_case "submit synchronous when disabled" `Quick
        test_submit_synchronous_when_disabled;
      Alcotest.test_case "shutdown drains in-flight" `Quick
        test_shutdown_drains_in_flight;
      Alcotest.test_case "submit after shutdown rejected" `Quick
        test_submit_after_shutdown_rejected;
      Alcotest.test_case "scale samples deterministic" `Quick
        test_scale_samples_deterministic;
      Alcotest.test_case "figure table parallel = serial" `Quick
        test_figure_table_parallel_matches_serial;
      Alcotest.test_case "vl2 supports parallel = serial" `Quick
        test_vl2_supports_parallel_matches_serial;
    ] )
