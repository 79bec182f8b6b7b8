type 'b outcome = Pending | Done of 'b | Failed of exn * Printexc.raw_backtrace

let run_tasks f tasks =
  let n = Array.length tasks in
  let results = Array.make n Pending in
  Pool.run ~total:n (fun i ->
      results.(i) <-
        ((match f tasks.(i) with
         | v -> Done v
         | exception e -> Failed (e, Printexc.get_raw_backtrace ()))
        [@dcn.lint
          "catch-all: not swallowed — every [Failed] is re-raised with its \
           original backtrace once the batch completes, in task order"]));
  Array.map
    (function
      | Done v -> v
      | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
      | Pending -> assert false)
    results

let map_array f tasks =
  if Array.length tasks > 1 && Pool.enabled () then run_tasks f tasks
  else Array.map f tasks

let map f xs =
  match xs with
  | [] -> []
  | xs ->
      if Pool.enabled () then Array.to_list (map_array f (Array.of_list xs))
      else List.map f xs
