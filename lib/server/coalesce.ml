(* In-flight request coalescing (single-flight).

   The first arrival for a key becomes the leader and computes; arrivals
   while the leader is still running wait on its cell and receive the very
   value the leader produced — for the server that value is the rendered
   response body, so duplicates are byte-identical by construction, not by
   re-rendering. The entry is removed the moment the leader finishes:
   coalescing spans exactly the in-flight window, and later arrivals for
   the same key start fresh (and typically hit the result store instead).

   Leaders run on the caller's thread — the table never executes work of
   its own — so a waiting request consumes only a blocked thread, and
   progress is guaranteed as long as the leader's thread makes progress.
   Exceptions propagate to every rider: if the leader's solve is
   cancelled by its deadline, the riders see the same exception. *)

type 'a state = Pending | Done of ('a, exn) result

type 'a cell = { mutable state : 'a state }

type 'a t = {
  mutex : Mutex.t;
  done_ : Condition.t;
  table : (string, 'a cell) Hashtbl.t [@dcn.guarded_by "mutex"];
  (* Callers inside [run]: leaders computing and riders waiting. *)
  mutable in_flight : int [@dcn.guarded_by "mutex"];
}

let create () =
  {
    mutex = Mutex.create ();
    done_ = Condition.create ();
    table = Hashtbl.create 32;
    in_flight = 0;
  }

type 'a outcome = { value : ('a, exn) result; led : bool }

let run t ~key f =
  Mutex.lock t.mutex;
  t.in_flight <- t.in_flight + 1;
  match Hashtbl.find_opt t.table key with
  | Some cell ->
      (* Rider: counted before it waits, then waits for the leader's
         result. *)
      let rec await () =
        match cell.state with
        | Done value -> value
        | Pending ->
            Condition.wait t.done_ t.mutex;
            await ()
      in
      let value = await () in
      t.in_flight <- t.in_flight - 1;
      Mutex.unlock t.mutex;
      { value; led = false }
  | None ->
      let cell = { state = Pending } in
      Hashtbl.add t.table key cell;
      Mutex.unlock t.mutex;
      let value =
        (try Ok (f ()) with e -> Error e)
        [@dcn.lint
          "catch-all: single-flight by design — the leader's exception \
           (Cancelled included) is captured as [Error] and delivered to \
           every rider verbatim, then re-raised by each caller"]
      in
      Mutex.lock t.mutex;
      cell.state <- Done value;
      (* Close the coalescing window: riders hold the cell, new arrivals
         start over. *)
      Hashtbl.remove t.table key;
      t.in_flight <- t.in_flight - 1;
      Condition.broadcast t.done_;
      Mutex.unlock t.mutex;
      { value; led = true }

let pending t =
  Mutex.lock t.mutex;
  let n = t.in_flight in
  Mutex.unlock t.mutex;
  n
