let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

(* Events are buffered structured, not pre-rendered: cross-process merge
   re-renders a worker's buffer relative to the *coordinator's* epoch (the
   monotonic clock is shared by every process on one machine, only the
   per-process zero point differs), so rendering must be deferrable to an
   arbitrary epoch. Rendering off the hot path also makes emission a
   record allocation + list push instead of a Printf. *)
type ev = {
  e_ph : char; (* 'X' span | 'i' instant | 's' flow-out | 'f' flow-in *)
  e_name : string;
  e_cat : string;
  e_ts : int64; (* absolute CLOCK_MONOTONIC ns *)
  e_dur : int64; (* ns; spans only *)
  e_id : int; (* flow-binding id; -1 = none *)
  e_args : (string * Json.t) list;
}

(* One sink per domain. The sink's mutex is only contended by [serialize]
   and [reset] (events are appended by the owning domain alone), so an
   append is an uncontended lock + cons. Events are stored newest-first;
   rendering reverses. *)
type sink = {
  tid : int;
  mutable evs : ev list [@dcn.guarded_by "lock"];
  lock : Mutex.t;
}

let sinks : sink list ref = ref [] [@@dcn.guarded_by "sinks_mutex"]
let sinks_mutex = Mutex.create ()
let next_tid = Atomic.make 0

let sink_key =
  Domain.DLS.new_key (fun () ->
      let s =
        {
          tid = Atomic.fetch_and_add next_tid 1;
          evs = [];
          lock = Mutex.create ();
        }
      in
      Mutex.lock sinks_mutex;
      sinks := s :: !sinks;
      Mutex.unlock sinks_mutex;
      s)

let domain_tid () = (Domain.DLS.get sink_key).tid

(* Timestamps render as microseconds relative to an epoch — by default the
   first use of this process's tracer, so traces start near t=0 regardless
   of clock zero. *)
let epoch = Clock.now_ns ()
let pid = Unix.getpid ()
let epoch_ns () = epoch

let trace_seq = Atomic.make 0

let new_trace_id () =
  (* Unique without global randomness (dcn_lint bans ambient Random):
     pid + monotonic nanoseconds + a process-local sequence number. *)
  Printf.sprintf "%x-%Lx-%x" pid
    (Int64.logand (Clock.now_ns ()) 0xffffffffffffL)
    (Atomic.fetch_and_add trace_seq 1)

let record ~ph ?(dur = 0L) ?(id = -1) ~cat ?(args = []) ~ts name =
  let args =
    match Context.ids () with
    | None -> args
    | Some (trace, unit_id) ->
        args @ [ ("trace", Json.Str trace); ("unit", Json.Int unit_id) ]
  in
  let s = Domain.DLS.get sink_key in
  Mutex.lock s.lock;
  s.evs <-
    {
      e_ph = ph;
      e_name = name;
      e_cat = cat;
      e_ts = ts;
      e_dur = dur;
      e_id = id;
      e_args = args;
    }
    :: s.evs;
  Mutex.unlock s.lock

type span = { sp_name : string; sp_cat : string; sp_t0 : int64 }

let dropped = { sp_name = ""; sp_cat = ""; sp_t0 = Int64.min_int }

let begin_span ~cat name =
  if not (Atomic.get on) then dropped
  else { sp_name = name; sp_cat = cat; sp_t0 = Clock.now_ns () }

let end_span ?(args = []) sp =
  if sp.sp_t0 <> Int64.min_int && Atomic.get on then
    let dur = Int64.max 0L (Int64.sub (Clock.now_ns ()) sp.sp_t0) in
    record ~ph:'X' ~dur ~cat:sp.sp_cat ~args ~ts:sp.sp_t0 sp.sp_name

let with_span ~cat ?args name f =
  let sp = begin_span ~cat name in
  match f () with
  | v ->
      end_span ?args sp;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      end_span sp;
      Printexc.raise_with_backtrace e bt

let instant ~cat ?args name =
  if Atomic.get on then record ~ph:'i' ~cat ?args ~ts:(Clock.now_ns ()) name

let flow_out ~cat ~id ?args name =
  if Atomic.get on then
    record ~ph:'s' ~id ~cat ?args ~ts:(Clock.now_ns ()) name

let flow_in ~cat ~id ?args name =
  if Atomic.get on then
    record ~ph:'f' ~id ~cat ?args ~ts:(Clock.now_ns ()) name

let render_args buf = function
  | [] -> ()
  | args ->
      Buffer.add_string buf ",\"args\":{";
      Json.add_members buf args;
      Buffer.add_char buf '}'

let render_ev buf ~epoch ~tid e =
  let ts = Int64.to_float (Int64.sub e.e_ts epoch) /. 1e3 in
  Buffer.add_string buf
    (Printf.sprintf "{\"name\":%s,\"cat\":%s,\"ph\":\"%c\"" (Json.quote e.e_name)
       (Json.quote e.e_cat) e.e_ph);
  (match e.e_ph with
  | 'X' ->
      Buffer.add_string buf
        (Printf.sprintf ",\"ts\":%.3f,\"dur\":%.3f" ts
           (Int64.to_float e.e_dur /. 1e3))
  | 'i' -> Buffer.add_string buf (Printf.sprintf ",\"s\":\"t\",\"ts\":%.3f" ts)
  | 's' -> Buffer.add_string buf (Printf.sprintf ",\"id\":%d,\"ts\":%.3f" e.e_id ts)
  | _ ->
      (* 'f' binds to the enclosing slice's end point. *)
      Buffer.add_string buf
        (Printf.sprintf ",\"bp\":\"e\",\"id\":%d,\"ts\":%.3f" e.e_id ts));
  Buffer.add_string buf (Printf.sprintf ",\"pid\":%d,\"tid\":%d" pid tid);
  render_args buf e.e_args;
  Buffer.add_char buf '}'

let serialize ?(epoch_ns = epoch) ?(drain = false) () =
  Mutex.lock sinks_mutex;
  let all = List.sort (fun a b -> compare a.tid b.tid) !sinks in
  Mutex.unlock sinks_mutex;
  let buf = Buffer.create 65536 in
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string buf ",\n"
  in
  List.iter
    (fun s ->
      Mutex.lock s.lock;
      let evs = List.rev s.evs in
      if drain then s.evs <- [];
      Mutex.unlock s.lock;
      if evs <> [] then begin
        (* Name the track only when it carries events, so a drained
           buffer serializes to nothing rather than re-sending metadata
           for now-empty tracks. *)
        sep ();
        Buffer.add_string buf
          (Printf.sprintf
             "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"domain-%d\"}}"
             pid s.tid s.tid);
        sep ();
        Buffer.add_string buf
          (Printf.sprintf
             "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"sort_index\":%d}}"
             pid s.tid s.tid);
        List.iter
          (fun e ->
            sep ();
            render_ev buf ~epoch:epoch_ns ~tid:s.tid e)
          evs
      end)
    all;
  Buffer.contents buf

let write ?(clear = false) path =
  let events = serialize ~drain:clear () in
  let buf = Buffer.create (String.length events + 256) in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"dcn\"}}"
       pid);
  if events <> "" then begin
    Buffer.add_string buf ",\n";
    Buffer.add_string buf events
  end;
  Buffer.add_string buf "\n]}\n";
  Json.atomic_write ~path (Buffer.contents buf)

let reset () =
  Mutex.lock sinks_mutex;
  let all = !sinks in
  Mutex.unlock sinks_mutex;
  List.iter
    (fun s ->
      Mutex.lock s.lock;
      s.evs <- [];
      Mutex.unlock s.lock)
    all
