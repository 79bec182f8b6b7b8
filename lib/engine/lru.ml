(* Bounded LRU for hot response bodies.

   Classic intrusive doubly-linked list threaded through a Hashtbl, with
   a sentinel node: sentinel.next is most-recent, sentinel.prev is
   least-recent. One mutex guards everything — the engine loop probes on
   admission and pool workers probe/insert from batch tasks, and each
   critical section is a few pointer swaps, so contention is irrelevant
   next to a solve. *)

module Metrics = Dcn_obs.Metrics

type node = {
  key : string;
  mutable value : string;
  mutable prev : node;
  mutable next : node;
}

type t = {
  lock : Mutex.t;
  table : (string, node) Hashtbl.t [@dcn.guarded_by "lock"];
  sentinel : node;
  max_entries : int;
  max_bytes : int;
  mutable bytes : int [@dcn.guarded_by "lock"];
  mutable hits : int [@dcn.guarded_by "lock"];
  mutable misses : int [@dcn.guarded_by "lock"];
  mutable evictions : int [@dcn.guarded_by "lock"];
  m_hits : Metrics.counter;
  m_misses : Metrics.counter;
  m_evictions : Metrics.counter;
  g_entries : Metrics.gauge;
  g_bytes : Metrics.gauge;
}

type stats = {
  entries : int;
  bytes : int;
  hits : int;
  misses : int;
  evictions : int;
}

let create ~entries ~max_bytes =
  let rec sentinel =
    { key = ""; value = ""; prev = sentinel; next = sentinel }
  in
  {
    lock = Mutex.create ();
    table = Hashtbl.create (max 16 entries);
    sentinel;
    max_entries = entries;
    max_bytes;
    bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    m_hits = Metrics.counter "engine.cache.hits";
    m_misses = Metrics.counter "engine.cache.misses";
    m_evictions = Metrics.counter "engine.cache.evictions";
    g_entries = Metrics.gauge "engine.cache.entries";
    g_bytes = Metrics.gauge "engine.cache.bytes";
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let push_front t n =
  n.next <- t.sentinel.next;
  n.prev <- t.sentinel;
  t.sentinel.next.prev <- n;
  t.sentinel.next <- n

let publish t =
  Metrics.set t.g_entries (float_of_int (Hashtbl.length t.table));
  Metrics.set t.g_bytes (float_of_int t.bytes)

let find t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some n ->
          t.hits <- t.hits + 1;
          Metrics.incr t.m_hits;
          unlink n;
          push_front t n;
          Some n.value
      | None ->
          t.misses <- t.misses + 1;
          Metrics.incr t.m_misses;
          None)

let entry_bytes key value = String.length key + String.length value

let evict_over t =
  while
    Hashtbl.length t.table > 0
    && (Hashtbl.length t.table > t.max_entries || t.bytes > t.max_bytes)
  do
    let victim = t.sentinel.prev in
    unlink victim;
    Hashtbl.remove t.table victim.key;
    t.bytes <- t.bytes - entry_bytes victim.key victim.value;
    t.evictions <- t.evictions + 1;
    Metrics.incr t.m_evictions
  done

let insert t key value =
  with_lock t (fun () ->
      (match Hashtbl.find_opt t.table key with
      | Some n ->
          (* Same key, byte-identical body in this closed world; still
             replace so the accounting cannot drift. *)
          t.bytes <- t.bytes - String.length n.value + String.length value;
          n.value <- value;
          unlink n;
          push_front t n
      | None ->
          let n = { key; value; prev = t.sentinel; next = t.sentinel } in
          push_front t n;
          Hashtbl.replace t.table key n;
          t.bytes <- t.bytes + entry_bytes key value);
      evict_over t;
      publish t)

let stats t =
  with_lock t (fun () ->
      {
        entries = Hashtbl.length t.table;
        bytes = t.bytes;
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
      })
