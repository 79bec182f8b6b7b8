(** Run manifests: resumable experiment suites.

    A {e run} is one configuration of the figure pipeline (scale preset +
    solver version). Its manifest directory, placed inside the result
    store's root under [runs/<digest>/], records each completed target as
    soon as it finishes:

    - a ["done <seconds> <target>"] line appended to the [manifest] file
      (single [O_APPEND] write, so a crash mid-suite loses at most the
      in-flight line, and a torn line is skipped on load);
    - the target's rendered table and CSV as artifact files, written with
      the same atomic tmp+rename discipline as store objects.

    Re-running with [--resume] replays completed targets from their
    artifacts and computes only the rest; within a partially-finished
    target the solve-level cache supplies the finished data points, so
    interruption costs one target's cheap scaffolding at most. *)

type entry = {
  target : string;  (** Figure/ablation name; no whitespace. *)
  seconds : float;  (** Wall time of the original computation. *)
}

val dir : store:Store.t -> fingerprint:string -> string
(** Manifest directory of the run identified by the caller's fingerprint
    (e.g. {!Core.Scale.fingerprint}); created on first use ([Sys_error]
    if it cannot be). The solver
    version participates in the digest, so incompatible runs never share
    a directory. *)

val load : dir:string -> entry list
(** Completed entries, oldest first; absent manifest is an empty run.
    Malformed lines are skipped. When a target appears twice, the later
    entry wins. *)

val mark_done : dir:string -> entry -> unit
(** Append one completion record and flush it to the OS. *)

(** {1 Orchestrated work units}

    Distributed sweeps record one ["unit <seconds> <digest> <worker>
    <target>"] line per completed work unit in the same manifest file —
    the exact result digest (so a resume can re-verify the store entry
    before trusting the record) and the worker that produced it (for
    audit and per-worker accounting). The two record kinds coexist;
    each loader ignores the other's lines. *)

type unit_entry = {
  u_target : string;  (** Work-unit label; no whitespace. *)
  u_digest : string;  (** {!Digest_key.t} of the unit's result. *)
  u_worker : string;  (** Worker name ([host:port] or ["serial"]). *)
  u_seconds : float;  (** Wall time of the original computation. *)
}

val load_units :
  ?warn:(string -> unit) -> dir:string -> unit -> unit_entry list
(** Completed unit records, oldest first, later-wins per target. Lines
    that are neither blank nor a valid record of either kind — a torn
    append, bit rot — are reported through [warn] (default: a stderr
    message) and skipped; corruption degrades to a recompute, never a
    crash. *)

val mark_unit : dir:string -> unit_entry -> unit
(** Append one work-unit completion record (single [O_APPEND] write). *)

val write_artifact : dir:string -> name:string -> string -> unit
(** Atomically write [dir/name] through {!Dcn_obs.Json.atomic_write}
    (staged, fsynced, renamed). An unwritable destination is ignored:
    artifacts are an audit trail, never a reason to fail a run. *)

val read_artifact : dir:string -> name:string -> string option
