(** The repository's one JSON value type, its reader, its renderers, and
    atomic file output.

    The repository has no JSON library dependency. Every JSON producer
    and consumer — trace files, event logs, metrics snapshots, served
    bodies, request bodies — shares this module, so escaping, float
    rendering and number parsing stay consistent.

    Renderers, by output:
    - {!add_members}: compact ["k":v,...] members, no spaces — trace
      event ["args"] ({!Trace}) and event-log lines ({!Event_log}).
    - {!to_string}: the inline document form [{"k": v, "k2": [a, b]}] —
      request wire bodies, error and [/healthz] bodies, lint findings.
    - {!pretty}: one top-level member per line, each value rendered by
      {!to_string} — served [/solve] and bound bodies, [/metrics] and
      [--metrics] files, the grid artifact, the orchestrator summary,
      lint reports, [topobench client --json] and [bench --bench-json].

    Float text follows one rule. Compact telemetry lines render [Num] at
    [%.6g]. Documents render it exactly, in the shortest decimal form
    that reads back to the same double ({!round_trip}), so a reader
    decoding a served interval or a metrics sum sees the very bits the
    process held. Both write NaN and infinities as [null]: JSON has no
    literals for them. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
(** A JSON value. Producers use [Int] for exact integers and [Num] for
    floats; {!parse} produces [Num] for every number. *)

(** {1 Rendering} *)

val quote : string -> string
(** A JSON string literal: quotes, backslashes and control characters
    escaped, wrapped in double quotes. *)

val round_trip : float -> string
(** The document float rule: the shortest of [%g], [%.12g] and [%.17g]
    that parses back to the input bit for bit; ["null"] for NaN and
    infinities. {!Dcn_util.Float_text} uses the same text for finite
    values. *)

val add_members : Buffer.t -> (string * t) list -> unit
(** Append [members] compactly, comma-separated with no spaces and no
    enclosing braces: ["a":1,"b":"x"]. [Int] renders as [string_of_int],
    [Num] at [%.6g] (["null"] when not finite), [Str] through {!quote},
    [Bool] as [true]/[false]; arrays and objects nest in the same compact
    form. *)

val to_string : t -> string
(** The inline document form: [{"k": v, "k2": v2}] and [[a, b]], with
    [Num] through {!round_trip}. No trailing newline. *)

val pretty : (string * t) list -> string
(** ["{\n"], one ["  \"name\": value"] line per member (comma-terminated
    except the last) with the value rendered by {!to_string}, then
    ["}\n"]. *)

(** {1 Parsing} *)

val parse : string -> (t, string) result
(** Whole-input parse of strict RFC 8259 JSON; the error message carries
    a byte offset. Two simplifications: [\uXXXX] escapes decode as BMP
    code points (surrogates become U+FFFD), and every number becomes
    [Num] of an IEEE double. A number whose magnitude overflows a double
    (e.g. [1e999]) is an error, not an infinity (RFC 8259 section 6
    allows range limits). *)

val member : string -> t -> t option
(** Field of an object; [None] on missing field or non-object. *)

val to_string_opt : t -> string option
val to_bool_opt : t -> bool option

val to_float_opt : t -> float option
(** [Num x] is [x]; [Int n] is [float_of_int n]. *)

val to_int_opt : t -> int option
(** [Int n], or a [Num] that is an exact integer within [1e15]. *)

(** {1 Files} *)

val mkdir_p : string -> unit
(** Create the directory and any missing parents (0o755); concurrent
    creators are fine. Raises [Sys_error] only if the path still is not
    a directory afterwards. *)

val atomic_write : path:string -> string -> unit
(** Write [contents] to [path] via a staged temporary file in the same
    directory, [fsync], then [Sys.rename] — the same publish discipline
    as the result store, so a crash mid-write never leaves a truncated
    (or, thanks to the fsync, post-crash empty) file and concurrent
    writers of the same path never interleave. Parent directories are
    created as needed. Raises [Sys_error] on unwritable destinations. *)
