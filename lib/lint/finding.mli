(** A single lint finding: a rule violation at a source location. *)

type t = {
  file : string;  (** path as recorded by the compiler, e.g. [lib/util/pool.ml] *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, matching compiler diagnostics *)
  rule : string;  (** rule id, e.g. ["catch-all"] *)
  message : string;
}

val make : loc:Location.t -> rule:string -> message:string -> t

val compare : t -> t -> int
(** Order by (file, line, col, rule, message) for deterministic reports. *)

val to_string : t -> string
(** [file:line:col: [rule] message] — the grep-able one-line form. *)

val json : t -> Dcn_obs.Json.t
(** One finding as a JSON object (stable key order). *)

val to_json : t -> string
(** {!json} in the inline document form. *)
