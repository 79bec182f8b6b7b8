(** Aliases of {!Dcn_obs.Json}'s parser and two of its accessors, kept
    for [perfbench/main.ml]; new code uses {!Dcn_obs.Json} directly. *)

val parse : string -> (Dcn_obs.Json.t, string) result
val member : string -> Dcn_obs.Json.t -> Dcn_obs.Json.t option
val to_float_opt : Dcn_obs.Json.t -> float option
