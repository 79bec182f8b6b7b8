(* The JSON value type, parser and accessors live in Dcn_obs.Json; these
   aliases keep perfbench/main.ml compiling unchanged. *)

let parse = Dcn_obs.Json.parse
let member = Dcn_obs.Json.member
let to_float_opt = Dcn_obs.Json.to_float_opt
