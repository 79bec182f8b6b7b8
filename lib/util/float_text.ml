let to_string x =
  if Float.is_nan x then "nan"
  else if Float.equal x Float.infinity then "inf"
  else if Float.equal x Float.neg_infinity then "-inf"
  else Dcn_obs.Json.round_trip x

let of_string = float_of_string
let of_string_opt = float_of_string_opt
