type t = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

let make ~(loc : Location.t) ~rule ~message =
  let p = loc.Location.loc_start in
  {
    file = p.Lexing.pos_fname;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    rule;
    message;
  }

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.message b.message

let to_string t =
  Printf.sprintf "%s:%d:%d: [%s] %s" t.file t.line t.col t.rule t.message

let to_json t =
  Printf.sprintf "{\"file\": %s, \"line\": %d, \"col\": %d, \"rule\": %s, \"message\": %s}"
    (Dcn_obs.Json.quote t.file) t.line t.col (Dcn_obs.Json.quote t.rule)
    (Dcn_obs.Json.quote t.message)
