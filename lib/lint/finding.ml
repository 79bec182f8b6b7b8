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

let json t =
  let module J = Dcn_obs.Json in
  J.Obj
    [
      ("file", J.Str t.file);
      ("line", J.Int t.line);
      ("col", J.Int t.col);
      ("rule", J.Str t.rule);
      ("message", J.Str t.message);
    ]

let to_json t = Dcn_obs.Json.to_string (json t)
