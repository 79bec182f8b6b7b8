type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---- rendering ---- *)

let add_quoted buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let quote s =
  let buf = Buffer.create (String.length s + 8) in
  add_quoted buf s;
  Buffer.contents buf

(* Shortest round-tripping form: %.17g always round-trips for finite
   doubles; prefer the shorter renderings when they happen to be exact
   (which keeps "1", "2.5" and "0.05" short). *)
let round_trip x =
  if not (Float.is_finite x) then "null"
  else
    let exact s = Float.equal (float_of_string s) x in
    let g = Printf.sprintf "%g" x in
    if exact g then g
    else
      let g12 = Printf.sprintf "%.12g" x in
      if exact g12 then g12 else Printf.sprintf "%.17g" x

(* The two layouts differ in float text and spacing only: compact
   telemetry lines ([doc = false]) round floats to %.6g and use no spaces,
   documents keep every float exact and separate with ", " and ": ". *)
let rec add_value ~doc buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Num x when doc || not (Float.is_finite x) -> Buffer.add_string buf (round_trip x)
  | Num x -> Buffer.add_string buf (Printf.sprintf "%.6g" x)
  | Str s -> add_quoted buf s
  | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf (if doc then ", " else ",");
          add_value ~doc buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj members ->
      Buffer.add_char buf '{';
      add_fields ~doc buf members;
      Buffer.add_char buf '}'

and add_fields ~doc buf members =
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string buf (if doc then ", " else ",");
      add_quoted buf k;
      Buffer.add_string buf (if doc then ": " else ":");
      add_value ~doc buf v)
    members

let add_members buf members = add_fields ~doc:false buf members

let to_string v =
  let buf = Buffer.create 256 in
  add_value ~doc:true buf v;
  Buffer.contents buf

let pretty members =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf "  ";
      add_quoted buf k;
      Buffer.add_string buf ": ";
      add_value ~doc:true buf v)
    members;
  if members <> [] then Buffer.add_char buf '\n';
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ---- parsing ----

   Recursive descent over strict RFC 8259 JSON with two documented
   simplifications: [\uXXXX] escapes decode as BMP code points (lone or
   paired surrogates become U+FFFD), and every number is an IEEE double.
   Inputs are small request and metrics bodies, so clarity wins over
   throughput. *)

exception Bad of string

type state = { text : string; mutable pos : int }

let error st fmt =
  Printf.ksprintf (fun msg -> raise (Bad (Printf.sprintf "at byte %d: %s" st.pos msg))) fmt

let peek st = if st.pos < String.length st.text then Some st.text.[st.pos] else None

let next st =
  match peek st with
  | Some c ->
      st.pos <- st.pos + 1;
      c
  | None -> error st "unexpected end of input"

let skip_ws st =
  let rec go () =
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
        st.pos <- st.pos + 1;
        go ()
    | _ -> ()
  in
  go ()

let expect st c =
  let got = next st in
  if got <> c then error st "expected %C, got %C" c got

let literal st word value =
  String.iter (fun c -> expect st c) word;
  value

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match next st with
    | '"' -> Buffer.contents buf
    | '\\' ->
        (match next st with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
            let hex = Bytes.create 4 in
            for i = 0 to 3 do
              Bytes.set hex i (next st)
            done;
            let code =
              try int_of_string ("0x" ^ Bytes.to_string hex)
              with Failure _ -> error st "bad \\u escape"
            in
            (* UTF-8 encode the BMP code point; surrogates degrade to
               U+FFFD rather than failing the whole request. *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else if code >= 0xD800 && code <= 0xDFFF then
              Buffer.add_string buf "\xEF\xBF\xBD"
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
        | c -> error st "bad escape \\%C" c);
        go ()
    | c when Char.code c < 0x20 -> error st "raw control character in string"
    | c ->
        Buffer.add_char buf c;
        go ()
  in
  go ()

(* RFC 8259 section 6 lets an implementation limit the range of numbers:
   one that overflows a double is rejected, not read as an infinity. *)
let parse_number st =
  let start = st.pos in
  let num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while match peek st with Some c -> num_char c | None -> false do
    st.pos <- st.pos + 1
  done;
  let text = String.sub st.text start (st.pos - start) in
  match float_of_string_opt text with
  | Some x when Float.is_finite x -> Num x
  | Some _ -> error st "number %S out of range" text
  | None -> error st "malformed number %S" text

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then (st.pos <- st.pos + 1; Obj [])
      else
        let rec members acc =
          skip_ws st;
          let key = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match next st with
          | ',' -> members ((key, v) :: acc)
          | '}' -> Obj (List.rev ((key, v) :: acc))
          | c -> error st "expected ',' or '}' in object, got %C" c
        in
        members []
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then (st.pos <- st.pos + 1; Arr [])
      else
        let rec elements acc =
          let v = parse_value st in
          skip_ws st;
          match next st with
          | ',' -> elements (v :: acc)
          | ']' -> Arr (List.rev (v :: acc))
          | c -> error st "expected ',' or ']' in array, got %C" c
        in
        elements []
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> error st "unexpected character %C" c

let parse text =
  let st = { text; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length text then
        Error (Printf.sprintf "at byte %d: trailing garbage after value" st.pos)
      else Ok v
  | exception Bad msg -> Error msg

(* ---- accessors ---- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Num _ | Str _ | Arr _ -> None

let to_string_opt = function
  | Str s -> Some s
  | Null | Bool _ | Int _ | Num _ | Arr _ | Obj _ -> None

let to_float_opt = function
  | Num x -> Some x
  | Int n -> Some (float_of_int n)
  | Null | Bool _ | Str _ | Arr _ | Obj _ -> None

let to_bool_opt = function
  | Bool b -> Some b
  | Null | Int _ | Num _ | Str _ | Arr _ | Obj _ -> None

let to_int_opt = function
  | Int n -> Some n
  | Num x when Float.is_integer x && Float.abs x <= 1e15 -> Some (int_of_float x)
  | Null | Bool _ | Num _ | Str _ | Arr _ | Obj _ -> None

(* ---- files ---- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    (* A concurrent creator is fine; only fail if the path still isn't a
       directory afterwards. *)
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end;
  if not (try Sys.is_directory dir with Sys_error _ -> false) then
    raise (Sys_error (Printf.sprintf "cannot create directory %s" dir))

let staged_seq = Atomic.make 0

let atomic_write ~path contents =
  let parent = Filename.dirname path in
  if parent <> "" then mkdir_p parent;
  let staged =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add staged_seq 1)
  in
  (try
     let fd =
       Unix.openfile staged [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
     in
     Fun.protect
       ~finally:(fun () -> Unix.close fd)
       (fun () ->
         let len = String.length contents in
         let rec write_all off =
           if off < len then
             write_all (off + Unix.write_substring fd contents off (len - off))
         in
         write_all 0;
         (* Data must be durable before the rename publishes the name: a
            crash between rename and writeback would otherwise leave a
            *visible* empty file, which is exactly the torn state watchers
            (e.g. a coordinator polling for a daemon's port file) rely on
            never observing. *)
         Unix.fsync fd)
   with Unix.Unix_error (err, _, _) ->
     (try Sys.remove staged with Sys_error _ -> ());
     raise (Sys_error (staged ^ ": " ^ Unix.error_message err)));
  Sys.rename staged path
