type options = {
  source_root : string;
  pool_scopes : string list;
  clock_ok : string list;
  only_rules : string list option;
  excludes : string list;
}

let default_options =
  {
    source_root = ".";
    pool_scopes = [ "lib/" ];
    clock_ok = [ "lib/obs/" ];
    only_rules = None;
    excludes = [];
  }

type report = {
  findings : Finding.t list;
  suppressed : (Finding.t * string) list;
  files : int;
  skipped : string list;
  errors : string list;
}

let has_suffix suf name =
  let n = String.length name and s = String.length suf in
  n > s && String.sub name (n - s) s = suf

let is_cmt name = has_suffix ".cmt" name
let is_cmti name = has_suffix ".cmti" name

let has_prefix pre name =
  String.length name >= String.length pre
  && String.sub name 0 (String.length pre) = pre

let scan ~keep paths =
  let acc = ref [] in
  let rec walk path =
    if Sys.file_exists path then
      if Sys.is_directory path then
        Array.iter
          (fun entry -> walk (Filename.concat path entry))
          (Sys.readdir path)
      else if keep path then acc := path :: !acc
  in
  List.iter walk paths;
  List.sort String.compare !acc

let scan_paths paths = scan ~keep:is_cmt paths

(* Interface exports drive the call-graph roots for lockset: a top-level
   function hidden by a .mli can only be entered through the exported
   surface, so its callers' locksets speak for it. Submodules with an
   opaque or functor-shaped type export everything under their prefix —
   the conservative direction (more roots, never fewer). *)
let rec signature_exports prefix (sg : Typedtree.signature) =
  List.concat_map
    (fun (item : Typedtree.signature_item) ->
      match item.sig_desc with
      | Typedtree.Tsig_value vd ->
          [ Callgraph.Exact (prefix ^ "." ^ vd.val_name.Location.txt) ]
      | Typedtree.Tsig_module md -> (
          match md.md_name.Location.txt with
          | None -> []
          | Some name -> (
              match md.md_type.mty_desc with
              | Typedtree.Tmty_signature sub ->
                  signature_exports (prefix ^ "." ^ name) sub
              | _ -> [ Callgraph.Prefix (prefix ^ "." ^ name ^ ".") ]))
      | Typedtree.Tsig_include _ -> [ Callgraph.Prefix (prefix ^ ".") ]
      | _ -> [])
    sg.sig_items

let rule_enabled opts rule =
  match opts.only_rules with None -> true | Some rs -> List.mem rule rs

(* The interprocedural phase (collection + call graph) only pays for
   itself when one of its consumers is enabled. *)
let interprocedural_enabled opts =
  List.exists (rule_enabled opts)
    [ "lockset"; "domain-escape"; "loop-blocking"; "lint-attr" ]

let excluded opts source =
  List.exists (fun pre -> has_prefix pre source) opts.excludes

let run opts paths =
  let findings = ref [] in
  let suppressed = ref [] in
  let skipped = ref [] in
  let errors = ref [] in
  let files = ref 0 in
  let summaries = ref [] in
  let exports_tbl : (string, Callgraph.export list) Hashtbl.t =
    Hashtbl.create 32
  in
  let seen_sources = Hashtbl.create 64 in
  let collecting = interprocedural_enabled opts in
  let lint_cmt path =
    (match Cmt_format.read_cmt path with
    | exception e ->
        errors :=
          Printf.sprintf "%s: unreadable cmt (%s)" path (Printexc.to_string e)
          :: !errors
    | infos -> (
        match (infos.Cmt_format.cmt_sourcefile, infos.Cmt_format.cmt_annots) with
        | Some source, Cmt_format.Implementation str ->
            if Hashtbl.mem seen_sources source || excluded opts source then ()
            else if
              not (Sys.file_exists (Filename.concat opts.source_root source))
            then
              skipped :=
                Printf.sprintf "%s: source %s not under %s (stale cmt?)" path
                  source opts.source_root
                :: !skipped
            else begin
              Hashtbl.add seen_sources source ();
              incr files;
              let outcome =
                Rules.check_structure
                  {
                    Rules.source_file = source;
                    pool_scopes = opts.pool_scopes;
                    clock_ok = opts.clock_ok;
                    only_rules = opts.only_rules;
                  }
                  str
              in
              findings := outcome.Rules.findings :: !findings;
              suppressed := outcome.Rules.suppressed :: !suppressed;
              if collecting then
                summaries :=
                  Collect.structure ~modname:infos.Cmt_format.cmt_modname
                    ~source str
                  :: !summaries
            end
        | _ ->
            skipped := Printf.sprintf "%s: no implementation" path :: !skipped))
    [@dcn.lint
      "catch-all: cmt loading failures (foreign compiler version, truncated \
       artifact) must surface as lint errors, not crash the tool; this code \
       never runs under the pool or a solve deadline"]
  in
  let read_cmti path =
    (match Cmt_format.read_cmt path with
    | exception _ -> ()  (* a bad cmti only widens the root set *)
    | infos -> (
        match infos.Cmt_format.cmt_annots with
        | Cmt_format.Interface sg ->
            let m = Collect.normalize_unit infos.Cmt_format.cmt_modname in
            Hashtbl.replace exports_tbl m (signature_exports m sg)
        | _ -> ()))
    [@dcn.lint
      "catch-all: same contract as cmt loading above — interface artifacts \
       from a foreign compiler must degrade to all-exported, not crash"]
  in
  List.iter lint_cmt (scan ~keep:is_cmt paths);
  if collecting then begin
    List.iter read_cmti (scan ~keep:is_cmti paths);
    let graph =
      Callgraph.build
        ~exports:(fun m -> Hashtbl.find_opt exports_tbl m)
        (List.rev !summaries)
    in
    let add enabled_rule (fs, sups) =
      if rule_enabled opts enabled_rule then begin
        findings := fs :: !findings;
        suppressed := sups :: !suppressed
      end
    in
    add "lockset" (Lockset.check graph);
    add "domain-escape" (Domain_escape.check graph);
    add "loop-blocking" (Loop_blocking.check graph);
    if rule_enabled opts "lint-attr" then
      findings :=
        List.concat_map
          (fun sm -> sm.Summary.sm_attr_bad)
          (Callgraph.summaries graph)
        :: !findings
  end;
  {
    findings = List.concat !findings |> List.sort_uniq Finding.compare;
    suppressed = List.concat !suppressed;
    files = !files;
    skipped = List.rev !skipped;
    errors = List.rev !errors;
  }

let render_json report ~fresh ~grandfathered ~stale =
  let module J = Dcn_obs.Json in
  let findings fs = J.Arr (List.map Finding.json fs) in
  J.pretty
    [
      ("files", J.Int report.files);
      ("errors", J.Int (List.length report.errors));
      ("new", findings fresh);
      ("baselined", findings grandfathered);
      ("stale_baseline", J.Arr (List.map (fun e -> J.Str (Baseline.to_line e)) stale));
      ( "suppressed",
        J.Arr
          (List.map
             (fun (f, reason) ->
               J.Obj [ ("finding", Finding.json f); ("reason", J.Str reason) ])
             report.suppressed) );
    ]
