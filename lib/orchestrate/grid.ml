(* Declarative parameter grids and their expansion into work units.

   A grid is the cross product of the axes the paper's sweeps range over
   — topology family x instance seed x traffic model x eps x gap x
   routing — in the same spec vocabulary as every CLI (Core.Cli). Each
   point becomes one work unit carrying the wire-format /solve body
   (Request.to_body) and the request's content digest, computed by the
   coordinator itself from the *resolved* inputs. The digest is the
   unit's identity everywhere downstream: the store key its result is
   published under, the manifest record a resume re-verifies, and the
   reason hedged duplicates are safe to race (byte-identical responses).

   Expansion is deterministic (axes are expanded in list order, nested
   left to right) and deduplicates by digest — two grid points that
   resolve to the same computation (e.g. seeds that collide for a
   deterministic generator) yield one unit. *)

module Cli = Core.Cli
module Request = Dcn_serve.Request

type t = {
  topos : Cli.topo_spec list;
  seeds : int list;
  traffics : Cli.traffic_kind list;
  epses : float list;
  gaps : float list;
  routings : Request.routing list;
}

type unit_ = {
  id : int;
  label : string;
  request : Request.t;
  body : string;
  digest : Core.Digest_key.t;
}

let create ~topos ?(seeds = [ 1 ]) ?(traffics = [ Cli.Perm ])
    ?(epses = [ 0.05 ]) ?(gaps = [ 0.05 ]) ?(routings = [ Request.Optimal ]) ()
    =
  let nonempty what l =
    if l = [] then invalid_arg (Printf.sprintf "Grid.create: empty %s axis" what)
    else l
  in
  {
    topos = nonempty "topology" topos;
    seeds = nonempty "seed" seeds;
    traffics = nonempty "traffic" traffics;
    epses = nonempty "eps" epses;
    gaps = nonempty "gap" gaps;
    routings = nonempty "routing" routings;
  }

let size t =
  List.length t.topos * List.length t.seeds * List.length t.traffics
  * List.length t.epses * List.length t.gaps * List.length t.routings

(* Whitespace-free (manifest lines are space-separated), human-readable,
   and injective over the axes: every component is a canonical rendering
   that parses back. *)
let label_of (r : Request.t) =
  let f = Core.Float_text.to_string in
  let topo =
    match r.Request.topology with
    | Request.Spec spec -> Cli.topo_spec_to_string spec
    | Request.Inline _ -> "inline"
  in
  Printf.sprintf "%s/s%d/%s/eps%s/gap%s/%s" topo r.Request.seed
    (Cli.traffic_to_string r.Request.traffic)
    (f r.Request.eps) (f r.Request.gap)
    (Request.routing_to_string r.Request.routing)

let expand t =
  let points = ref [] in
  List.iter
    (fun topo ->
      List.iter
        (fun seed ->
          List.iter
            (fun traffic ->
              (* One resolution per (topology, seed, traffic): eps, gap
                 and routing share the instance, and resolving — building
                 the topology and the matrix — dominates expansion cost. *)
              let base =
                {
                  Request.topology = Request.Spec topo;
                  seed;
                  traffic;
                  eps = 0.05;
                  gap = 0.05;
                  routing = Request.Optimal;
                  timeout_s = None;
                }
              in
              let resolved =
                try Request.resolve base
                with Invalid_argument msg | Failure msg | Sys_error msg ->
                  invalid_arg
                    (Printf.sprintf "topology %s: %s"
                       (Core.Cli.topo_spec_to_string topo)
                       msg)
              in
              List.iter
                (fun eps ->
                  List.iter
                    (fun gap ->
                      List.iter
                        (fun routing ->
                          let request =
                            { base with Request.eps; gap; routing }
                          in
                          let digest = Request.digest request resolved in
                          points := (request, digest) :: !points)
                        t.routings)
                    t.gaps)
                t.epses)
            t.traffics)
        t.seeds)
    t.topos;
  let seen = Hashtbl.create 64 in
  List.rev !points
  |> List.filter (fun (_, digest) ->
         if Hashtbl.mem seen digest then false
         else begin
           Hashtbl.add seen digest ();
           true
         end)
  |> List.mapi (fun id (request, digest) ->
         {
           id;
           label = label_of request;
           request;
           body = Request.to_body request;
           digest;
         })

(* The run's identity for manifest placement: the ordered unit digests.
   Any change to any axis value — or to the solver version, which every
   unit digest already includes — lands the run in a fresh manifest
   directory, so resumes can never mix incompatible results. *)
let fingerprint units =
  String.concat "\n"
    ("orchestrate-grid/1" :: List.map (fun u -> (u.digest : string)) units)

let to_json t =
  let module J = Dcn_obs.Json in
  let arr f l = J.Arr (List.map f l) in
  let num x = J.Num x in
  J.pretty
    [
      ("solver_version", J.Str Core.Digest_key.solver_version);
      ("topologies", arr (fun s -> J.Str (Cli.topo_spec_to_string s)) t.topos);
      ("seeds", arr (fun s -> J.Int s) t.seeds);
      ("traffics", arr (fun k -> J.Str (Cli.traffic_to_string k)) t.traffics);
      ("eps", arr num t.epses);
      ("gap", arr num t.gaps);
      ("routings", arr (fun r -> J.Str (Request.routing_to_string r)) t.routings);
    ]
