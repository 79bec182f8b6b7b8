(** Switch-level flow demands.

    A commodity is a (source switch, destination switch, demand) triple.
    Server-level traffic matrices are aggregated to this form by
    {!Dcn_traffic.Traffic.to_commodities}; the concurrent-flow value is
    unchanged by the aggregation because co-located flows are
    interchangeable in the fluid model. *)

type t = { src : int; dst : int; demand : float }

val make : src:int -> dst:int -> demand:float -> t
(** Raises [Invalid_argument] if [src = dst] (intra-switch traffic uses no
    network capacity and must be filtered before solving) or the demand is
    not strictly positive and finite. *)

val total_demand : t array -> float

val validate : n:int -> t array -> unit
(** Check all endpoints lie in [0 .. n-1]; raises [Invalid_argument]. *)

val group_by_source : n:int -> t array -> (int * (int * float) list) array
(** [(src, [(dst, demand); ...])] with one entry per distinct source, in
    ascending source order. Multiple commodities with the same (src, dst)
    are merged by summing demands. *)

val pp : Format.formatter -> t -> unit
