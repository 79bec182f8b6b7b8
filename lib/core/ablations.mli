(** Ablation benches for design choices called out in DESIGN.md.

    These go beyond the paper's figures but directly support its arguments:
    §6's critique of bisection bandwidth, §4's RRG-vs-structured
    comparisons, and the solver substitution documented in DESIGN.md. *)

val bisection_vs_throughput : Scale.t -> Dcn_util.Table.t
(** Sweep cross-cluster connectivity on a two-cluster random network and
    report both heuristic bisection bandwidth and measured throughput,
    normalized to their values at the unbiased point — showing bisection
    falling long before throughput does (§6). *)

val fptas_accuracy : Scale.t -> Dcn_util.Table.t
(** FPTAS certified interval vs. the exact simplex optimum on small random
    instances, across eps settings — the CPLEX-substitution ablation. The
    eps ladder runs as a warm chain (each rung seeds the next with its
    final lengths), which changes nothing about the certificates. *)

val equal_equipment_topologies : Scale.t -> Dcn_util.Table.t
(** RRG vs. hypercube vs. torus vs. fat-tree with identical switch
    equipment, permutation traffic — the §4 "not all flat topologies are
    equal" point (~30% RRG advantage over the hypercube). *)

val rrg_construction : Scale.t -> Dcn_util.Table.t
(** Jellyfish incremental construction vs. the configuration/pairing model:
    ASPL and throughput agree within noise. *)

val routing_restriction : Scale.t -> Dcn_util.Table.t
(** Optimal splittable routing vs. 8-shortest-path multipath vs. ECMP vs.
    single shortest path on the same RRG — the §8 point that k-shortest
    multipath recovers nearly all of the fluid optimum while single-path
    routing does not. *)

val incremental_expansion : Scale.t -> Dcn_util.Table.t
(** Grow an RRG by Jellyfish-style splicing (§2); throughput per server
    and ASPL track the from-scratch random graph at every size. *)

val local_search_gain : Scale.t -> Dcn_util.Table.t
(** REWIRE-style hill climbing on ASPL: starting from an RRG there is
    almost nothing to gain (§4's near-optimality), while starting from a
    ring the search recovers most of the gap — evidence the search works
    and the RRG is already near-optimal. *)

val cabling : Scale.t -> Dcn_util.Table.t
(** Degree-preserving cable-shortening on a clustered floor plan: large
    cable-length reductions at (near-)zero throughput cost — the practical
    consequence of the §5/§6 plateau. *)

val structured_topologies : Scale.t -> Dcn_util.Table.t
(** BCube, DCell and Dragonfly (the §2 related-work designs) vs an RRG of
    comparable equipment under permutation traffic. *)

val spectral_vs_throughput : Scale.t -> Dcn_util.Table.t
(** Expansion quality (|λ₂| vs the Ramanujan bound) against measured
    throughput as the two-cluster cut thins — §6.2's expander argument
    made measurable. *)

val traffic_proportionality : Scale.t -> Dcn_util.Table.t
(** §9's workload argument: for hose-model-compliant matrices (no server
    sends or receives beyond its line rate) the per-server rate under
    all-to-all is within 2x of any other matrix. A hotspot matrix, which
    deliberately violates the hose premise on its receivers, is included
    to show where the claim's assumptions end. *)

val vlb_routing : Scale.t -> Dcn_util.Table.t
(** Valiant load balancing (VL2's actual routing scheme, §7) vs optimal
    routing on VL2 and on its rewired counterpart. *)

val transport_comparison : Scale.t -> Dcn_util.Table.t
(** Loss-driven vs ECN-driven (DCTCP, §9) transport in the packet
    simulator, against the fluid optimum. *)

val failure_resilience : Scale.t -> Dcn_util.Table.t
(** Throughput retention under uniform random link failures: RRG vs
    fat-tree at comparable equipment (the graceful-degradation argument
    of the random-graph literature §2 builds on). Each topology is solved
    once; every failed fraction is then a
    {!Dcn_flow.Mcmf_fptas.resolve_after_failure} against that baseline,
    and the zero fraction emits retention 1 without solving. *)

val multi_class_placement : Scale.t -> Dcn_util.Table.t
(** Future-work item (c) of §9: with three switch classes, sweeping the
    placement exponent β shows port-proportional placement (β = 1) is
    still optimal. *)
