(** Exact text serialization of solver results.

    Payload bodies for {!Store} entries. Floats use the round-tripping
    decimal form of {!Dcn_util.Float_text}, so a decoded result is
    bit-identical to the encoded one — the property that lets cached
    figures render byte-for-byte the same tables as fresh runs.

    Decoders are total: any malformed, truncated, or version-mismatched
    payload yields [None], which {!Solve_cache} treats as a miss. So does
    a well-formed one whose certified interval is not finite with
    [λ_lo ≤ λ_hi], or whose λ or ⟨D⟩ is not finite: the CLI prints the
    Theorem-1 bound from a stored ⟨D⟩. *)

val fptas_result_to_string : Dcn_flow.Mcmf_fptas.result -> string
val fptas_result_of_string : string -> Dcn_flow.Mcmf_fptas.result option

val fptas_state_to_string : Dcn_flow.Mcmf_fptas.solve_state -> string
val fptas_state_of_string :
  string -> Dcn_flow.Mcmf_fptas.solve_state option
(** Full solve state — result {e and} warm seed (lengths, eps, phase
    count, dual bound, per-group flows when tracked). The warm fields
    round-trip bit-exactly so a chain seeded from a replayed state
    computes the same bits as one seeded from the live state: warm chains
    stay deterministic across cache states. *)

val throughput_to_string : Dcn_flow.Throughput.t -> string
val throughput_of_string : string -> Dcn_flow.Throughput.t option
