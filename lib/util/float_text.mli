(** Lossless, human-readable decimal rendering of floats.

    The serialization formats ({!Dcn_io.Topology_io}, {!Dcn_io.Traffic_io})
    and the result store need float text that (a) parses back to the exact
    same IEEE value and (b) is identical every time the same value is
    printed, so serialized forms are stable digest inputs. [%g] alone
    satisfies neither: it rounds to 6 significant digits. This module
    prints the shortest of %g/%.12g/%.17g that round-trips, which keeps
    common values ("1", "2.5", "0.05") short while remaining exact. The
    rule for finite values is {!Dcn_obs.Json.round_trip}, the float text
    of every JSON document, so both formats print a value identically. *)

val to_string : float -> string
(** Shortest decimal form [s] with [float_of_string s] equal to the input
    bit-for-bit (NaN maps to "nan", infinities to "inf"/"-inf"). *)

val of_string : string -> float
(** [float_of_string]; raises [Failure] on malformed input. *)

val of_string_opt : string -> float option
