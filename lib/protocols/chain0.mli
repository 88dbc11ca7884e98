(** The operational 0-chain protocol for sending-omission failures
    (Section 6.2, Prop 6.4): an implementable counterpart of
    [FIP(Z⁰, O⁰)].  Decide 0 when an initial 0 arrives along a trusted
    hop-per-round path; decide 1 after the first round that brings no new
    fault evidence.  All nonfaulty processors decide by time [f+1] when
    [f] processors actually fail; under {e general} omissions the protocol
    remains safe but loses liveness (silence no longer convicts the
    sender).

    One state and one set of rules, two message codecs: the full codec
    gossips the whole suspicion set every round; the compact one,
    [Chain0-cert] ({!Compact}), sends each destination only the
    suspicions it is not yet proven to hold.  Both decide identically in
    value and round on every run; only
    {!Protocol_intf.PROTOCOL.wire_size} differs. *)

module Word : Protocol_intf.PROTOCOL
(** Single-word suspicion sets, [n <= 62]. *)

module Wide : Protocol_intf.PROTOCOL
(** Limb-array suspicion sets, any [n]; decisions and messages are
    bit-identical to {!Word}'s. *)

include Protocol_intf.PROTOCOL
(** The historical interface — an alias of {!Word}. *)

val for_params : Eba_sim.Params.t -> (module Protocol_intf.PROTOCOL)
(** {!Word} when [n] fits a single word, {!Wide} beyond. *)

(** [Chain0-cert], the compact codec: a {e certificate} — the suspicions
    the destination is not yet proven to hold (confirm-or-resend with a
    one-round echo of fresh convictions) — instead of the whole suspicion
    set, under a round-stamped header that keeps the receiving union
    idempotent.  Certificates empty out exactly as the run approaches the
    no-news round, and never exceed the dense suspicion bitmap. *)
module Compact : sig
  module Word : Protocol_intf.PROTOCOL
  module Wide : Protocol_intf.PROTOCOL

  include Protocol_intf.PROTOCOL
  (** An alias of {!Word}. *)

  val for_params : Eba_sim.Params.t -> (module Protocol_intf.PROTOCOL)
end
