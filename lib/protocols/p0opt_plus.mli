(** [P0opt+]: an optimal crash-mode EBA protocol with polynomial-size
    messages that matches the knowledge-based [F^Λ,2] for {e every} [t]
    (machine-checked exhaustively at t = 1 and t = 2), repairing the
    [t ≥ 2] gap in Theorem 6.2's [P0opt].

    Messages gossip one row per processor — initial value plus per-round
    heard-sets ([O(n² T)] bits).  Decide 0 on any (transitively) learned
    initial 0; decide 1 when every processor that could possibly know a 0
    (a closure over unknown values and uncontradicted deliveries) is
    provably crashed and hence permanently silent.

    One state and one set of rules, two message codecs: the full codec
    sends the whole row table every round; the compact one, [P0opt+delta]
    ({!Compact}), sends each destination only the row extensions beyond
    its proven coverage.  Both decide identically in value and round on
    every run; only {!Protocol_intf.PROTOCOL.wire_size} differs. *)

module Word : Protocol_intf.PROTOCOL
(** Single-word heard-sets, [n <= 62]. *)

module Wide : Protocol_intf.PROTOCOL
(** Limb-array heard-sets, any [n]; decisions and messages are
    bit-identical to {!Word}'s. *)

include Protocol_intf.PROTOCOL
(** The historical interface — an alias of {!Word}. *)

val for_params : Eba_sim.Params.t -> (module Protocol_intf.PROTOCOL)
(** {!Word} when [n] fits a single word, {!Wide} beyond. *)

(** [P0opt+delta], the compact codec: a destination gets only the rows
    that outgrew its proven coverage.  In memory a message is the
    sender's row table plus its coverage row for the destination, both
    shared by reference; the wire encoding it is sized by is one explicit
    [(owner, value, from, heard-sets)] window per travelling row under a
    round-stamped header, so applying extensions is idempotent and
    order-independent within a round.  Each heard-set crosses each link
    roughly once instead of riding in every later round; that saves bytes
    only over longer horizons — at the default horizon of 3 a compact run
    can cost more than the full one (README, "Message complexity"). *)
module Compact : sig
  module Word : Protocol_intf.PROTOCOL
  module Wide : Protocol_intf.PROTOCOL

  include Protocol_intf.PROTOCOL
  (** An alias of {!Word}. *)

  val for_params : Eba_sim.Params.t -> (module Protocol_intf.PROTOCOL)
end
