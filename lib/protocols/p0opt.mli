(** [P0opt] (Section 2.2): the optimal crash-mode EBA protocol obtained by
    keeping [P0]'s rule for deciding 0 and deciding 1 as early as possible
    with value-vector messages.  Decide 0 on learning of an initial 0;
    decide 1 when (a) every initial value is known to be 1, or (b) the
    heard-from set repeats in two consecutive rounds with no 0 known.

    Theorem 6.2 claims this matches the knowledge-based optimum [F^Λ,2];
    machine-checking shows that equivalence holds exactly for [t = 1] and
    fails for [t ≥ 2] (see {!P0opt_plus} and EXPERIMENTS.md E9).  [P0opt]
    remains a correct EBA protocol at every [t].

    One state and one set of rules, two message codecs: the full codec
    sends the whole known vector every round; the compact one,
    [P0opt-delta] ({!Compact}), sends each destination only the entries
    it is not yet proven to hold.  Both decide identically in value and
    round on every run; only {!Protocol_intf.PROTOCOL.wire_size}
    differs. *)

module type COMPACT = sig
  include Protocol_intf.PROTOCOL

  val known : state -> Eba_sim.Value.t option array
  (** A copy of the known-value vector (test hook). *)

  val message : round:int -> (int * Eba_sim.Value.t) list -> msg
  (** A delta carrying exactly these entries (test hook). *)

  val entries : msg -> (int * Eba_sim.Value.t) list
  (** The entries of a delta, in slot order (test hook). *)
end

module Word : Protocol_intf.PROTOCOL
(** Single-word processor sets, [n <= 62]. *)

module Wide : Protocol_intf.PROTOCOL
(** Limb-array processor sets, any [n]; decisions and messages are
    bit-identical to {!Word}'s. *)

include Protocol_intf.PROTOCOL
(** The historical interface — an alias of {!Word}. *)

val for_params : Eba_sim.Params.t -> (module Protocol_intf.PROTOCOL)
(** {!Word} when [n] fits a single word, {!Wide} beyond — so the
    simulator keeps the fast path at small [n] and never hits the
    bitset width cap at large [n]. *)

(** [P0opt-delta], the compact codec ({e confirm-or-resend}): entries
    outside the destination's confirmed set, plus a one-round echo of
    freshly learned entries, as sparse [(slot, value)] pairs under a
    round-stamped header that makes merging idempotent under loss,
    reordering and retransmission of copies.  Deltas shrink to the header
    once knowledge stabilizes, and never exceed the full codec's dense
    vector. *)
module Compact : sig
  module Word : COMPACT
  module Wide : COMPACT

  include COMPACT
  (** An alias of {!Word}. *)

  val for_params : Eba_sim.Params.t -> (module Protocol_intf.PROTOCOL)
end
