(** [P0opt-delta]: the bounded-bandwidth variant of {!P0opt}.

    Same state, same decision rules, same message {e presence} — but each
    destination receives only the known-value entries it is not yet proven
    to hold ({e confirm-or-resend}: entries outside the per-destination
    confirmed set, plus a one-round echo of freshly learned entries), as
    sparse [(slot, value)] pairs under a round-stamped header that makes
    merging idempotent under loss, reordering and retransmission of copies.
    In memory a delta is a slot set over the sender's known vector, which
    all its messages of a round share: sending and merging are set
    algebra, with no per-slot scan and no per-entry allocation.

    Decisions are identical to {!P0opt} in value and round on every run
    (checked exhaustively by the differential suite); only
    {!Protocol_intf.PROTOCOL.wire_size} differs — deltas shrink to the
    header once knowledge stabilizes, and never exceed the full variant's
    dense vector. *)

module type COMPACT = sig
  include Protocol_intf.PROTOCOL

  val known : state -> Eba_sim.Value.t option array
  (** A copy of the known-value vector (test hook). *)

  val message : round:int -> (int * Eba_sim.Value.t) list -> msg
  (** A delta carrying exactly these entries (test hook). *)

  val entries : msg -> (int * Eba_sim.Value.t) list
  (** The entries of a delta, in slot order (test hook). *)
end

module Make (S : Eba_util.Procset.S) : COMPACT
(** The protocol over an arbitrary processor-set representation; all
    instances decide identically and send bit-identical messages. *)

module Word : COMPACT
(** [Make (Procset.Word)]: single-word sets, [n <= 62]. *)

module Wide : COMPACT
(** [Make (Procset.Wide)]: limb-array sets, any [n]. *)

include COMPACT
(** An alias of {!Word}, mirroring the full protocols' convention. *)

val for_params : Eba_sim.Params.t -> (module Protocol_intf.PROTOCOL)
(** {!Word} when [n] fits a single word, {!Wide} beyond. *)
