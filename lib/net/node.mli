(** The adapter that runs one lockstep {!Eba_protocols.Protocol_intf.PROTOCOL}
    automaton as a network node.

    A node owns the protocol state, the current round's receive buffer with
    per-sender deduplication (retransmissions may deliver a message twice),
    the per-destination acknowledgement records the retransmission timers
    consult, and the decision record: three n-long arrays (inbox, ack
    instants, ack seqnos) per node.

    An acknowledgement is node state, not an event: the engine draws its
    loss and latency when the receiver sends it and records its arrival
    key [(time, seqno)] in the data sender's node at once.  A timer that
    fires at [(time, seqno)] then asks whether an ack arrived before it,
    which is exactly what an ack event processed in [(time, seqno)] order
    would have told it.  The simulation engine drives it with
    [start_round] / [accept] / [finish_round]; decisions are read after any
    state change, mirroring the runner's "first non-[None] output" rule,
    and carry both the round number (comparable to the lockstep runner) and
    the simulated instant. *)

module Params = Eba_sim.Params
module Value = Eba_sim.Value
module Decision = Eba_sim.Decision

module Make (P : Eba_protocols.Protocol_intf.PROTOCOL) : sig
  type t

  val create : Params.t -> me:int -> Value.t -> sim_time:float -> t
  (** Initial state; records a time-0 decision if the protocol outputs
      one immediately. *)

  val reset : Params.t -> t -> me:int -> Value.t -> sim_time:float -> unit
  (** Reinitialize in place to exactly the state [create] would build,
      recycling the inbox and ack arrays when the width matches — the
      arena-reuse hook for engines that run many simulated runs through
      one node record.  Records a time-0 decision like [create]. *)

  val me : t -> int

  val round : t -> int
  (** The round the node is currently collecting messages for; 0 before
      the first [start_round]. *)

  val start_round : Params.t -> t -> round:int -> P.msg option array
  (** Enter a round: clears the receive buffer and ack records and returns
      the protocol's outgoing messages (one slot per destination).  Rounds
      must be entered in order. *)

  val accept : t -> round:int -> sender:int -> P.msg -> [ `Fresh | `Duplicate | `Late ]
  (** Offer a delivered copy.  [`Fresh] stores it (and is the receiver's
      cue to acknowledge); [`Duplicate] if this sender already got
      through this round; [`Late] if the copy's round is already over. *)

  val ack : t -> round:int -> dest:int -> time:float -> seq:int -> unit
  (** Record an acknowledgement of this round's message to [dest] that
      arrives at instant [time] with sequence number [seq]; the node keeps
      the earliest [(time, seq)] per destination until the next
      {!start_round}.  [seq] must exceed every seqno recorded before it.
      Acks stamped with another round are ignored. *)

  val acked : t -> dest:int -> time:float -> seq:int -> bool
  (** Has an acknowledgement of this round's message to [dest] arrived
      strictly before [(time, seq)]? *)

  val finish_round : Params.t -> t -> sim_time:float -> unit
  (** Close the current round: feed the buffered arrivals to [P.receive]
      and record a first decision if one appeared. *)

  val decision : t -> Decision.t option
  val decision_sim_time : t -> float option
  val state : t -> P.state
end
