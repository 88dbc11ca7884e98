(** The adapter that runs one lockstep {!Eba_protocols.Protocol_intf.PROTOCOL}
    automaton as a network node.

    A node owns the protocol state, the current round's receive buffer with
    per-sender deduplication (retransmissions may deliver a message twice),
    the per-destination acknowledgement flags the retransmission timers
    consult, and the decision record.  The simulation engine drives it with
    [start_round] / [accept] / [finish_round]; decisions are read after any
    state change, mirroring the runner's "first non-[None] output" rule,
    and carry both the round number (comparable to the lockstep runner) and
    the simulated instant. *)

module Params = Eba_sim.Params
module Value = Eba_sim.Value
module Runner = Eba_protocols.Runner

module Make (P : Eba_protocols.Protocol_intf.PROTOCOL) : sig
  type t

  val create : Params.t -> me:int -> Value.t -> sim_time:float -> t
  (** Initial state; records a time-0 decision if the protocol outputs
      one immediately. *)

  val reset : Params.t -> t -> me:int -> Value.t -> sim_time:float -> unit
  (** Reinitialize in place to exactly the state [create] would build,
      recycling the inbox/got/acked arrays when the width matches — the
      arena-reuse hook for engines that run many simulated runs through
      one node record.  Records a time-0 decision like [create]. *)

  val me : t -> int

  val round : t -> int
  (** The round the node is currently collecting messages for; 0 before
      the first [start_round]. *)

  val start_round : Params.t -> t -> round:int -> P.msg option array
  (** Enter a round: clears the receive buffer and ack flags and returns
      the protocol's outgoing messages (one slot per destination).  Rounds
      must be entered in order. *)

  val accept :
    t -> round:int -> sender:int -> bytes:int -> P.msg -> [ `Fresh | `Duplicate | `Late ]
  (** Offer a delivered copy of [bytes] wire bytes.  [`Fresh] stores it
      (and is the receiver's cue to acknowledge), adding [bytes] to the
      node's inbox byte count; [`Duplicate] if this sender already got
      through this round; [`Late] if the copy's round is already over. *)

  val ack : t -> round:int -> dest:int -> unit
  (** Record a received acknowledgement for this round's message to
      [dest]; stale-round acks are ignored. *)

  val acked : t -> dest:int -> bool
  (** Has this round's message to [dest] been acknowledged? *)

  val bytes_in : t -> int
  (** Exact wire bytes of every fresh copy this node accepted over its
      lifetime (duplicates and late copies excluded) — the per-node share
      of {!Net_stats.wire.w_delivered_bytes}. *)

  val finish_round : Params.t -> t -> sim_time:float -> unit
  (** Close the current round: feed the buffered arrivals to [P.receive]
      and record a first decision if one appeared. *)

  val decision : t -> Runner.decision option
  val decision_sim_time : t -> float option
  val state : t -> P.state
end
