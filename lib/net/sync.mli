(** Timing discipline of the round synchronizer.

    The simulator executes the lockstep protocols over the unreliable
    network by giving every round a fixed window of simulated time: round
    [k] occupies [[(k-1) * round_duration, k * round_duration)].  At a
    window's start each alive node transmits its round-[k] messages; copies
    are retransmitted every [rto] until the receiver's acknowledgement
    arrives, the retry budget runs out, or the window closes.  At the
    window's end every node ingests whatever round-[k] messages reached it
    and steps its protocol state — exactly one [receive] per round, like the
    lockstep {!Eba_protocols.Runner}.

    Validity ([check]) requires [latency_bound < round_duration], so a
    first-attempt copy sent at the window's start always arrives within the
    window: under a loss-free schedule the delivered message sets per round
    are exactly the runner's, which is what the differential suite pins. *)

type t = private {
  round_duration : float;  (** width of each round window, > 0 *)
  rto : float;  (** retransmission timeout, > 0 *)
  max_retries : int;  (** retransmissions per message (first copy excluded) *)
}

val make : round_duration:float -> rto:float -> max_retries:int -> t
(** Raises [Invalid_argument] on non-positive durations, negative retry
    budgets, or [rto > round_duration]. *)

val default_for : Topology.t -> t
(** Timing derived from the topology's latency bound [L]: an RTO just above
    a worst-case round trip ([2.5 L], so loss-free runs never retransmit)
    and a round window of 8 RTOs with a matching retry budget of 7.  Falls
    back to an RTO of 1.0 when [L = 0]. *)

val check : t -> Topology.t -> unit
(** Raises [Invalid_argument] unless the topology's latency bound is
    strictly below [round_duration]. *)

val attempt_times : t -> float array
(** Fire offsets of every transmission of a message, relative to the
    window start: [[| 0.0; rto; rto +. rto; ... |]], the initial copy
    plus every retry the budget and the window admit, so its length is
    the most transmissions per message.  A retry counts only if its
    instant is {e strictly} before the window's close — a copy launched
    exactly at the close would be dead on arrival, so when
    [round_duration = k *. rto] the boundary retry is excluded.  Computed
    by the same repeated float addition and strict in-window re-arm test
    the event loop uses in round 1, so the count can pass
    [round_duration /. rto]: at [rto = 0.1] and [round_duration = 1.0]
    ten additions reach 0.99999999999999989 and eleven offsets fit.  The
    probability engine ({!Eba_prob.Round_chain}) keys its per-attempt
    window cutoffs off these offsets. *)

val round_end : t -> round:int -> float

val pp : Format.formatter -> t -> unit
