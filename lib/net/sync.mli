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

val attempts : t -> int
(** Maximum transmissions per message: the initial copy plus every retry
    the budget and the window admit.  Retry [i] fires at
    [round_start + i * rto] and counts only if that instant is {e strictly}
    before the window's close — a copy launched exactly at [round_end]
    would be dead on arrival, so when [round_duration = k *. rto] the
    boundary retry is excluded (the same [< round_end] cutoff the event
    loop uses to schedule timers). *)

val attempt_times : t -> float array
(** Fire offsets of every admitted transmission, relative to the window
    start: [[| 0.0; rto; rto +. rto; ... |]].  Computed by the same
    repeated float addition and strict in-window re-arm test the event
    loop uses, so the schedule is bit-exact against the simulator —
    [Array.length (attempt_times t)] agrees with {!attempts} whenever
    iterated addition and multiplication round identically (always at the
    repo's dyadic-friendly defaults).  The probability engine
    ({!Eba_prob.Round_chain}) keys its per-attempt window cutoffs off
    these offsets. *)

val round_end : t -> round:int -> float

val pp : Format.formatter -> t -> unit
