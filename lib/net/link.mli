(** Per-link behaviour: a latency model plus an independent per-transmission
    drop probability.

    All sampling is driven by the caller's [Random.State.t], so a link's
    behaviour in a run is a pure function of the run's seed.  Times are in
    abstract simulated seconds. *)

(** One-way latency models for a single message copy. *)
type latency =
  | Const of float  (** every copy takes exactly this long *)
  | Uniform of float * float  (** uniform in [[lo, hi]] *)
  | Spike of { base : float; prob : float; spike : float }
      (** [base] normally; with probability [prob] a slow [spike] copy
          (queueing burst / reroute) *)

val latency_of_string : string -> latency
(** Parses a CLI latency spec: [const:C], [uniform:LO,HI] or
    [spike:BASE,PROB,SPIKE].  Raises [Invalid_argument] on malformed specs
    or non-positive/ill-ordered parameters. *)

val latency_to_string : latency -> string
(** Inverse of {!latency_of_string} (canonical form): each parameter
    prints with [%g] when that reads back equal, else with the fewest of
    15, 16 or 17 significant digits that does. *)

val sample_latency : Random.State.t -> latency -> float

val latency_bound : latency -> float
(** An inclusive upper bound on {!sample_latency} — what the synchronizer's
    timing rules are validated against. *)

type t = { lat : latency; loss : float }
(** A directed link.  [loss] is the probability an individual copy (first
    transmission or retransmission, data or ack) is dropped in flight. *)

val make : latency:latency -> loss:float -> t
(** Raises [Invalid_argument] unless [0 <= loss < 1]. *)

val pp : Format.formatter -> t -> unit
