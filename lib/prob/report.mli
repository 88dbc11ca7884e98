(** Whole-sweep exact probability report (the [eba probcheck] payload).

    Assembles the {!Round_chain} window analysis into the quantities a
    loss-only FloodSet sweep exposes: with [n] processors every alive
    sender transmits to every other in each of the [rounds] windows
    ([m = n * (n-1)] messages per window), and the protocol decides
    deterministically at the close of the last window — so the per-message
    residual miss [q] lifts to exact sweep-level answers:
    [E misses = m * rounds * q], [P(all delivered) = (1-q)^(m*rounds)],
    and a deterministic decision time of [rounds * round_duration].

    The same report object feeds the CLI text/JSON renderings, the
    served [probcheck] reply and the golden tests — one producer,
    byte-identical everywhere.  Huge power-shaped probabilities
    are emitted in factored exact form ([base^exp] plus a decimal
    rendering) so the JSON stays small and exact at [n = 64]. *)

type t = {
  n : int;
  t_faults : int;
  rounds : int;
  loss : Q.t;
  latency : Eba_net.Link.latency;
  sync : Eba_net.Sync.t;
  spec : Round_chain.spec;
  messages_per_round : int;  (** [n * (n-1)] *)
  messages_per_run : int;  (** [messages_per_round * rounds] *)
  per_message_miss : Q.t;
  expected_misses_per_run : Q.t;
  window_clean : Q.t;
      (** [(1-q)^m], exact: the last entry of [landing.all_by_attempt],
          shared rather than computed twice *)
  run_all_delivered : Q.t;  (** [(1-q)^(m * rounds)], exact *)
  landing : Round_chain.landing;
  decision_time_ns : Q.t;
      (** [rounds * round_duration] in integer-exact nanoseconds *)
}

val make :
  ?cancel:Eba_util.Cancel.t ->
  n:int ->
  t:int ->
  rounds:int ->
  loss:Q.t ->
  latency:Eba_net.Link.latency ->
  sync:Eba_net.Sync.t ->
  unit ->
  t
(** Raises [Invalid_argument] on [n < 2], [t < 0], [rounds < 1], a loss
    outside [[0, 1)], or message counts [n * (n-1)] or
    [n * (n-1) * rounds] that overflow a native [int].  [cancel] is
    polled between the report's major exact computations and before each
    {!Round_chain.landing} row; a fired token raises
    {!Eba_util.Cancel.Cancelled}. *)

val power_bits :
  n:int ->
  t:int ->
  rounds:int ->
  loss:Q.t ->
  latency:Eba_net.Link.latency ->
  sync:Eba_net.Sync.t ->
  int
(** An upper bound on the summed bit lengths of the exact powers {!make}
    raises with the same arguments (a power equal to 0 or 1 counting 0),
    computed without raising any:
    [b * (m * (3 * attempts + 4) + 2 * m * rounds)], where [m = n * (n-1)]
    and [b = Round_chain.base_bits].  Each of the [attempts + 1] landing
    rows raises at most three powers of exponent [m] (its numerator, its
    denominator, its numerator over the common denominator), the common
    denominator one more, and [run_all_delivered] two of exponent
    [m * rounds]; no base passes [2^b].  [0] when [b = 0].  Raises
    {!make}'s [Invalid_argument], in its order, on the same bad arguments,
    and {!Eba_util.Combi.Overflow} when the bound passes [max_int]. *)

val sig_figs : int
(** Significant digits of every decimal rendering in the report (9). *)

val to_json : t -> Eba_util.Json.t
(** Schema [eba-prob/1].  Small rationals appear as
    [{"num", "den", "decimal"}] objects (exact, normalized); power-shaped
    quantities as [{"base_num", "base_den", "exp", "decimal"}]. *)

val to_text : t -> string
(** Human-readable rendering of the same numbers. *)
