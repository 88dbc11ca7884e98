(** Exact Markov analysis of one {!Eba_net.Sync} round window.

    A round-[k] message is transmitted up to [A] times, [A] the length
    of {!Eba_net.Sync.attempt_times}: attempt [a] fires at the window
    offset it reports (boundary-exact), its copy survives the link
    with probability [1 - loss], and the surviving copy beats the window
    close with the latency-model probability [u_a] ([in_window]).  Attempt
    outcomes are independent, and a missed message keeps retransmitting
    through the whole budget (no delivery means no data ack ever arrives;
    ack loss merely causes duplicates), so the per-attempt success
    probabilities [s_a = (1 - loss) * u_a] drive everything:

    - a single message still misses its window with probability
      [prod_a (1 - s_a)] ({!per_message_miss});
    - the undelivered-copy count of [m] independent messages evolves as a
      Markov chain with binomial transition kernels in [s_a] ({!chain}),
      absorbing at 0 (all delivered) or at window close;
    - all [m] land within the first [k] attempts with probability
      [(1 - miss_after k)^m] ({!all_by}), the chain's row-[k] mass at 0.

    The chain is the ground truth the closed forms are differentially
    tested against at small [m]; the closed forms are what scales to the
    committed [n = 64] benchmark row.  The analysis models round 1 of a
    loss-only (fault-free) run; every window of such a run is
    probabilistically identical. *)

type spec = {
  attempts : int;
      (** max transmissions per message, the length of
          {!Eba_net.Sync.attempt_times} *)
  loss : Q.t;  (** exact per-copy loss probability [p], [0 <= p < 1] *)
  in_window : Q.t array;
      (** [u_a]: probability a surviving attempt-[a] copy arrives strictly
          before the window closes (index [a - 1]) *)
  success : Q.t array;  (** [s_a = (1 - loss) * u_a] (index [a - 1]) *)
}

val latency_cdf : Eba_net.Link.latency -> cutoff:Q.t -> Q.t
(** [P(latency < cutoff)] under the exact-rational reading of the latency
    model's float parameters. *)

val spec : sync:Eba_net.Sync.t -> latency:Eba_net.Link.latency -> loss:Q.t -> spec
(** Raises [Invalid_argument] unless [0 <= loss < 1]. *)

val miss_after : spec -> int -> Q.t
(** [prod_{a <= k} (1 - s_a)]: probability a single message is still
    undelivered after its first [k] attempts ([1] for [k = 0]). *)

val per_message_miss : spec -> Q.t
(** [miss_after attempts]: the residual-miss probability after the whole
    retry budget. *)

val all_by : spec -> m:int -> k:int -> Q.t
(** [(1 - miss_after k)^m]: probability all [m] messages of the window
    land within their first [k] attempts. *)

val base_bits : spec -> int
(** The bit length of [prod_a den (1 - s_a)] ([0] when that product is 1,
    every base then being 0 or 1).  The denominator of every
    [miss_after k], so of q and of {!landing}'s common denominator,
    divides the product, and every base those powers raise is a ratio of
    integers at most it: an [e]-th power of them has at most
    [e * base_bits spec] bits.  Linear in [attempts]; no gcd. *)

val expected_undelivered : spec -> m:int -> Q.t
(** [m * per_message_miss]: expected misses per window. *)

type landing = {
  miss_after_attempt : Q.t array;
      (** index [k in 0..attempts]: [miss_after k], the running products
          computed once per landing *)
  all_by_attempt : Q.t array;
      (** index [k in 0..attempts]: [all_by ~m ~k] (exact) *)
  exactly_decimal : string array;
      (** index [k - 1]: decimal of [all_by k - all_by (k-1)], the
          probability the window's last copy lands on attempt [k] *)
  residual_decimal : string;
      (** decimal of [1 - all_by ~k:attempts]: some copy misses the
          window *)
}

val landing : ?sig_figs:int -> ?cancel:Eba_util.Cancel.t -> spec -> m:int -> landing
(** Distribution of the attempt on which the window's last copy lands.
    The [exactly]/[residual] masses are differences of huge same-scale
    powers, so they are rendered via {!Q.decimal_of_ratio} over one shared
    denominator [L^m] instead of materializing normalized rationals: [L]
    is the lcm of the small [miss_after k] denominators [d_k], so with
    [miss_after k = n_k / d_k], [all_by k = c_k / L^m] where
    [c_k = ((d_k - n_k) * L / d_k)^m].  Row [k] is [(c_k - c_(k-1)) / L^m]
    and the residual [(L^m - c_A) / L^m]: one small-base power per row,
    and no product of two huge denominators.  Requires [m >= 1].
    [cancel] is polled before each chain row (attempt); a fired token
    raises {!Eba_util.Cancel.Cancelled}. *)

val chain : spec -> m:int -> Q.t array array
(** [chain spec ~m] is the exact distribution of the undelivered-message
    count: row [k] (for [k in 0..attempts]) maps [j in 0..m] to the
    probability [j] messages remain undelivered after the window's first
    [k] attempts; row 0 is a point mass at [m].  O(m^2 * attempts)
    rational operations — the small-[m] ground truth. *)

val pp_spec : Format.formatter -> spec -> unit
