(** Telemetry for the network simulator: per-run outcomes and their
    aggregation into sweep summaries.

    Every accumulated quantity is an exact integer count, sum or max
    (simulated times are tracked in integer nanoseconds), so merging
    per-domain accumulators reproduces a sequential sweep bit for bit
    whatever the job count.  Each run is judged by
    {!Eba_sim.Decision.judge} over the processors its adversary did
    {e not} make faulty and counted in a {!Eba_sim.Decision.tally}, as in
    the lockstep harness {!Eba_protocols.Stats}. *)

module Value = Eba_sim.Value
module Decision = Eba_sim.Decision
module Json = Eba_util.Json

val ns_of_seconds : float -> int
(** Round a simulated duration in seconds to integer nanoseconds — the
    exact representation every accumulator uses. *)

val hist_buckets : int
(** Number of latency histogram buckets (copies binned by fraction of the
    round window: bucket [i] holds latencies in
    [[i/16, (i+1)/16) * round_duration], the last bucket catching
    everything slower). *)

type wire = {
  mutable w_copies : int;  (** data copies put on the wire, retransmits included *)
  mutable w_retransmissions : int;
  mutable w_acks : int;  (** acknowledgement copies put on the wire *)
  mutable w_dropped_fault : int;  (** suppressed by the injected adversary *)
  mutable w_dropped_loss : int;  (** data and ack copies lost to link loss *)
  mutable w_dropped_cut : int;
      (** data and ack copies severed by a transient partition *)
  mutable w_late : int;  (** data copies arriving after their round closed *)
  mutable w_duplicates : int;  (** redelivery of an already-received message *)
  mutable w_to_dead : int;  (** copies arriving at a crashed node *)
  mutable w_data_bytes : int;
      (** exact {!Eba_protocols.Protocol_intf.PROTOCOL.wire_size} total of
          every data copy put on the wire, retransmits included — dropped
          copies count (they were transmitted), like {!w_copies} *)
  mutable w_ack_bytes : int;  (** ... of every acknowledgement copy *)
  mutable w_delivered_bytes : int;
      (** ... of the fresh deliveries only (duplicates and late excluded) *)
  mutable w_latency_ns_sum : int;  (** over in-flight data copies *)
  mutable w_latency_ns_max : int;
  w_latency_hist : int array;
      (** length {!hist_buckets}, over in-flight data copies: its total
          is their count *)
}

val fresh_wire : unit -> wire

val wire_reset : wire -> unit
(** Zero every field in place (histogram included) — the arena-reuse hook
    for engines that recycle one [wire] record across simulations. *)

type outcome = {
  o_decisions : Decision.t option array;
      (** first output per processor, [at] in rounds — comparable to the
          lockstep runner's trace *)
  o_decision_sim_ns : int option array;  (** the simulated instant of it *)
  o_faulty : bool array;  (** processors the adversary made faulty *)
  o_unanimous : Value.t option;  (** the run's initial values, if all equal *)
  o_attempted : int;  (** protocol messages requested (not copies) *)
  o_delivered : int;  (** protocol messages that reached their destination *)
  o_wire : wire;
}

type state
(** A mergeable sweep accumulator. *)

val fresh_state : unit -> state
val consume : state -> outcome -> unit
val merge : state -> state -> unit
(** [merge into from] folds [from] into [into]. *)

type summary = {
  ns_protocol : string;
  ns_params : string;
  ns_seed : int;
  ns_plan : string;
  ns_topology : string;
  ns_sync : string;
      (** with the seed, everything needed to regenerate the sweep *)
  ns_runs : int;
  ns_agreement_violations : int;
  ns_validity_violations : int;
  ns_undecided_nonfaulty : int;
  ns_decided_nonfaulty : int;
  ns_decision_round_sum : int;  (** exact, for bit-identical comparisons *)
  ns_mean_decision_round : float;
      (** empty-mean convention: [0.0] when nothing decided, never NaN *)
  ns_max_decision_round : int;
  ns_decision_ns_sum : int;
  ns_mean_decision_ns : float;  (** same convention *)
  ns_max_decision_ns : int;
  ns_attempted : int;
  ns_delivered : int;
  ns_wire : wire;
  ns_faulty_runs : int;  (** runs where the adversary made someone faulty *)
  ns_round_hist : int array;
      (** decision-round histogram over nonfaulty decided processors:
          bucket [r] counts decisions whose [at] was round [r], trimmed to
          the last nonzero bucket ([[||]] when nothing decided).  Exact
          counts — the source of the latency quantiles. *)
}

val summary_of_state :
  protocol:string ->
  params:string ->
  seed:int ->
  plan:string ->
  topology:string ->
  sync:string ->
  state ->
  summary

val quantile_decision_round : summary -> permille:int -> int
(** The smallest round [r] such that at least [permille / 1000] of the
    nonfaulty decisions happened by round [r] (exact integer arithmetic);
    [0] when nothing decided.  Raises [Invalid_argument] outside
    [[0, 1000]]. *)

val p99_decision_round : summary -> int
(** [quantile_decision_round ~permille:990] — the headline tail-latency
    round.  Decisions land exactly at round boundaries, so the simulated
    p99 decision latency is this round times the sync round duration. *)

val pp : Format.formatter -> summary -> unit

val summary_json : summary -> Json.t
(** Schema-stable object: identity fields as strings, every count as an
    integer — what [eba netsim --json] writes and a served
    [netsim-sweep] returns. *)
