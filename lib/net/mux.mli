(** The network simulation engine: the one event loop behind every
    sweep, replay and single run.

    Runs independent protocol instances — each with its own seed, initial
    configuration and adversary plan, all sharing one topology and
    synchronizer — in waves through a {e single} event loop over one
    shared {!Event_queue}; {!Netsim} runs a sweep with the multiplexing
    off as waves of one, and a single run or pattern replay as a
    one-instance engine.  Per-instance results are bit-identical across
    wave sizes, and to a reference engine kept in the test suite that
    runs one instance at a time with every event — boundary, delivery,
    acknowledgement, timer — its own heap cell.  Restricted to any one
    instance the processing order (and hence that instance's rng draw
    sequence) is exactly that reference's:

    - every event carries a sequence number from the one shared counter,
      and the loop processes strictly in global [(time, seqno)] order;
    - deterministic timers (round boundaries, retransmission ladders) live
      in a {!Timer_wheel} over the precomputed shared tick schedule instead
      of the heap, merged back by exact [(time, seqno)];
    - on a uniform constant-latency fabric, all copies landing at one
      (instance, instant) collapse into one batch cell and drain in append
      order — a reordering only of provably commuting events;
    - instance state (nodes, wire counters, timers, batch cells) recycles
      through arenas across waves, so steady-state allocation per run is
      near zero.

    Cross-instance interleaving never leaks between instances: instances
    share no mutable state, and the aggregate statistics are commutative
    sums.  The wave partition is a pure function of [(runs, live)], so
    sweeps are also independent of the parallel job count.

    Deterministic metrics: the per-run [net.*] counters (the same totals
    for every wave size), and [mux.timer_ticks],
    [mux.batched_deliveries], [mux.arena_reuses] (counters) and
    [mux.live_instances] (peak gauge), which depend on the wave size. *)

module Params = Eba_sim.Params

val auto_live : runs:int -> int
(** The default wave size when the caller asks for multiplexing without
    picking one ([--mux auto]): throughput on one core peaks near 16
    live instances and decays as the resident working set grows (the
    PR 8 measurement recorded in BENCH_PR8.json), so [auto_live] is 16
    clamped to [[1, runs]].  Results are bit-identical for every wave
    size — this only picks the fast one. *)

module Make (P : Eba_protocols.Protocol_intf.PROTOCOL) : sig
  type engine
  (** The reusable arena: one timer wheel, one event queue, [live]
      instance slots.  Create once, run any number of waves. *)

  val create :
    Params.t ->
    sync:Sync.t ->
    topology:Topology.t ->
    plan:Inject.plan ->
    live:int ->
    engine
  (** Raises [Invalid_argument] when the topology's latency bound does
      not fit the round window ({!Sync.check}), when the topology's width
      is not [params.n], or when the tick schedule is not strictly
      increasing (it always is for sane [rto]/[round_duration]). *)

  val run_wave :
    engine ->
    rng_of_run:(int -> Random.State.t) ->
    first:int ->
    count:int ->
    consume:(int -> Net_stats.outcome -> unit) ->
    unit
  (** Run instances [first .. first + count - 1] ([1 <= count <= live])
      concurrently through one event loop.  [rng_of_run run] must return
      a fresh generator for that run index (e.g. {!Netsim.run_seed});
      each instance draws its initial configuration from it, then its
      adversary.  [consume] is called once per instance in run order with
      an outcome bit-identical for every wave size; the outcome's wire
      record is recycled after the callback returns, so consume it, don't
      keep it. *)

  val run_one : engine -> rng:Random.State.t -> Eba_sim.Config.t -> Net_stats.outcome
  (** One instance from the caller's initial configuration, its adversary
      compiled from [rng] — a wave of one.  The outcome's wire record is
      the engine's and the next wave on this engine overwrites it. *)

  val sweep_state :
    ?jobs:int ->
    ?cancel:Eba_util.Cancel.t ->
    ?progress:(int -> unit) ->
    Params.t ->
    sync:Sync.t ->
    topology:Topology.t ->
    dynamic:Inject.dynamic ->
    rng_of_run:(int -> Random.State.t) ->
    live:int ->
    runs:int ->
    Net_stats.state
  (** [runs] instances in waves of [live], folded into one
      {!Net_stats.state} — {!Netsim.sweep}'s accumulation loop (the caller
      renders the summary, keeping identity strings in one place).  Waves are distributed over [jobs] with one
      engine per worker; the result is independent of [jobs].

      Validates like {!create} before the first wave.  [cancel] is
      polled once per wave: a fired token raises
      {!Eba_util.Cancel.Cancelled} out of the sweep within one wave per
      worker.  [progress] is called after each completed wave with the
      number of runs that wave finished (possibly from several domains
      concurrently — callers aggregate with an atomic). *)
end
