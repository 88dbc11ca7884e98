(** The discrete-event network simulator's front door.  Every run — a
    sweep's, a single [run_one], a pattern [replay] — executes on the one
    engine, {!Mux}, one instance at a time: a sweep on one engine per
    worker domain, recycled across its runs, a single run on a fresh
    engine.

    A run is a pure function of [(params, config, sync, topology, plan,
    rng)]: every random choice — adversary compilation, per-copy latency
    and loss, dynamic omissions — is drawn from the given seeded state in
    event order, and simultaneous events resolve by scheduling order
    ({!Event_queue}).  Re-running with an equally-seeded state reproduces
    the outcome bit for bit, which the qcheck determinism properties pin.

    Execution model: the {!Sync.t} round windows drive {!Node} adapters
    over the {!Topology.t} fabric.  At each window's start every live node
    transmits its round messages; unacknowledged copies retransmit every
    [rto] until the retry budget or the window runs out; at the window's
    close each node ingests what arrived and steps.  {!Inject} drops
    copies (replayed patterns, dynamic omissions), kills nodes outright
    (dynamic crashes), or severs links (transient partitions).

    Under a loss-free topology replaying a pattern, per-round deliveries —
    and hence decisions and message counts — are exactly the lockstep
    {!Eba_protocols.Runner}'s; the differential suite checks this
    point-for-point over exhaustive universes. *)

module Params = Eba_sim.Params
module Config = Eba_sim.Config
module Pattern = Eba_sim.Pattern

val lossless_topology : n:int -> Topology.t
(** Unit constant latency, zero loss — the replay fabric. *)

val run_seed : seed:int -> run:int -> Random.State.t
(** The per-run generator of a sweep: a fixed mix of the master seed and
    the run index, so a run's randomness is independent of how runs are
    distributed over domains. *)

module Make (P : Eba_protocols.Protocol_intf.PROTOCOL) : sig
  val run_one :
    Params.t ->
    sync:Sync.t ->
    topology:Topology.t ->
    plan:Inject.plan ->
    rng:Random.State.t ->
    Config.t ->
    Net_stats.outcome
  (** Simulate one run on a fresh {!Mux} engine.  Raises
      [Invalid_argument] when the topology's latency bound does not fit
      the round window ({!Sync.check}) or its width is not [params.n]. *)

  val replay :
    ?sync:Sync.t -> Params.t -> Pattern.t -> Config.t -> Net_stats.outcome
  (** [run_one] over the {!lossless_topology} with a fresh dummy rng —
      the deterministic pattern-replay entry point the differential tests
      compare against {!Eba_protocols.Runner.Make.run}. *)
end

val sweep :
  ?jobs:int ->
  ?mux:int ->
  ?cancel:Eba_util.Cancel.t ->
  ?progress:(done_:int -> total:int -> unit) ->
  (module Eba_protocols.Protocol_intf.PROTOCOL) ->
  Params.t ->
  sync:Sync.t ->
  topology:Topology.t ->
  dynamic:Inject.dynamic ->
  seed:int ->
  runs:int ->
  Net_stats.summary
(** A sampled workload: [runs] independent runs, each with a uniformly
    random initial configuration and a freshly compiled dynamic adversary,
    distributed over [jobs] domains ({!Eba_util.Parallel}).  Per-run
    generators come from {!run_seed} and the accumulators are exact
    integers, so the summary is bit-identical for every job count.

    [mux] is a legacy wave size: runs execute one at a time whatever it
    is, so the summary does not depend on it.  Raises [Invalid_argument]
    when it is below 1.

    [cancel] is a cooperative token polled once per run: once fired, the
    sweep raises {!Eba_util.Cancel.Cancelled} within one run per domain.
    [progress] is called after each completed run with the cumulative
    count of finished runs and the total; calls may arrive
    from worker domains concurrently and [done_] is not guaranteed
    monotone across racing calls — throttle and order on the consumer
    side.  Both default off and cost nothing when absent. *)
