(** The network simulation engine: the one event loop behind every
    sweep, replay and single run.

    Runs one protocol instance at a time — its own seed, initial
    configuration and adversary plan, over a topology and synchronizer
    fixed per engine — and recycles the engine across runs: a sweep keeps
    one engine per worker domain, a single run or pattern replay builds
    a fresh one.  Outcomes are bit-identical to a reference engine kept in
    the test suite, which gives every event — boundary, delivery,
    acknowledgement, timer — its own heap cell.  The processing order (and
    hence the rng draw sequence) is exactly that reference's:

    - every event carries a sequence number from one counter, and the
      loop processes strictly in global [(time, seqno)] order;
    - deterministic timers (round boundaries, retransmission ladders) live
      in a {!Timer_wheel} over the precomputed tick schedule instead of
      the heap, merged back by exact [(time, seqno)]; the schedule holds
      every instant a timer can be armed at, so none rides the heap;
    - an acknowledgement is node state, not an event: its loss and
      latency are drawn when it is sent, and its arrival key [(time,
      seqno)] is recorded in the data sender's {!Node} at once, where
      each later retransmission timer compares it with its own key — all
      the reference's ack cell would have done;
    - on a constant-latency link, all data copies landing at
      one instant collapse into one batch cell and drain in append order
      — a reordering only of provably commuting events;
    - the heap and the wheel carry [int] handles into a struct-of-arrays
      slab of the deliveries', timers' and batches' fields, with an int
      free stack, so no event allocates a record and a sift never passes
      the GC's write barrier;
    - run state (nodes, wire counters, the slab, batch cells) recycles
      across runs, and each step of the loop reads the heap top's and the
      wheel head's keys in place, allocating nothing to choose the next
      event.  What a run still allocates per event is a boxed float
      wherever an instant crosses a call and the protocol's own
      messages: ≈ 11 minor words per processed event on a
      uniform-latency FloodSet n=16 sweep (≈ 16 with a record per
      in-flight copy or ack).

    Deterministic metrics: the per-run [net.*] counters, and
    [mux.timer_ticks], [mux.batched_deliveries] and [mux.arena_reuses].
    [net.events_processed] counts an ack when it is recorded, so it equals
    the reference's count of processed heap cells.
    [mux.batched_deliveries] counts data copies only, since acks no longer
    ride batches: FloodSet n=16 t=5 on const:1 with loss 0.05, 50 runs at
    seed 8128, reads 49,247 (80,835 when batches also held acks), and the
    benchmark's per-layer [mux.batched_share] reads ≈ 1.46 where it read
    ≈ 2.46.  [mux.arena_reuses] no longer counts the batches that held
    only acks (50,705 against 51,159 on the same sweep). *)

module Params = Eba_sim.Params

module Make (P : Eba_protocols.Protocol_intf.PROTOCOL) : sig
  type engine
  (** The reusable arena: one timer wheel, one event queue, one event
      slab, one run's nodes.  Create once, run any number of times. *)

  val create :
    Params.t ->
    sync:Sync.t ->
    topology:Topology.t ->
    plan:Inject.plan ->
    engine
  (** Raises [Invalid_argument] when the topology's latency bound does
      not fit the round window ({!Sync.check}), when the topology's width
      is not [params.n], or when the tick schedule is not strictly
      increasing (it always is for sane [rto]/[round_duration]). *)

  val run_one : engine -> rng:Random.State.t -> Eba_sim.Config.t -> Net_stats.outcome
  (** One run from the caller's initial configuration, its adversary
      compiled from [rng] after whatever the caller already drew from it.
      The outcome's wire record is the engine's, and the next run on this
      engine overwrites it: consume it, don't keep it. *)

  val sweep_state :
    ?jobs:int ->
    ?cancel:Eba_util.Cancel.t ->
    ?progress:(unit -> unit) ->
    Params.t ->
    sync:Sync.t ->
    topology:Topology.t ->
    dynamic:Inject.dynamic ->
    rng_of_run:(int -> Random.State.t) ->
    runs:int ->
    Net_stats.state
  (** [runs] runs folded into one {!Net_stats.state} — {!Netsim.sweep}'s
      accumulation loop (the caller renders the summary, keeping identity
      strings in one place).  [rng_of_run run] must return a fresh
      generator for that run index (e.g. {!Netsim.run_seed}); each run
      draws its initial configuration from it, then its adversary.  Runs
      are distributed over [jobs] with one engine per worker; the result
      is independent of [jobs].

      Validates like {!create} before the first run.  [cancel] is polled
      once per run: a fired token raises {!Eba_util.Cancel.Cancelled} out
      of the sweep within one run per worker.  [progress] is called after
      each completed run (possibly from several domains concurrently —
      callers aggregate with an atomic). *)
end
