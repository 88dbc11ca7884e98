(** Workload harness for operational protocols: execute a protocol over a
    set of (configuration, pattern) pairs and aggregate specification
    checks and decision-time statistics.

    This is what the benchmark tables are built from: exhaustive universes
    for the small models cross-validated against the semantic layer, and
    sampled universes for large [n]. *)

module Params = Eba_sim.Params
module Config = Eba_sim.Config
module Pattern = Eba_sim.Pattern

(** Where a summary's workload came from — enough to regenerate it
    exactly.  Sampled summaries carry their seed and a printed universe
    description, so any sampled number in EXPERIMENTS.md or a benchmark
    artifact can be reproduced with the recorded [(seed, samples,
    universe)] triple. *)
type source =
  | Exhaustive_universe of { universe : string }
  | Sampled_universe of { seed : int; samples : int; universe : string }

type summary = {
  protocol : string;
  tally : Eba_sim.Decision.tally;
      (** every run's verdict and messages; the mean decision time is
          {!Eba_sim.Decision.mean_round} of it *)
  by_failures : (int * Eba_sim.Decision.tally) list;
      (** the runs in which [f] processors exhibit a failure, for each
          [f] that has some, ascending *)
  source : source;
}

val exhaustive :
  ?jobs:int ->
  ?cancel:Eba_util.Cancel.t ->
  (module Protocol_intf.PROTOCOL) ->
  Params.t ->
  summary
(** Every configuration × every pattern of the universe, streamed from
    {!Eba_sim.Universe.workload_seq} and never materialized.  The runs
    are distributed over [jobs] domains (see {!Eba_util.Parallel} for how
    the count is resolved); each domain folds into private tallies, and
    the tallies merge in a fixed order, so the summary is bit-identical
    for every job count.

    [cancel] is polled before each run: once fired, the sweep raises
    {!Eba_util.Cancel.Cancelled} within one run per domain.  An un-fired
    token changes nothing — same summary, same metrics. *)

val sampled :
  ?jobs:int ->
  ?cancel:Eba_util.Cancel.t ->
  (module Protocol_intf.PROTOCOL) ->
  Params.t ->
  seed:int ->
  samples:int ->
  summary
(** [samples] random configurations and patterns, drawn in sequence from
    [seed], so the workload is the same for every [jobs]; the runs are
    distributed, merged and cancelled as in {!exhaustive}. *)

val pp : Format.formatter -> summary -> unit
val pp_source : Format.formatter -> source -> unit
val pp_table_row : Format.formatter -> summary -> unit
val pp_table_header : Format.formatter -> unit -> unit

val source_json : source -> Eba_util.Json.t
(** [{"kind": ...}] plus the seed/samples/universe of sampled sources. *)

val summary_json : summary -> Eba_util.Json.t
(** Schema-stable object: every count an integer (including the byte
    totals), the means finite floats under the empty-mean convention, the
    per-failure breakdown as a list, and the {!source_json} identity (an
    exhaustive source keeps its ["flavour": "exhaustive"] key). *)
