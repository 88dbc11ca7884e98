(** Bounded models, enumerated: the system ℛ of all runs of the
    full-information protocol for a parameter set.

    A {e run} is determined by an initial configuration and a failure
    pattern (Prop 2.2 makes full-information states independent of any
    decision function, so one enumerated model supports every decision
    pair).  A {e point} is a pair (run, time); points are densely numbered
    so the epistemic layer can work with flat bitsets over point ids.

    There is one builder, in two passes in the calling domain.  The walk
    streams the patterns canonically into one signature trie per faulty
    set; the tries bound the number of distinct views, so the intern pass
    allocates the store, the runs and the view rows once and extends views
    once per signature-prefix class rather than once per run, in the order
    a naive per-run simulation would allocate them.  The store, runs and
    rows are bit-identical to the naive simulation's, which the test suite
    keeps as the reference.

    The model keeps no view→points cells: the cell of a view [v] with
    owner [i] is the set of points [q] with [views.(q·n + i) = v], and the
    epistemic kernels reach it through the rows alone. *)

module Bitset = Eba_util.Bitset
module Value = Eba_sim.Value
module Config = Eba_sim.Config
module Params = Eba_sim.Params
module Pattern = Eba_sim.Pattern
module Universe = Eba_sim.Universe

type run = private {
  index : int;
  config : Config.t;
  pattern : Pattern.t;
  faulty : Bitset.t;
}

type t = private {
  params : Params.t;
  store : View.store;
  runs : run array;
  views : View.id array;
      (** point-indexed rows: [views.(point * n + proc)] is [proc]'s view at
          the point; a run's points are consecutive, so its rows are too *)
  by_key : (int, int list) Hashtbl.t Lazy.t;
      (** lazy (config, pattern)-hash -> run-index buckets for {!find_run} *)
}

val build :
  ?configs:Config.t list ->
  ?jobs:int ->
  Params.t ->
  t
(** Enumerates every (configuration, pattern) pair and simulates the
    full-information protocol under it.  [configs] defaults to all [2^n]
    configurations — restricting it changes the system runs are drawn from
    and hence what is known, which the tests use to check that fewer runs
    only create knowledge and that a restricted build matches the naive
    builder.  [jobs] has no effect: the build runs in the calling domain
    at every job count.  It is kept for source compatibility with callers
    that still pass it.

    The model's store keeps its interning index, so a view interned into
    it after the build (as an operational full-information run does)
    gets the model's id for it. *)

val nruns : t -> int
val npoints : t -> int
val horizon : t -> int
val n : t -> int

val point : t -> run:int -> time:int -> int
(** Dense point id; inverse of {!run_of_point} / {!time_of_point}. *)

val run_of_point : t -> int -> run
val run_index_of_point : t -> int -> int
val time_of_point : t -> int -> int

val view_at : t -> point:int -> proc:int -> View.id
(** [r_i(m)]: processor [proc]'s view at the point. *)

val view : t -> run:int -> time:int -> proc:int -> View.id

val nonfaulty : t -> run:int -> Bitset.t
(** The paper's 𝒩(r): processors that follow the protocol throughout. *)

val find_run : t -> config:Config.t -> pattern:Pattern.t -> run option
(** Locate the run with this configuration and pattern, if the model
    contains it (used to relate operational executions to semantic runs).
    Backed by a lazily built hash index, so repeated lookups cost O(bucket)
    rather than a scan of all runs. *)

val prepare_index : t -> unit
(** Force {!find_run}'s lazy index now.  A built model is immutable
    {e except} this suspension — forcing it in the owning domain makes
    the whole model safe to share across domains (the model cache does
    this before publishing an entry). *)

val iter_points : t -> (int -> unit) -> unit
val pp_stats : Format.formatter -> t -> unit
