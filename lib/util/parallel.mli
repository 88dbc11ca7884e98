(** A chunked domain pool for data-parallel sweeps on OCaml 5.

    The exhaustive experiments are embarrassingly parallel folds over very
    large enumerations; this module runs such folds over [jobs] domains with
    per-domain accumulators merged in a fixed order.  Every combining
    operation the engine uses is an exact integer sum or max, so results are
    bit-identical for every job count, and when the effective job count is 1
    nothing is spawned at all — the fold runs sequentially in the caller.

    The job count is resolved, in order of precedence, from the [?jobs]
    argument of a call, the last {!set_jobs} override (the [--jobs] flag),
    the [EBA_DOMAINS] environment variable ([0] meaning {!available}), and
    finally a default of 1. *)

val available : unit -> int
(** Domains the hardware can usefully run ({!Domain.recommended_domain_count}). *)

val jobs : unit -> int
(** The currently effective job count. *)

val set_jobs : int -> unit
(** Override the job count process-wide; [0] clears the override so
    [EBA_DOMAINS] (or the default of 1) applies again.  Raises
    [Invalid_argument] on negative counts. *)

val with_jobs : int -> (unit -> 'a) -> 'a
(** [with_jobs j f] runs [f] with the override set to [j], restoring the
    previous override afterwards (also on exceptions). *)

val map_reduce_seq :
  ?jobs:int ->
  ?chunk:int ->
  init:(unit -> 'acc) ->
  fold:('acc -> 'a -> unit) ->
  merge:('acc -> 'acc -> unit) ->
  'a Seq.t ->
  'acc
(** [map_reduce_seq ~init ~fold ~merge seq] folds every element of [seq]
    into an accumulator.  Each worker owns a private accumulator from
    [init]; elements are pulled from [seq] in chunks of [?chunk] (default
    64) under a lock, so the sequence itself is only ever forced by one
    domain at a time; [merge acc other] folds a worker's accumulator into
    the first one, called in a fixed order after all workers join.
    [fold]/[merge] mutate their first argument in place. *)
