(** Decisions, and what the agreement specification says of them.

    A processor's decision is the first value it outputs and the time it
    did.  {!judge} reads one run's decisions over its nonfaulty processors
    against the specification of Section 2.1 — agreement, validity,
    decision, and simultaneity for SBA — and a {!tally} sums the verdicts
    of many runs.  The semantic checker, the lockstep sweeps and the
    network sweeps all judge their runs here.

    Every tally count is an exact integer sum or max, so tallies folded
    on separate domains merge to the sequential totals bit for bit. *)

type t = { at : int; value : Value.t }
(** Decided [value] at time [at]: the end of round [at], or [0] before
    the first round. *)

type verdict = {
  disagreement : bool;  (** two nonfaulty processors decided differently *)
  invalid : bool;
      (** every processor started with the same value and a nonfaulty
          one decided the other *)
  undecided : int;  (** nonfaulty processors without a decision *)
  decided : int;  (** nonfaulty processors with one *)
  time_sum : int;  (** the sum of their decision times *)
  time_max : int;  (** the latest of them; [0] when none decided *)
  simultaneous : bool;  (** every nonfaulty decision was made at one time *)
}

val judge :
  faulty:(int -> bool) ->
  unanimous:Value.t option ->
  t option array ->
  pos:int ->
  n:int ->
  verdict
(** [judge ~faulty ~unanimous decisions ~pos ~n] judges the run in which
    processor [i < n] decided [decisions.(pos + i)] ([None]: never),
    [faulty i] holds of its faulty processors and [unanimous] is the
    initial value every processor started with, if there is one.  It
    allocates nothing per processor. *)

type tally = {
  mutable runs : int;
  mutable agreement_violations : int;  (** runs with a disagreement *)
  mutable validity_violations : int;  (** runs with an invalid decision *)
  mutable undecided_nonfaulty : int;
  mutable decided_nonfaulty : int;
  mutable round_sum : int;  (** of the nonfaulty decision times *)
  mutable round_max : int;  (** [0] when nothing decided *)
  mutable attempted : int;  (** protocol messages asked to be sent *)
  mutable delivered : int;  (** ... and delivered *)
  mutable bytes_attempted : int;
      (** the lockstep runner's wire bytes of those messages; the network
          simulator counts its bytes per copy instead, in its wire record *)
  mutable bytes_delivered : int;
}

val tally : unit -> tally
(** All zero. *)

val add : tally -> verdict -> unit
(** Count one run and its verdict (not its messages). *)

val merge : tally -> tally -> unit
(** [merge into from] adds [from]'s counts to [into]'s. *)

val mean_round : tally -> float
(** [round_sum / decided_nonfaulty], and exactly [0.0] when nothing
    decided (the {e empty-mean convention}: never NaN, so a summary's
    JSON stays RFC 8259-valid). *)
