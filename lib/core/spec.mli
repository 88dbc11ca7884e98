(** The Byzantine-agreement specification (Section 2.1), checked over every
    run of a bounded model.

    The checks use the paper's conventions: "nonfaulty" means nonfaulty
    throughout the run, and the [decision] property is relative to the
    horizon (every nonfaulty processor must have decided by the last time
    of the model). *)

module Model = Eba_fip.Model
module Value = Eba_sim.Value

type report = {
  weak_agreement : bool;  (** no two nonfaulty processors decide differently *)
  agreement : bool;  (** all nonfaulty deciders decide the same value *)
  weak_validity : bool;
      (** unanimous initial value ⇒ every nonfaulty decider picks it *)
  validity : bool;  (** unanimous initial value ⇒ every nonfaulty decides it *)
  decision : bool;  (** every nonfaulty processor decides (by the horizon) *)
  simultaneity : bool;  (** nonfaulty decisions happen at one time *)
  unambiguous : bool;
      (** no possibly-nonfaulty processor's reachable view is in both
          decision sets (a processor that knows itself faulty satisfies
          [B^N_i] vacuously, so overlap there is benign) *)
  max_decision_time : int option;  (** latest nonfaulty decision, if any *)
}

val check : Kb_protocol.decisions -> report

val tally : Kb_protocol.decisions -> Eba_sim.Decision.tally
(** The tally of every run's {!Eba_sim.Decision.judge} verdict, the
    counts {!check} reads; an operational sweep of a protocol that
    implements the pair ({!Eba_protocols.Stats.exhaustive}) tallies the
    same decisions. *)

val is_nontrivial_agreement : report -> bool
(** Weak agreement + weak validity + no ambiguity (Section 2.1, 2' & 3'). *)

val is_eba : report -> bool
(** Decision + agreement + validity + no ambiguity. *)

val is_sba : report -> bool
(** EBA + simultaneity. *)

val pp : Format.formatter -> report -> unit
