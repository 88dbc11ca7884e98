(** Failure patterns (Section 2.3): the complete faulty behaviour of every
    faulty processor in a run.

    A pattern only ever {e removes} messages that the protocol asks a
    processor to send; it never injects messages (crash and sending-omission
    modes are benign in that sense).

    Crash behaviours are canonicalized so that syntactically distinct
    patterns describe distinct in-horizon behaviours: a crash in round
    [k <= horizon] must deliver a {e strict} subset of the required round-[k]
    messages (delivering all of them is the same in-horizon behaviour as
    crashing a round later), and a crash after the horizon is represented as
    the [clean] behaviour — the processor is faulty but exhibits no failure
    before the end of the model.  Such "faulty but in-horizon clean" runs are
    genuine runs of the paper's systems and matter for what processors can
    consider possible. *)

module Bitset = Eba_util.Bitset

type crash = private {
  crash_proc : int;
  crash_round : int;  (** [1..horizon], or [horizon+1] for in-horizon clean *)
  crash_recipients : Bitset.t;
      (** receivers of the round-[crash_round] messages; [empty] when clean *)
}

type omission = private {
  om_proc : int;
  om_omits : Bitset.t array;  (** [om_omits.(k-1)] = receivers omitted in round [k] *)
}

type general = private {
  g_proc : int;
  g_send : Bitset.t array;  (** receivers not sent to, per round *)
  g_recv : Bitset.t array;  (** senders not received from, per round *)
}
(** A [PT86] general-omission behaviour (extension beyond the paper). *)

type behaviour = Crashes of crash | Omits of omission | General of general

type t
(** A failure pattern: a set of faulty processors with their behaviours. *)

val crash : horizon:int -> proc:int -> round:int -> recipients:Bitset.t -> behaviour
(** Raises [Invalid_argument] if [round] is outside [1..horizon+1] or [proc]
    is in [recipients].  The canonical-form discipline from the module
    description is enforced by the enumerators in {!module:Universe}, which
    only generate strict-subset crash deliveries. *)

val clean_crash : horizon:int -> proc:int -> behaviour
(** A crash-mode faulty processor that fails only after the horizon. *)

val omission : horizon:int -> proc:int -> omits:Bitset.t array -> behaviour
(** Raises [Invalid_argument] if [omits] has length [<> horizon] or some
    omission set contains [proc]. *)

val general :
  horizon:int -> proc:int -> send:Bitset.t array -> recv:Bitset.t array -> behaviour
(** General-omission behaviour; a sending-only omitter ([Omits]) is also
    accepted by {!make} in [General_omission] mode. *)

val make : Params.t -> behaviour list -> t
(** Builds a pattern.  Checks: behaviours match the failure mode, processors
    are distinct and in range, and at most [t] processors are faulty. *)

val failure_free : Params.t -> t
(** The pattern with no faulty processor. *)

val faulty : t -> Bitset.t
(** The set of faulty processors (faulty anywhere in the run, which is the
    paper's notion of nonfaulty-throughout complement). *)

val behaviours : t -> behaviour list

val delivers : t -> round:int -> sender:int -> receiver:int -> bool
(** Whether a message the protocol requires [sender] to send to [receiver]
    in [round] is actually delivered.  [round] must lie in [1..horizon] —
    the rounds the pattern describes; anything else raises
    [Invalid_argument] (all failure kinds agree on this, where they used to
    answer inconsistently past the horizon). *)

val round_signature : n:int -> behaviour -> round:int -> Bitset.t * Bitset.t
(** [(send_omit, recv_omit)]: the receivers (other than the processor
    itself) that its round-[round] messages fail to reach through its own
    fault, and the senders whose round-[round] messages it refuses to
    accept.  Together with "nonfaulty processors omit nothing" this
    determines {!delivers} for the round, so behaviours with equal
    signatures on rounds [1..k] are indistinguishable through time [k] —
    the grouping invariant behind [Model.build]'s signature trie.  [n] is
    the system size (behaviours do not record it).  Raises
    [Invalid_argument] on rounds outside the behaviour's horizon. *)

val crashed_before : t -> proc:int -> round:int -> bool
(** Crash mode only: has [proc] crashed strictly before [round] (so it sends
    nothing at all in [round])? *)

val num_failures : t -> int
(** The paper's [f]: how many processors actually exhibit a failure within
    the horizon (in-horizon clean faulty processors do not count). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
