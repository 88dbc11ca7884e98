(** Model parameters: system size, resilience bound, failure mode and the
    time horizon of a bounded model. *)

type mode = Crash | Omission | General_omission
(** The paper's two failure modes — crash failures ([Crash]) and sending
    omission failures ([Omission]) — plus the [PT86] general omission mode
    ([General_omission], faulty processors may omit to receive as well as
    to send), which the paper explicitly leaves open and we support as an
    extension. *)

type t = private {
  n : int;  (** number of processors, [>= 2] *)
  t_failures : int;  (** resilience bound [t], [0 <= t < n] *)
  horizon : int;  (** last time of the bounded model; rounds are [1..horizon] *)
  mode : mode;
}

val make : n:int -> t:int -> horizon:int -> mode:mode -> t
(** Validates and builds a parameter record.  Raises [Invalid_argument] on
    nonsensical combinations ([n < 2], [t < 0], [t >= n], [horizon < 1],
    [n > 4096]).

    [n] may exceed [Bitset.max_width]: the network simulator runs the
    scale-safe operational protocols (those whose state does not pack
    processor sets into words) far beyond the enumerable sizes.  Anything
    that needs processor bitsets — patterns, universes, the model builder
    — still raises loudly past [Bitset.max_width]. *)

val pp_mode : Format.formatter -> mode -> unit
val pp : Format.formatter -> t -> unit

val procs : t -> int list
(** [[0; ...; n-1]]. *)

val times : t -> int list
(** [[0; ...; horizon]]. *)

val rounds : t -> int list
(** [[1; ...; horizon]]. *)
