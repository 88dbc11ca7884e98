(** The simulated network fabric: a full mesh of [n] processors whose
    directed links all share one {!Link.t} (one latency model, one loss
    rate). *)

type t

val make : n:int -> link:Link.t -> t
(** A full mesh on [n >= 2] processors. *)

val n : t -> int

val link : t -> Link.t
(** The link every ordered pair shares. *)

val latency_bound : t -> float
(** The link's {!Link.latency_bound} — what the synchronizer validates its
    round timing against. *)

val pp : Format.formatter -> t -> unit
