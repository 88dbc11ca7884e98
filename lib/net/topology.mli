(** The simulated network fabric: a full mesh of [n] processors with a
    directed {!Link.t} per ordered pair.

    Built uniform (every link shares one latency model and loss rate) with
    optional per-link overrides, so heterogeneous fabrics — one slow
    processor, one congested edge — are a couple of [with_link] calls. *)

type t

val make : n:int -> link:Link.t -> t
(** A uniform full mesh on [n >= 2] processors. *)

val with_link : t -> src:int -> dst:int -> Link.t -> t
(** Functional override of one directed link.  Raises [Invalid_argument]
    on out-of-range endpoints or [src = dst] (there is no self link). *)

val n : t -> int
val link : t -> src:int -> dst:int -> Link.t

val uniform_link : t -> Link.t option
(** The one link every pair shares, when no override was applied — the
    condition under which the engine ({!Mux}) may batch same-instant
    arrivals (a single latency model governs every copy). *)

val latency_bound : t -> float
(** The largest {!Link.latency_bound} over every link — what the
    synchronizer validates its round timing against. *)

val pp : Format.formatter -> t -> unit
