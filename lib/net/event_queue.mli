(** A deterministic discrete-event scheduler: a binary min-heap of events
    keyed by [(time, seqno)].

    The sequence number is assigned by {!push} in call order, so two events
    scheduled for the same instant pop in the order they were pushed —
    simulation outcomes are a pure function of the push sequence, never of
    heap internals.  Times must be finite and non-negative. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> time:float -> 'a -> unit
(** Schedule an event.  Raises [Invalid_argument] if [time] is negative or
    not finite. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event; ties break by push order. *)

val peek_time : 'a t -> float option

val peek : 'a t -> (float * int) option
(** The earliest event's [(time, seqno)] without removing it — lets an
    external event source (the {!Mux} engine's timer wheel) merge against
    the heap by the exact scheduling key. *)

val reserve : 'a t -> int -> unit
(** [reserve q n] pre-sizes the heap for at least [n] events, so pushes up
    to that capacity never copy through the intermediate arrays of repeated
    doubling.  On an empty queue the allocation is deferred to the first
    push (cells are not nullable); otherwise it happens immediately.  Never
    shrinks.  Raises [Invalid_argument] on a negative capacity. *)

val clear : 'a t -> unit
(** Drop every scheduled event and restart sequence numbers from 0,
    keeping the allocated capacity — the reuse entry point for engines
    that run many simulations through one queue.  Payload references
    survive in the backing array until overwritten by later pushes. *)

val is_empty : 'a t -> bool
val size : 'a t -> int
(** Events currently scheduled. *)

val pushed : 'a t -> int
(** Total number of pushes so far (the next event's sequence number). *)

val alloc_seq : 'a t -> int
(** Consume and return the next sequence number without scheduling
    anything.  External event sources (the {!Mux} engine's timer wheel) key
    their entries with sequence numbers from the same counter as the heap,
    so merging the two streams by [(time, seqno)] reproduces exactly the
    order a single all-heap schedule would have produced. *)
