(** A deterministic discrete-event scheduler: a binary min-heap of events
    keyed by [(time, seqno)].

    The sequence number is assigned by {!push} in call order, so two events
    scheduled for the same instant are taken in the order they were pushed
    — simulation outcomes are a pure function of the push sequence, never
    of heap internals.  Times must be finite and non-negative.

    An event's payload is an [int]: a handle the caller resolves in
    storage of its own ({!Mux} keeps each event's fields in
    struct-of-arrays columns indexed by handle).  With no pointer in the
    heap, a sift writes only floats and ints, so it never passes through
    the GC's write barrier.

    Layout: struct of arrays.  Slot [k] of the heap is [eq_times.(k)] (an
    unboxed [float array]), [eq_seqs.(k)] and [eq_pay.(k)], for
    [k < eq_len]; sifts move a hole, copying one triple per level.  The
    queue allocates nothing per event beyond amortized growth.

    The record is [private] so the engine ({!Mux}) reads the top's key in
    place, [eq_times.(0)] and [eq_seqs.(0)] when [eq_len > 0], to merge
    against its timer wheel.  The dev profile compiles with [-opaque], so
    nothing is inlined across modules: an accessor function returning the
    top time would box a float (and a [(time, seqno)] option a tuple and
    an option) on every step of the loop, where a field read allocates
    nothing. *)

type t = private {
  mutable eq_times : float array;
  mutable eq_seqs : int array;
  mutable eq_pay : int array;  (** slots at and past [eq_len] are spare *)
  mutable eq_len : int;  (** events currently scheduled *)
  mutable eq_next_seq : int;  (** the next sequence number *)
}

val create : unit -> t

val push : t -> time:float -> int -> unit
(** Schedule an event.  Raises [Invalid_argument] if [time] is negative or
    not finite. *)

val take : t -> int
(** Remove the earliest event and return its payload; ties break by push
    order.  Read its time and sequence number first, from [eq_times.(0)]
    and [eq_seqs.(0)].  Raises [Invalid_argument] on an empty queue. *)

val clear : t -> unit
(** Drop every scheduled event and restart sequence numbers from 0,
    keeping the allocated capacity — the reuse entry point for engines
    that run many simulations through one queue. *)

val is_empty : t -> bool

val alloc_seq : t -> int
(** Consume and return the next sequence number without scheduling
    anything.  The {!Mux} engine keys its timer wheel's entries and its
    acknowledgement records with sequence numbers from the same counter
    as the heap, so comparing by [(time, seqno)] reproduces exactly the
    order a single all-heap schedule would have produced. *)
