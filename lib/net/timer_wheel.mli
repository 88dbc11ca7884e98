(** A hierarchical-schedule timer wheel for the simulation engine
    ({!Mux}).

    The synchronizer configuration fixes every instant at which a round
    boundary or retransmission timer can fire: a {e precomputed} set of
    instants, the tick schedule.  The wheel stores one append-ordered slot
    per tick, so arming a timer is an array append and firing a slot
    drains it front to back: no heap sifts for timer events, leaving the
    heap to latency-randomized deliveries.

    An entry is an [int] payload (a handle into the engine's timer
    columns) and a sequence number drawn from the same counter as the
    event heap ({!Event_queue.alloc_seq}).  Appends to a slot happen in
    processing order, so a slot's sequence numbers are strictly
    increasing; draining front to back while merging against the heap by
    exact [(time, seqno)] therefore reproduces the event order a pure-heap
    schedule would have produced, bit for bit.

    The cursor advances monotonically; {!reset} rewinds it and empties
    every slot while keeping the slot arrays — the arena-reuse hook for
    running many simulated runs through one wheel.

    The record is [private], like {!Event_queue.t}'s, so the engine's
    merge loop reads the cursor slot's instant and head in place: under
    [-opaque] an accessor would box the float instant and wrap the head
    in an option on every step. *)

type t = private {
  tw_times : float array;
      (** the tick schedule: slot [k] fires at [tw_times.(k)] *)
  tw_len : int array;  (** entries scheduled into each slot *)
  tw_next : int array;
      (** entries already drained from each slot: the cursor slot's head
          is [tw_seqs.(c).(tw_next.(c))] while [tw_next.(c) < tw_len.(c)] *)
  tw_seqs : int array array;
  tw_pay : int array array;
  mutable tw_cursor : int;
      (** the slot currently draining; [Array.length tw_times] once the
          wheel is exhausted *)
}

val create : times:float array -> t
(** [create ~times] builds a wheel over the given tick schedule.  Raises
    [Invalid_argument] unless [times] is strictly increasing, finite and
    non-negative.  The array is copied. *)

val index_of_time : t -> float -> int
(** The tick at precisely this float instant — [-1] when the instant is
    not a tick.  Fire times computed by the same float arithmetic as the
    schedule always hit.  The slot after the cursor, where a timer armed
    at a boundary or re-armed from the cursor slot lands, is tried first;
    any other instant is found by exact binary search. *)

val schedule : t -> tick:int -> seq:int -> int -> unit
(** Append an entry to a slot.  Raises [Invalid_argument] for a slot
    before the cursor or past the end. *)

val take : t -> int
(** Remove and return the cursor slot's head.  Raises [Invalid_argument]
    when the cursor slot is drained or the wheel exhausted. *)

val advance : t -> unit
(** Move the cursor to the next slot.  Raises [Invalid_argument] unless
    the current slot is fully drained. *)

val reset : t -> unit
(** Empty every slot and rewind the cursor, keeping allocated slot
    capacity. *)
