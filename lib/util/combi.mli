(** Combinatorial enumeration helpers used by the adversary universes.

    With the processor cap at 4096, the closed-form universe counts leave
    the native int range early (2^62 behaviours at n = 63 crash); every
    counting function here raises {!Overflow} instead of silently wrapping
    to garbage or negative values. *)

exception Overflow
(** Raised by {!add_exn}, {!mul_exn}, {!pow} and {!choose} when a result
    (or, for [choose], an intermediate product) does not fit in a native
    [int]. *)

val cartesian : 'a list list -> 'a list list
(** [cartesian [l1; ...; lk]] is the list of all [k]-tuples (as lists)
    drawing the [i]-th component from [li], in lexicographic order.
    [cartesian []] is [[[]]]. *)

val cartesian_seq : 'a list list -> 'a list Seq.t
(** {!cartesian} as a lazy sequence, in the same lexicographic order, so
    huge products can be consumed without ever being materialized.  The
    sequence is persistent: it may be re-traversed (tails are recomputed). *)

val add_exn : int -> int -> int
(** Checked addition of non-negative ints.  Raises {!Overflow} on wrap. *)

val mul_exn : int -> int -> int
(** Checked multiplication of non-negative ints.  Raises {!Overflow} on
    wrap. *)

val choose : int -> int -> int
(** Binomial coefficient [choose n k]; 0 when [k < 0] or [k > n].  Raises
    {!Overflow} when an intermediate product exceeds [max_int] (slightly
    conservative: the running product stays within a factor [k] of the
    result). *)

val pow : int -> int -> int
(** Integer exponentiation.  Raises [Invalid_argument] on negative
    exponents and {!Overflow} when the result exceeds [max_int]. *)
