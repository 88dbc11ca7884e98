(** Arbitrary-precision signed integers, dependency-free.

    Sign-magnitude representation over base-2^30 limbs so that limb
    products fit comfortably in OCaml's 63-bit native [int]; no [zarith].
    Values are immutable and canonical: the magnitude carries no leading
    zero limbs and the zero value has an empty magnitude, so structural
    equality coincides with numeric equality.

    Sized for the probability engine ({!Eba_prob}): products and squares
    are schoolbook up to {!karatsuba_threshold} limbs and subtractive
    Karatsuba above it, on slices of one result array and one scratch
    buffer that each top-level call allocates for itself (no recursion
    level allocates, and no buffer is shared, so domains may multiply
    concurrently).  A product whose shorter operand has at most half the
    longer one's limbs cuts the longer one into slices of the shorter
    one's length.  Division is Knuth's Algorithm D — whose cost is
    proportional to quotient limbs times divisor limbs, i.e. cheap in the
    engine's dominant use (reducing a huge numerator by a huge, same-size
    denominator to a handful of quotient digits). *)

type t = private {
  sign : int;  (** [-1], [0] or [1] *)
  mag : int array;
      (** the magnitude's base-2^30 limbs, least significant first, with no
          leading zero limb *)
}
(** [private], so that the magnitude can be read (the test oracle checks
    the kernels limb by limb) but no value is built outside this module.
    Treat [mag] as read-only. *)

val karatsuba_threshold : int
(** 40: the operand length in limbs above which products and squares
    split. *)

val zero : t
val one : t
val of_int : int -> t
(** Total, including [min_int]. *)

val to_int_opt : t -> int option
(** [Some n] iff the value fits a native [int]. *)

val sign : t -> int
(** [-1], [0] or [1]. *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val pow : t -> int -> t
(** [pow b e], left to right over the bits of [e]: square the
    accumulator, and on each set bit multiply it by the base.  The
    engine's bases are one or two limbs, so those multiplies are a linear
    schoolbook pass; the squarings use the dedicated square (schoolbook
    computing each cross product once, Karatsuba's three half-size
    squarings above the threshold), each with its own scratch.  Only the
    odd part of the base is raised: with [b = odd * 2^s], [b^e] is
    [odd^e] shifted left by [s * e] bits.  Raises [Invalid_argument] on
    [e < 0], or when [s * e] overflows an [int]. *)

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r], [0 <= |r| < |b|] and [r]
    carrying the sign of [a] (truncated division, like [Stdlib.( / )]).
    Raises [Division_by_zero] on [b = 0]. *)

val gcd : t -> t -> t
(** Non-negative; [gcd 0 0 = 0]. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val of_string : string -> t
(** Decimal, with optional leading [-].  Raises [Invalid_argument] on
    anything else (no underscores, no hex). *)

val to_string : t -> string
(** Decimal rendering; [of_string (to_string x) = x]. *)

val num_bits : t -> int
(** Bit length of the magnitude: the [b] with [2^(b-1) <= |x| < 2^b]
    ([0] for zero). *)

val pp : Format.formatter -> t -> unit
