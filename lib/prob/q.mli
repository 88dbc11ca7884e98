(** Exact rational arithmetic over {!Eba_util.Bigint}.

    Values are kept normalized: the denominator is strictly positive, the
    sign lives on the numerator, and [gcd (|num|, den) = 1] — so
    structural equality coincides with numeric equality and [pow] never
    needs a gcd (a normalized input stays normalized under limb-wise
    exponentiation).  The probability engine relies on that: its large
    values are powers of small normalized rationals, and reducing two
    similar-size thousand-limb operands is the one operation this module
    is designed never to perform. *)

type t = private { num : Eba_util.Bigint.t; den : Eba_util.Bigint.t }

val make : Eba_util.Bigint.t -> Eba_util.Bigint.t -> t
(** [make num den] normalizes; raises [Division_by_zero] on [den = 0]. *)

val of_ints : int -> int -> t
val of_int : int -> t
val of_bigint : Eba_util.Bigint.t -> t
val zero : t
val one : t

val of_float : float -> t
(** Exact dyadic value of the float.  Raises [Invalid_argument] on
    non-finite input. *)

val of_decimal_string : string -> t
(** Exact value of a decimal literal: ["0.05"] is 1/20, not the nearest
    double.  Accepts an optional sign, digits, and at most one point; no
    exponent.  Raises [Invalid_argument] otherwise. *)

val num : t -> Eba_util.Bigint.t
val den : t -> Eba_util.Bigint.t
val sign : t -> int
val is_zero : t -> bool

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** Raises [Division_by_zero]. *)

val inv : t -> t
val one_minus : t -> t

val pow : t -> int -> t
(** Negative exponents invert; [pow zero k] with [k < 0] raises
    [Division_by_zero]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

val to_string : t -> string
(** ["num/den"], or just ["num"] when the denominator is 1. *)

val to_decimal : ?sig_figs:int -> t -> string
(** Deterministic [%g]-style decimal rendering: [sig_figs] significant
    digits (default 9, rounded half-up on the magnitude), trailing zeros
    trimmed, positional notation for exponents in [[-4, sig_figs)] and
    scientific (["3.90625e-11"]) outside. *)

val decimal_of_ratio :
  ?sig_figs:int -> num:Eba_util.Bigint.t -> den:Eba_util.Bigint.t -> unit -> string
(** {!to_decimal} on a raw numerator/denominator pair that need not be
    reduced.  This is how callers render differences of huge same-scale
    powers (e.g. landing-round masses): building them over a hand-picked
    common denominator and skipping normalization avoids the one operation
    the engine cannot afford, a gcd of two structure-free thousand-limb
    operands.  Requires [den > 0].

    The exponent comes from bit lengths, never from a power of ten of the
    operands' size: with [bn], [bd] the bit lengths of [|num|] and [den],
    [|num|/den > 2^(bn - bd - 1)], so [e0 = floor ((bn - bd - 1) log10 2) - 1]
    is at or below the exponent.  One division gives the floor of
    [|num| * 10^(sig_figs - 1 - e0) / den] and its half-up bit; the search
    then walks up from [e0] to the least exponent whose half-up mantissa
    is below [10^sig_figs], dividing that small floor by ten per step and
    rounding up iff the dropped digit is 5 or more. *)

val pp : Format.formatter -> t -> unit
