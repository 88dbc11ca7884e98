(** Small bitsets over processor identifiers [0 .. width-1].

    A set is represented as the bits of a single native [int], so widths up
    to 62 are supported — far beyond the processor counts handled by the
    exhaustive model enumeration.  All operations are pure. *)

type t = private int
(** A set of small non-negative integers. *)

val max_width : int
(** Largest supported element count (62 on 64-bit platforms). *)

val empty : t
(** The empty set. *)

val full : int -> t
(** [full n] is [{0, ..., n-1}].  Raises [Invalid_argument] if [n] is
    negative or exceeds {!max_width}. *)

val singleton : int -> t
(** [singleton i] is [{i}].  Raises [Invalid_argument] unless
    [0 <= i < max_width]; {!add} likewise. *)

val add : int -> t -> t

val remove : int -> t -> t
(** [remove i s] is [s] for a negative [i], as [Procset.Wide.remove] is. *)

val mem : int -> t -> bool

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
(** [diff a b] is [a \ b]. *)

val is_empty : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val subset : t -> t -> bool
(** [subset a b] is true iff every element of [a] is in [b]. *)

val disjoint : t -> t -> bool
val cardinal : t -> int

val of_list : int list -> t
val to_list : t -> int list
(** Elements in increasing order. *)

val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val for_all : (int -> bool) -> t -> bool
val exists : (int -> bool) -> t -> bool
val filter : (int -> bool) -> t -> t
val choose : t -> int option
(** Smallest element, if any. *)

val to_int : t -> int
val of_int : int -> t
(** Raw bit-pattern conversions, used when a set is a hash-table key. *)

val subsets : int -> t list
(** [subsets n] enumerates all [2^n] subsets of [full n], in increasing
    bit-pattern order. *)

val subsets_of : t -> t list
(** [subsets_of s] enumerates all [2^(cardinal s)] subsets of [s], in
    increasing bit-pattern order — without touching the non-members of
    [s]. *)

val subsets_upto : int -> int -> t list
(** [subsets_upto n k] enumerates the subsets of [full n] of cardinality at
    most [k], smallest cardinality first. *)

val pp : Format.formatter -> t -> unit
(** Prints as [{0,2,3}]. *)
