(** Dense sets of point ids, as packed bit vectors.

    Every epistemic operator maps point sets to point sets; models have up
    to a few million points, so sets are flat bit vectors with word-wise
    boolean operations.  All binary operations require operands of the same
    length (the number of points in the model) and raise [Invalid_argument]
    otherwise.

    The record is [private] so that the epistemic kernels can read (and
    fill the sets they have just created) word by word, without a call per
    point: under the dev profile's [-opaque] every {!mem}/{!add} from
    another module is a real call. *)

type t = private {
  id : int;
  len : int;
  words : int array;
      (** bit [b] of [words.(w)] is point [w * bits_per_word + b]; bits at
          or past [len] are always clear, and there is at least one word *)
}

val bits_per_word : int
(** 62: the points per word of {!t.words}. *)

val full_word : int
(** A word with all {!bits_per_word} bits set. *)

val create : int -> t
(** [create len] is the empty set over a universe of [len] points. *)

val full : int -> t

val init : int -> (int -> bool) -> t
(** [init len f] is [{i | f i}], calling [f] on every index in increasing
    order. *)

val copy : t -> t
val length : t -> int

val id : t -> int
(** A number distinct for every set ever created (copies included): the
    set's identity, for tables keyed on physical identity.  {!equal}
    compares members, never ids. *)

val mem : t -> int -> bool
val add : t -> int -> unit
(** In-place insertion (used while building atoms). *)

val remove : t -> int -> unit

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val complement : t -> t
(** All fresh; operands are not mutated. *)

val equal : t -> t -> bool
val subset : t -> t -> bool
val is_empty : t -> bool
val is_full : t -> bool
val cardinal : t -> int

val iter : t -> (int -> unit) -> unit
(** Iterates over members in increasing order. *)

val for_all : t -> (int -> bool) -> bool
(** Over members. *)

val choose : t -> int option
val pp : Format.formatter -> t -> unit
(** Cardinality summary, not the elements. *)
