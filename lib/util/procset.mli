(** Processor-set representations behind one signature.

    The model-checking core packs processor sets into single-word
    {!Bitset}s ([max_width = 62]) — the right call on the enumerable
    universes where sets are hash keys and hot-loop operands.  The
    operational protocols (P0opt, P0opt+, Chain0), however, only need the
    set {e algebra}, and the network simulator runs them far beyond 62
    processors.  This module abstracts exactly the {!Bitset} operations
    those protocols use into a signature {!S} with two implementations:

    - {!Word} — {!Bitset} itself: the int-backed fast path, widths ≤ 62;
    - {!Wide} — a canonical [Bytes.t] of 62-bit limbs (8 native-endian
      bytes each, accessed through the compiler's unchecked 64-bit
      load/store primitives): any width, flat unboxed storage.

    The two agree observationally wherever both are defined: for every
    operation and every width ≤ 62, [Word] and [Wide] produce equal sets
    (element-for-element, including the enumeration order of [to_list]
    and [iter]) — property-tested in [test_procset.ml].
    Protocols functorized over {!S} therefore make bit-identical decisions
    under either representation; each set-carrying protocol's
    [for_params] (and [Compact.for_params], for its bounded-bandwidth
    codec) picks [Word] at [n ≤ Bitset.max_width] and [Wide] beyond,
    through [Protocol_intf.by_width], so small-n runs keep the
    single-word hot path. *)

module type S = sig
  type t
  (** A set of small non-negative integers. *)

  val max_width : int
  (** Largest supported element count (62 for {!Word}, effectively
      unbounded for {!Wide}). *)

  val empty : t

  val full : int -> t
  (** [full n] is [{0, ..., n-1}].  Raises [Invalid_argument] if [n] is
      negative or exceeds {!max_width}. *)

  val singleton : int -> t
  val add : int -> t -> t
  val remove : int -> t -> t
  val mem : int -> t -> bool
  val union : t -> t -> t
  val inter : t -> t -> t

  val diff : t -> t -> t
  (** [diff a b] is [a \ b]. *)

  val is_empty : t -> bool
  val equal : t -> t -> bool

  val cardinal : t -> int
  val of_list : int list -> t

  val to_list : t -> int list
  (** Elements in increasing order. *)

  val iter : (int -> unit) -> t -> unit
  (** Elements in increasing order. *)
end

module Word : S with type t = Bitset.t
(** The single-word fast path: {!Bitset} re-exported at signature {!S}. *)

module Wide : S
(** The wide path: a canonical array of 62-bit limbs (no trailing zero
    limbs, so structural equality is set equality).  Widths are bounded
    only by memory; [full], [add], [mem] & co. accept any non-negative
    index. *)
