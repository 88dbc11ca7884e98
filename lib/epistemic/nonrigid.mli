(** Nonrigid sets of processors (Section 3.1): a possibly different set of
    processors at every point of the system.

    The canonical example is 𝒩, the nonfaulty processors; the paper's
    constructions use intersections 𝒩 ∧ 𝒜 with decision sets.  Membership is
    precomputed per point as a processor bitset so the epistemic operators
    can query it in constant time.  The record is [private] so that the
    kernels read the table in place: under the dev profile's [-opaque],
    a {!mem} from another module is a real call.

    Identity matters: the continual-common-knowledge engine caches a
    reachability closure per nonrigid set, keyed on physical identity, so
    build each set once and reuse the value. *)

module Bitset = Eba_util.Bitset
module Model = Eba_fip.Model

type t = private {
  nr_id : int;
  nr_name : string;
  table : int array;
      (** [table.(point)]: bit [i] set iff processor [i] is in the set at
          the point *)
}

val id : t -> int
(** A number distinct for every set ever built: its identity, for tables
    keyed on it. *)

val name : t -> string
val members : t -> point:int -> Bitset.t
val mem : t -> point:int -> proc:int -> bool

val nonfaulty : Model.t -> t
(** 𝒩: constant along each run, varies across runs. *)

val everyone : Model.t -> t
(** The constant (rigid) set of all processors — turns [B]/[E]/[C] into
    their classical fixed-group versions. *)

val rigid : Model.t -> name:string -> Bitset.t -> t

val restrict_by_view : Model.t -> name:string -> t -> Bytes.t -> t
(** [restrict_by_view model ~name s a] is the nonrigid set
    [{i ∈ s(r,m) : r_i(m) ∈ a}], where byte [v] of [a] is ['\001'] iff
    view [v] is in [a] — the paper's 𝒩 ∧ 𝒜 when [a] is the decision set 𝒜.
    Raises [Invalid_argument] unless [a] has one byte per view of the
    model. *)

val is_empty_at : t -> point:int -> bool
val pp : Format.formatter -> t -> unit
