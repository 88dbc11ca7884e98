(** Nonrigid sets of processors (Section 3.1): a possibly different set of
    processors at every point of the system.

    The canonical example is 𝒩, the nonfaulty processors; the paper's
    constructions use intersections 𝒩 ∧ 𝒜 with decision sets.  Membership is
    precomputed per point as a processor bitset so the epistemic operators
    can query it in constant time.

    Identity matters: the continual-common-knowledge engine caches a
    reachability closure per nonrigid set, keyed on physical identity, so
    build each set once and reuse the value. *)

module Bitset = Eba_util.Bitset
module Model = Eba_fip.Model

type t

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

val restrict_by_view : Model.t -> name:string -> t -> (proc:int -> view:Eba_fip.View.id -> bool) -> t
(** [restrict_by_view model ~name s pred] is the nonrigid set
    [{i ∈ s(r,m) : pred i (r_i(m))}] — the paper's 𝒩 ∧ 𝒜 when [pred] is
    membership of the view in the decision set 𝒜. *)

val is_empty_at : t -> point:int -> bool
val pp : Format.formatter -> t -> unit
