(** Decision sets (Section 4): for each processor [i], a set of local
    states (views) at which [i] decides or has decided a given value.

    A decision set is stored as a membership table over the model's view
    arena; since a view records its owner, one table represents the whole
    family [(A_i)_i].  The paper's decision sets are belief families
    [A_i = B^S_i φ], which are properties of [i]'s view by definition:
    {!believes} reads the whole family off one all-owner kernel pass. *)

module Model = Eba_fip.Model
module View = Eba_fip.View
module Formula = Eba_epistemic.Formula
module Nonrigid = Eba_epistemic.Nonrigid
module Pset = Eba_epistemic.Pset

type t = private Bytes.t
(** Byte [v] is ['\001'] iff view [v] is in its owner's set, else
    ['\000']: the table {!Eba_epistemic.Nonrigid.restrict_by_view} reads. *)

val empty : Model.t -> t
val mem : t -> View.id -> bool
(** Is the view in its owner's decision set? *)

val of_views : Model.t -> (View.id -> bool) -> t

val believes : Formula.env -> Nonrigid.t -> Formula.t -> t
(** [believes env s φ] is the family [A_i = B^S_i φ]: a view of owner [i]
    is in the set iff [B^S_i φ] holds there
    ({!Eba_epistemic.Knowledge.believed_views} of [φ]'s points).  This is
    the paper's [Z'_i = B^N_i(∃0 ∧ C□_{N∧O} ∃0)] shape, for every [i] in
    one pass over the points where φ fails. *)

val points : Model.t -> t -> proc:int -> Pset.t
(** Points [(r,m)] with [r_proc(m) ∈ A_proc]. *)

val union : Model.t -> t -> t -> t
val inter : Model.t -> t -> t -> t
val equal : t -> t -> bool
val is_empty : t -> bool
val cardinal : t -> int
(** Number of member views, across all processors. *)

val persistent : Model.t -> t -> bool
(** Once a processor's view is in the set, do all its later views in every
    run stay in the set?  The paper's "decides or has decided" reading
    presumes this; we test it rather than assume it. *)
