(** The basic knowledge operators of Section 3.1, computed extensionally:
    each operator maps the set of points satisfying φ to the set of points
    satisfying the modal formula.

    [K_i φ] holds at a point iff φ holds at every point where [i] has the
    same view; [B^S_i φ = K_i(i ∈ S ⇒ φ)] is the belief variant for
    processors that need not know whether they belong to the nonrigid set;
    [E_S φ = ∧_{i∈S} B^S_i φ] (vacuously true where [S] is empty).

    All of them share one kernel: for each view [v] of owner [i], does φ
    hold at every point of [v]'s cell where [i ∈ S]?  Its answer is a
    property of views, one byte per view, and {!believed_views} returns it
    whole, [B^S_i φ] for every processor at once, read at each view for the
    view's own owner.  A point [q] lies in the cell of [i]'s view at [q]
    for every [i], so the kernel makes one sequential pass over the points
    where φ fails and clears, at each, the views of the members of [S]
    there (of every processor when [S] is absent); words of φ with every
    point set are skipped whole.  [K_i] and [B^S_i] on their own clear only
    [i]'s views.  The model keeps no cells: the rows are all the kernel
    reads.  Its [knowledge.cell_points_probed] counter adds one per
    (refuting point, cleared member) pair, so its total depends on the
    model, φ and the calls alone.  Every operator raises [Invalid_argument]
    when φ is not a set of the model's points. *)

module Model = Eba_fip.Model

val knows : Model.t -> proc:int -> Pset.t -> Pset.t
(** [K_i φ]. *)

val believes : Model.t -> Nonrigid.t -> proc:int -> Pset.t -> Pset.t
(** [B^S_i φ]. *)

val everyone_knows : Model.t -> Nonrigid.t -> Pset.t -> Pset.t
(** [E_S φ]. *)

val believed_views : Model.t -> Nonrigid.t -> Pset.t -> Bytes.t
(** The all-owner belief table: byte [v] is ['\001'] iff [B^S_i φ] holds
    at view [v] for its owner [i], else ['\000'].  Every view sits at its
    owner's slot in some run (a cell is never empty), so this is the
    family [(B^S_i φ)_i] as sets of local states.  The bytes are fresh and
    belong to the caller. *)
