(** The basic knowledge operators of Section 3.1, computed extensionally:
    each operator maps the set of points satisfying φ to the set of points
    satisfying the modal formula.

    [K_i φ] holds at a point iff φ holds at every point where [i] has the
    same view; [B^S_i φ = K_i(i ∈ S ⇒ φ)] is the belief variant for
    processors that need not know whether they belong to the nonrigid set;
    [E_S φ = ∧_{i∈S} B^S_i φ] (vacuously true where [S] is empty).

    All three share one kernel: for each view [v] of owner [i], does φ
    hold at every point of [v]'s cell where [i ∈ S]?  [K_i] and [B^S_i]
    read only [i]'s own views, so they scan only the cells of views [i]
    owns (together, exactly one entry per point of the model); [E_S] scans
    every view.  The kernel's [knowledge.cell_points_probed] counter adds
    the full length of every cell scanned, including cells whose scan
    stops early, so its total depends on the model and the calls alone,
    never on the job count. *)

module Model = Eba_fip.Model

val knows : Model.t -> proc:int -> Pset.t -> Pset.t
(** [K_i φ]. *)

val believes : Model.t -> Nonrigid.t -> proc:int -> Pset.t -> Pset.t
(** [B^S_i φ]. *)

val everyone_knows : Model.t -> Nonrigid.t -> Pset.t -> Pset.t
(** [E_S φ]. *)

val view_measurable : Model.t -> proc:int -> Pset.t -> bool
(** Does membership of the set depend only on [proc]'s view?  True of every
    [K_i]/[B^S_i] result; used to project point sets onto decision sets. *)
