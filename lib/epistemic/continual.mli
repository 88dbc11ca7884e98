(** Continual common knowledge (Section 3.3) — the paper's new variant.

    [E□_S φ = ⊟ E_S φ] (at all times of the run, everyone currently in [S]
    believes φ), and [C□_S φ] is the greatest fixed point of
    [X ↔ E□_S(φ ∧ X)].

    The production implementation uses the S-□-reachability characterization
    (Prop 3.2 / Cor 3.3).  Unfolding the definition, one reachability step
    from a run [r] lands on any point [(r',m')] for which some processor
    [i ∈ S(r',m')] has the same view at some [(r,m)] with [i ∈ S(r,m)]
    (views being time-stamped forces [m = m']).  Steps therefore factor
    through {e lander groups}: for each view [v] with owner [i], the points
    of [cell v] at which [i ∈ S].  All runs touching a group are mutually
    reachable and every point of the group is reachable.  We compute
    connected components of runs with a union-find over the groups once per
    nonrigid set (each component linked under its least run, then
    flattened, so a built closure is only ever read), after which every
    [C□_S φ] query is a linear scan:
    [C□_S φ] holds at [(r,m)] iff either [r] touches no group (so no step
    can start — the vacuous case of an everywhere-empty [S]) or no landable
    point in [r]'s component refutes φ.  The result is constant along each
    run, which is Lemma 3.4(g).

    [cbox_naive] is the direct fixed-point iteration of the definition; the
    test-suite checks the two implementations coincide, and the benchmark
    harness uses the naive version as the ablation baseline. *)

module Model = Eba_fip.Model

type closure
(** The cached S-□-reachability structure for one (model, nonrigid set)
    pair. *)

val closure : Model.t -> Nonrigid.t -> closure

val ebox : Model.t -> Nonrigid.t -> Pset.t -> Pset.t
(** [E□_S φ]. *)

val cbox : closure -> Pset.t -> Pset.t
(** [C□_S φ] via the reachability characterization.  Raises
    [Invalid_argument] when φ is not a set of the closure's model's
    points. *)

val cbox_naive : Model.t -> Nonrigid.t -> Pset.t -> Pset.t
(** [C□_S φ] by iterating [X ← E□_S(φ ∧ X)] to the fixed point. *)

val reachable_runs : closure -> run:int -> Pset.t
(** The runs S-□-reachable (in ≥ 1 step) from [run], as a set of run
    indices; exposed for tests of the characterization itself. *)
