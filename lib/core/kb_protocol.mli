(** Knowledge-based (full-information) protocols [FIP(Z, O)] and their
    decision behaviour on a model.

    A protocol is a decision pair: [Z] describes the local states at which a
    processor decides (or has decided) 0, [O] the states for 1.  Decisions
    use first-entry semantics — a processor decides at the first time its
    view enters [Z_i ∪ O_i], and the decision is irreversible.  A view lying
    in both sets is an {e ambiguity}; the paper's constructions never
    produce one on a reachable state, and the spec checker reports any. *)

module Model = Eba_fip.Model
module Value = Eba_sim.Value
module Decision = Eba_sim.Decision
module Formula = Eba_epistemic.Formula
module Nonrigid = Eba_epistemic.Nonrigid
module Bitset = Eba_util.Bitset

type pair = { zero : Decision_set.t; one : Decision_set.t }

val never_decide : Model.t -> pair
(** The paper's [F^Λ]: both sets empty. *)

val pair_equal : pair -> pair -> bool

type decisions = private {
  model : Model.t;
  pair : pair;
  table : Decision.t option array;  (** indexed [run * n + proc] *)
  ambiguities : (int * int * int) list;  (** (run, proc, time) in both sets *)
}

val decide : Model.t -> pair -> decisions

val outcome : decisions -> run:int -> proc:int -> Decision.t option

val mismatches :
  decisions ->
  (module Eba_protocols.Protocol_intf.PROTOCOL) ->
  (int * int * Decision.t option * Decision.t option) list
(** [mismatches d (module P)] runs [P] on the lockstep
    {!Eba_protocols.Runner} under the configuration and pattern of every
    run of [d]'s model and lists each [(run, proc, semantic, operational)]
    where a nonfaulty processor's decision under [P] differs from its
    decision under the pair, in run and processor order: the
    run-by-run comparison of Prop 2.2 and Thm 6.2.  [[]] when [P]
    implements the pair. *)

val decided_atom : Formula.env -> decisions -> Value.t -> int -> Formula.t
(** [decide_i(y)] as a formula: [i] decides or has decided [y] at the
    point.  (Defined from first-entry outcomes, hence automatically
    persistent and exclusive — Prop 4.1.) *)

val member_atom : Formula.env -> pair -> Value.t -> int -> Formula.t
(** The raw decision-{e set} reading of [decide_i(y)]: [i]'s current view
    lies in the set for [y].  This is the sense in which the paper's
    Prop 4.4 sufficiency conditions constrain a protocol's decision pair;
    it differs from {!decided_atom} only at views of processors that know
    their own faultiness (where formula-defined sets overlap vacuously). *)

val conjoin : Formula.env -> Nonrigid.t -> string -> Decision_set.t -> Nonrigid.t
(** [conjoin env s name a] is the paper's [S ∧ A]: members of [S] whose
    current view lies in [A].  It goes through the env's memo
    ({!Formula.conjoin}): conjoining the same decision-set object with the
    same [s] and [name] again returns the first nonrigid set, so the [C□]
    closure and the nodes built over it are shared as well. *)
