(** The knowledge-theoretic characterizations of Sections 4 and 5,
    as decidable checks over a model.

    - {!necessary} — Proposition 4.3: in every nontrivial agreement
      protocol, a decision entails belief in the corresponding continual
      common knowledge.
    - {!sufficient_zero_anchored} / {!sufficient_one_anchored} — the two
      alternative antecedents of Proposition 4.4 that guarantee nontrivial
      agreement.
    - {!is_optimal} — Theorem 5.3: a full-information nontrivial agreement
      protocol is optimal iff decisions happen {e exactly} when the
      continual-common-knowledge conditions hold. *)

module Formula = Eba_epistemic.Formula

type failure = { condition : string; point : int; proc : int }
(** A violated condition and a witnessing point. *)

val necessary : Formula.env -> Kb_protocol.decisions -> failure list
(** Empty iff the Proposition 4.3 conditions hold (they must, for any
    nontrivial agreement protocol — a nonempty result flags a bug or a
    non-NTA input). *)

val sufficient_zero_anchored : Formula.env -> Kb_protocol.decisions -> bool
(** Prop 4.4 (a)+(b): deciding 0 entails [B^N_i ∃0], and deciding 1 happens
    exactly on [B^N_i(∃1 ∧ C□_{N∧Z} ∃1)]. *)

val sufficient_one_anchored : Formula.env -> Kb_protocol.decisions -> bool
(** Prop 4.4 (a')+(b'): the symmetric variant anchored at 0. *)

val is_optimal : Formula.env -> Kb_protocol.decisions -> bool
(** The Theorem 5.3 equivalences, restricted to nonfaulty processors:
    [optimality_failures env d = []]. *)

val optimality_failures : Formula.env -> Kb_protocol.decisions -> failure list
(** The violated Theorem 5.3 equivalences
    [In(N,i) ⇒ (decide_i(y) ⇔ B^N_i(ψ_y ∧ ¬decide_i(1−y)))], with
    [ψ₀ = ∃0 ∧ C□_{N∧O} ∃0] and [ψ₁ = ∃1 ∧ C□_{N∧Z} ∃1]: condition (a)
    ([y = 0]) for each failing [i] in increasing order, then (b), each
    with the least point where it fails.

    [decide_i] is a function of [i]'s view, and where [i ∈ N] the point
    lies in its own cell, so there [B^N_i(ψ_y ∧ ¬decide_i(1−y))] is
    [B^N_i ψ_y ∧ ¬decide_i(1−y)].  The check therefore builds the two
    belief tables [B^N ψ₀] and [B^N ψ₁] ({!Decision_set.believes}) and
    walks each run's nonfaulty processors against their outcomes; it
    evaluates no per-processor formula. *)
