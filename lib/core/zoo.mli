(** The paper's named protocols, as decision pairs over a model.

    Section 2.2 / 6.1: [p0], [p1] (the Lamport–Fischer style protocols),
    [f_lambda] (never decide), its one-step and two-step optimizations
    [f_lambda_1], [f_lambda_2], and the explicit crash-mode form
    [crash_simple = FIP(Z^cr, O^cr)] of Theorem 6.1.

    Section 6.2: [chain_zero = FIP(Z⁰, O⁰)] (decide through 0-chains;
    an EBA protocol for omission failures by Prop 6.4) and [f_star], the
    optimal omission-mode EBA protocol of Prop 6.6, provided both as the
    generic two-step optimization and in the paper's simplified direct
    form ({!f_star_direct}). *)

module Formula = Eba_epistemic.Formula
module Model = Eba_fip.Model

val f_lambda : Model.t -> Kb_protocol.pair
(** [F^Λ]: nobody ever decides. *)

val f_lambda_1 : Formula.env -> Kb_protocol.pair
(** One zero-first step from [F^Λ]; Section 6.1 shows it reduces to
    [Z_i = B^N_i ∃0], [O_i = ∅]. *)

val f_lambda_2 : Formula.env -> Kb_protocol.pair
(** The optimal protocol [F^Λ,2] (two-step construction from [F^Λ]). *)

val crash_simple : Formula.env -> Kb_protocol.pair
(** [FIP(Z^cr, O^cr)]: decide 0 on [B^N_i ∃0], decide 1 on
    [B^N_i((N ∧ Z^cr) = ∅)].  Theorem 6.1: equals [F^Λ,2] in crash mode. *)

val p0 : Formula.env -> Kb_protocol.pair
(** Decide 0 upon learning of a 0; otherwise decide 1 at time [t+1].
    (Crash-mode EBA; the protocol of Prop 2.1's proof.) *)

val p1 : Formula.env -> Kb_protocol.pair
(** The 0/1-mirror of [p0]. *)

val chain_zero : Formula.env -> Kb_protocol.pair
(** [FIP(Z⁰, O⁰)]: [Z⁰_i = B^N_i ∃0*], [O⁰_i = B^N_i ¬∃0*]. *)

val f_star : Formula.env -> Kb_protocol.pair
(** [Construct.optimize ~first:One_first] applied to [chain_zero]. *)

val f_star_direct : Formula.env -> Kb_protocol.pair
(** The paper's closed form: [Z*_i = B^N_i(∃0 ∧ C□_{N∧O⁰} ∃0)],
    [O*_i = B^N_i(∃1 ∧ ¬C□_{N∧O⁰} ∃0)].  Prop 6.6's derivation makes this
    equal to {!f_star}; the equality is tested, not assumed. *)

val sba_common_knowledge : Formula.env -> Kb_protocol.pair
(** Extension (after [DM90]): the {e simultaneous} protocol that decides a
    value exactly when the supporting fact becomes common knowledge among
    the nonfaulty processors.  Satisfies SBA in crash mode; dominated
    strictly by the optimal EBA protocols, and strictly dominating the
    fixed-time rule once [t ≥ 2] (the Dwork–Moses "waste" effect). *)

val sba_fixed_time : Formula.env -> Kb_protocol.pair
(** Semantic FloodSet: decide at exactly time [t+1] on whatever is known.
    The naive SBA baseline. *)

val f_zero : Formula.env -> Kb_protocol.pair
(** Section 3.2's [F0], built on {e eventual} common knowledge: decide 0
    on [B^N_i C◇_N ∃0], decide 1 on [B^N_i(C◇_N ∃1 ∧ □¬C◇_N ∃0)].  A
    nontrivial agreement protocol, but strictly weaker than the
    continual-common-knowledge constructions — the paper's motivation for
    introducing [C□]. *)

val knows_zero_structural : Formula.env -> Kb_protocol.pair
(** Ablation twin of {!crash_simple} using the structural "my view contains
    a 0" test instead of the semantic [B^N_i ∃0]; the test-suite checks the
    two coincide on crash and omission models. *)

val names : string list
(** The named knowledge-based protocols the [check]/[optimize] commands
    and the served [knowledge-query] accept, in display order:
    [never], [p0], [p1], [p0opt], [f-lambda-2], [chain0], [f-star]
    ([p0opt] and [f-lambda-2] both name {!f_lambda_2}). *)

val by_name : string -> (Formula.env -> Kb_protocol.pair) option
(** The protocol a name in {!names} stands for; [None] for any other
    name. *)
