(** The optimization construction of Section 5.

    {!step_zero_first} is the [(Z', O')] step of Proposition 5.1 — decide 0
    as early as possible given the old criterion for deciding 1:

    [Z'_i = B^N_i(∃0 ∧ C□_{N∧O} ∃0)]  and  [O'_i = B^N_i(∃1 ∧ ¬C□_{N∧O} ∃0)].

    {!step_one_first} is the symmetric [(Z'', O'')] step.  Theorem 5.2:
    applying one step and then the other yields an optimal nontrivial
    agreement protocol dominating the original (an optimal EBA protocol if
    the original was EBA); the process is a fixed point after two steps.

    A step returns its input's set object, not a fresh copy, for each set
    it leaves byte-equal ({!Decision_set.equal}).  A later
    {!Kb_protocol.conjoin} of that set through the same env then returns
    the nonrigid set the step conjoined, with its [C□] closure: Theorem
    5.3's check after Theorem 5.2's construction shares the conjunction
    the second step built whenever that step kept the set. *)

module Formula = Eba_epistemic.Formula
module Nonrigid = Eba_epistemic.Nonrigid

type order = Zero_first | One_first

val step_zero_first : Formula.env -> Kb_protocol.pair -> Kb_protocol.pair
val step_one_first : Formula.env -> Kb_protocol.pair -> Kb_protocol.pair
val step : order -> Formula.env -> Kb_protocol.pair -> Kb_protocol.pair

val optimize : ?first:order -> Formula.env -> Kb_protocol.pair -> Kb_protocol.pair
(** The two-step construction of Theorem 5.2: [step first] then the
    opposite step.  [first] defaults to [Zero_first] (the order used for
    [F^Λ,2] in Section 6.1; [One_first] is the order used for [F*] in
    Section 6.2). *)

val iterate_until_fixpoint :
  ?first:order -> ?limit:int -> Formula.env -> Kb_protocol.pair -> Kb_protocol.pair * int
(** Alternates steps until both orders leave the pair unchanged, returning
    the final pair and the number of {e changing} steps; exposed to test the
    "two steps suffice" claim of Theorem 5.2.  [limit] (default 8) bounds
    runaway iteration. *)
