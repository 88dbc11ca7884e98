module Formula = Eba_epistemic.Formula
module Nonrigid = Eba_epistemic.Nonrigid
module Value = Eba_sim.Value

type order = Zero_first | One_first

(* A step's set, or its input's when the two are equal: a later
   [Kb_protocol.conjoin] of the kept set then hits the env's memo. *)
let keep old fresh = if Decision_set.equal old fresh then old else fresh

(* [c] is built once, so both conditions read one memoized C□ node. *)
let step_zero_first env (pair : Kb_protocol.pair) =
  let n = Formula.nonfaulty env in
  let n_and_o = Kb_protocol.conjoin env n "N&O" pair.Kb_protocol.one in
  let e0 = Formula.exists env Value.Zero and e1 = Formula.exists env Value.One in
  let c = Formula.Cbox (n_and_o, e0) in
  {
    Kb_protocol.zero = keep pair.zero (Decision_set.believes env n (Formula.And [ e0; c ]));
    one = keep pair.one (Decision_set.believes env n (Formula.And [ e1; Formula.Not c ]));
  }

let step_one_first env (pair : Kb_protocol.pair) =
  let n = Formula.nonfaulty env in
  let n_and_z = Kb_protocol.conjoin env n "N&Z" pair.Kb_protocol.zero in
  let e0 = Formula.exists env Value.Zero and e1 = Formula.exists env Value.One in
  let c = Formula.Cbox (n_and_z, e1) in
  {
    Kb_protocol.zero =
      keep pair.zero (Decision_set.believes env n (Formula.And [ e0; Formula.Not c ]));
    one = keep pair.one (Decision_set.believes env n (Formula.And [ e1; c ]));
  }

let step order = match order with
  | Zero_first -> step_zero_first
  | One_first -> step_one_first

let opposite = function Zero_first -> One_first | One_first -> Zero_first

let optimize ?(first = Zero_first) env pair =
  step (opposite first) env (step first env pair)

let iterate_until_fixpoint ?(first = Zero_first) ?(limit = 8) env pair =
  (* Alternate steps until both orders leave the pair unchanged; report how
     many changing steps were needed.  Theorem 5.2 predicts at most two. *)
  let rec loop order pair steps unchanged =
    if unchanged >= 2 || steps >= limit then (pair, steps)
    else
      let next = step order env pair in
      if Kb_protocol.pair_equal next pair then loop (opposite order) pair steps (unchanged + 1)
      else loop (opposite order) next (steps + 1) 0
  in
  loop first pair 0 0
