module Formula = Eba_epistemic.Formula
module Model = Eba_fip.Model
module View = Eba_fip.View
module Value = Eba_sim.Value

let f_lambda model = Kb_protocol.never_decide model

let f_lambda_1 env = Construct.step_zero_first env (f_lambda (Formula.model env))
let f_lambda_2 env = Construct.optimize ~first:Construct.Zero_first env (f_lambda (Formula.model env))

let believes_exists env v =
  Decision_set.believes env (Formula.nonfaulty env) (Formula.exists env v)

let crash_simple env =
  let n = Formula.nonfaulty env in
  let zero = believes_exists env Value.zero in
  let n_and_z = Kb_protocol.conjoin env n "N&Zcr" zero in
  let one = Decision_set.believes env n (Formula.Empty n_and_z) in
  { Kb_protocol.zero; one }

let deadline_pair env ~decide_now ~deadline_value =
  (* Decide [1 - deadline_value] as soon as [decide_now] holds on the view;
     otherwise decide [deadline_value] at time t+1. *)
  let model = Formula.model env in
  let store = model.Model.store in
  let deadline = model.Model.params.Eba_sim.Params.t_failures + 1 in
  let eager = Decision_set.of_views model decide_now in
  let late =
    Decision_set.of_views model (fun v ->
        View.time store v >= deadline && not (decide_now v))
  in
  ignore deadline_value;
  (eager, late)

let p0 env =
  let model = Formula.model env in
  let store = model.Model.store in
  let eager, late = deadline_pair env ~decide_now:(View.knows_zero store) ~deadline_value:Value.one in
  { Kb_protocol.zero = eager; one = late }

let knows_one_everywhere store v =
  (* structural mirror of knows_zero: the view contains an initial 1 *)
  let rec scan v =
    Value.equal (View.init_value store v) Value.One
    || (match View.prev store v with Some p -> scan p | None -> false)
    || begin
         let n = View.n store in
         let rec any j =
           j < n
           && ((match View.received store v j with Some r -> scan r | None -> false)
              || any (j + 1))
         in
         any 0
       end
  in
  scan v

let p1 env =
  let model = Formula.model env in
  let store = model.Model.store in
  let eager, late =
    deadline_pair env ~decide_now:(knows_one_everywhere store) ~deadline_value:Value.zero
  in
  { Kb_protocol.zero = late; one = eager }

let chain_zero env =
  let n = Formula.nonfaulty env in
  let e0star = Facts.exists0_star env in
  let zero = Decision_set.believes env n e0star in
  (* The paper writes O⁰_i = B^N_i ¬∃0*; since ¬∃0* trivially holds at time
     0, the intended (and correct) reading — the one Prop 6.4's proof
     actually establishes — is belief that no 0-chain will ever exist. *)
  let one = Decision_set.believes env n (Formula.Always (Formula.Not e0star)) in
  { Kb_protocol.zero; one }

let f_star env = Construct.optimize ~first:Construct.One_first env (chain_zero env)

let f_star_direct env =
  let n = Formula.nonfaulty env in
  let pair0 = chain_zero env in
  let n_and_o0 = Kb_protocol.conjoin env n "N&O0" pair0.Kb_protocol.one in
  let e0 = Formula.exists env Value.zero and e1 = Formula.exists env Value.one in
  let c = Formula.Cbox (n_and_o0, e0) in
  let zero = Decision_set.believes env n (Formula.And [ e0; c ]) in
  let one = Decision_set.believes env n (Formula.And [ e1; Formula.Not c ]) in
  { Kb_protocol.zero; one }

let knows_zero_set env =
  let model = Formula.model env in
  Decision_set.of_views model (View.knows_zero model.Model.store)

let sba_common_knowledge env =
  (* The SBA counterpart from [DM90]: decide v only when the supporting
     fact is common knowledge among the nonfaulty — C_N ∃0 for 0, and for
     1 common knowledge that no nonfaulty processor will ever learn of a
     0.  Common knowledge is shared (C φ ⇒ E C φ), so decisions are
     simultaneous; this is the baseline EBA is measured against at the
     knowledge level. *)
  let n = Formula.nonfaulty env in
  let n_and_kz = Kb_protocol.conjoin env n "N&kz" (knows_zero_set env) in
  let never_zero_witness = Formula.Throughout (Formula.Empty n_and_kz) in
  let zero = Decision_set.believes env n (Formula.C (n, Formula.exists env Value.zero)) in
  let one = Decision_set.believes env n (Formula.C (n, never_zero_witness)) in
  { Kb_protocol.zero; one }

let sba_fixed_time env =
  (* semantic FloodSet: everyone decides at exactly time t+1 *)
  let model = Formula.model env in
  let store = model.Model.store in
  let deadline = model.Model.params.Eba_sim.Params.t_failures + 1 in
  let zero =
    Decision_set.of_views model (fun v ->
        View.time store v >= deadline && View.knows_zero store v)
  in
  let one =
    Decision_set.of_views model (fun v ->
        View.time store v >= deadline && not (View.knows_zero store v))
  in
  { Kb_protocol.zero; one }

let f_zero env =
  (* Section 3.2's F0: decide 0 on believing eventual common knowledge of
     ∃0; decide 1 on believing C◇ ∃1 together with the permanent absence
     of C◇ ∃0.  Correct but deliberately suboptimal. *)
  let n = Formula.nonfaulty env in
  let c0 = Formula.Cdia (n, Formula.exists env Value.zero) in
  let c1 = Formula.Cdia (n, Formula.exists env Value.one) in
  let zero = Decision_set.believes env n c0 in
  let one = Decision_set.believes env n (Formula.And [ c1; Formula.Always (Formula.Not c0) ]) in
  { Kb_protocol.zero; one }

let knows_zero_structural env =
  let model = Formula.model env in
  let store = model.Model.store in
  let n = Formula.nonfaulty env in
  let zero = Decision_set.of_views model (View.knows_zero store) in
  let n_and_z = Kb_protocol.conjoin env n "N&Zkz" zero in
  let one = Decision_set.believes env n (Formula.Empty n_and_z) in
  { Kb_protocol.zero; one }

let table =
  [
    ("never", fun env -> f_lambda (Formula.model env));
    ("p0", p0);
    ("p1", p1);
    ("p0opt", f_lambda_2);
    ("f-lambda-2", f_lambda_2);
    ("chain0", chain_zero);
    ("f-star", f_star);
  ]

let names = List.map fst table
let by_name name = List.assoc_opt name table
