module F = Eba.Formula
module M = Eba.Model
module KB = Eba.Kb_protocol
module Spec = Eba.Spec
module Dom = Eba.Dominance
module Con = Eba.Construct
module Ch = Eba.Characterize
module Zoo = Eba.Zoo
module N = Eba.Nonrigid
module P = Eba.Pset
module Val = Eba.Value
module B = Eba.Bitset
module Pat = Eba.Pattern
module Cfg = Eba.Config

type outcome = {
  id : string;
  claim : string;
  setting : string;
  holds : bool;
  detail : string;
}

(* [Full] runs every claim at the sizes EXPERIMENTS.md records.  [Small]
   replaces the one expensive fixture (crash n=4 t=2 T=4, used by E9's
   t=2 deviation) with the smallest instance exhibiting the same
   phenomenon (crash n=3 t=2 T=4 — see note N5); every other claim
   already runs at its minimal instance.  The golden test pins the
   [Small] verdicts on every commit. *)
type scale = Small | Full

(* memoized fixtures, built on first use *)
let memo tbl key build =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = build () in
      Hashtbl.add tbl key v;
      v

let envs : (string, F.env) Hashtbl.t = Hashtbl.create 8

let env_of ~n ~t ~horizon ~mode =
  let key = Printf.sprintf "%d-%d-%d-%b" n t horizon (mode = Eba.Params.Crash) in
  memo envs key (fun () ->
      F.env (M.build (Eba.Params.make ~n ~t ~horizon ~mode)))

let crash_small () = env_of ~n:3 ~t:1 ~horizon:3 ~mode:Eba.Params.Crash
let crash_medium () = env_of ~n:4 ~t:1 ~horizon:3 ~mode:Eba.Params.Crash

let crash_t2 = function
  | Full -> env_of ~n:4 ~t:2 ~horizon:4 ~mode:Eba.Params.Crash
  | Small -> env_of ~n:3 ~t:2 ~horizon:4 ~mode:Eba.Params.Crash

let omission_small () = env_of ~n:3 ~t:1 ~horizon:3 ~mode:Eba.Params.Omission

(* Prop 6.3 needs t > 1 and n >= t + 2; n=4 t=2 T=2 is already minimal. *)
let omission_t2 () = env_of ~n:4 ~t:2 ~horizon:2 ~mode:Eba.Params.Omission

let setting_of env = Format.asprintf "%a (exhaustive)" Eba.Params.pp (F.model env).M.params

let decisions env pair = KB.decide (F.model env) pair

(* --- E1: Prop 2.1, no optimum EBA protocol --- *)
let e1 () =
  let env = crash_small () in
  let d0 = decisions env (Zoo.p0 env) and d1 = decisions env (Zoo.p1 env) in
  let m = F.model env in
  let dopt = decisions env (Zoo.f_lambda_2 env) in
  let zero_holders_at_0 =
    let ok = ref true in
    for run = 0 to M.nruns m - 1 do
      let cfg = (M.run_of_point m (M.point m ~run ~time:0)).M.config in
      B.iter
        (fun i ->
          if Val.equal (Cfg.value cfg i) Val.Zero then
            match KB.outcome d0 ~run ~proc:i with
            | Some { Eba.Decision.at = 0; _ } -> ()
            | Some _ | None -> ok := false)
        (M.nonfaulty m ~run)
    done;
    !ok
  in
  let not_both = not (Dom.dominates dopt d0 && Dom.dominates dopt d1) in
  let lower_bound =
    (Spec.check dopt).Spec.max_decision_time = Some (m.M.params.Eba.Params.t_failures + 1)
  in
  {
    id = "E1";
    claim = "Prop 2.1: there is no optimum EBA protocol";
    setting = setting_of env;
    holds = zero_holders_at_0 && not_both && lower_bound;
    detail =
      Printf.sprintf
        "P0 decides 0 at time 0 for 0-holders (%b); even the optimal F^L,2 cannot \
         dominate both P0 and P1 (%b); some run needs t+1 rounds (%b)"
        zero_holders_at_0 not_both lower_bound;
  }

(* --- E2: §2.2, P0opt strictly dominates P0 and is the optimal closure --- *)
let e2 () =
  let env = crash_small () in
  let d0 = decisions env (Zoo.p0 env) in
  let dopt = decisions env (Zoo.f_lambda_2 env) in
  let strict = Dom.strictly_dominates dopt d0 in
  let optimal = Ch.is_optimal env dopt in
  let unique =
    let via_p0, steps = Con.iterate_until_fixpoint env (Zoo.p0 env) in
    steps <= 2 && Dom.equivalent (decisions env via_p0) dopt
  in
  {
    id = "E2";
    claim = "§2.2: P0opt strictly dominates P0 and is the unique optimal closure";
    setting = setting_of env;
    holds = strict && optimal && unique;
    detail =
      Printf.sprintf "strict domination %b; Thm 5.3-optimal %b; optimize(P0) = F^L,2 %b"
        strict optimal unique;
  }

(* --- E3: Prop 3.1, S5 axioms (sampled through the formula engine) --- *)
let e3 () =
  let env = crash_small () in
  let m = F.model env in
  let e0 = F.exists_value m Val.Zero in
  let phi = F.K (1, F.Or [ e0; F.Not (F.K (0, e0)) ]) in
  let checks =
    [
      F.Implies (F.K (0, phi), phi);
      F.Implies (F.K (0, phi), F.K (0, F.K (0, phi)));
      F.Implies (F.Not (F.K (0, phi)), F.K (0, F.Not (F.K (0, phi))));
      F.Implies (F.And [ F.K (0, phi); F.K (0, F.Implies (phi, e0)) ], F.K (0, e0));
    ]
  in
  let holds = List.for_all (F.valid env) checks in
  {
    id = "E3";
    claim = "Prop 3.1: knowledge satisfies S5";
    setting = setting_of env ^ "; full qcheck suite in test/";
    holds;
    detail = Printf.sprintf "%d axiom schemata valid on nested witnesses" (List.length checks);
  }

(* --- E4: Lemma 3.4, the C□ axioms --- *)
let e4 () =
  let env = crash_small () in
  let m = F.model env in
  let nf = N.nonfaulty m in
  let e0 = F.exists_value m Val.Zero in
  let e1 = F.exists_value m Val.One in
  let c phi = F.Cbox (nf, phi) in
  let checks =
    [
      F.Implies (F.And [ c e0; c (F.Implies (e0, e1)) ], c e1);
      F.Implies (c e0, c (c e0));
      F.Implies (F.Not (c e0), c (F.Not (c e0)));
      F.Implies (c e0, F.Ebox (nf, F.And [ e0; c e0 ]));
      F.Iff (c e0, F.Throughout (c e0));
      F.Implies (c e0, F.C (nf, e0));
    ]
  in
  let holds = List.for_all (F.valid env) checks in
  {
    id = "E4";
    claim = "Lemma 3.4: C□ satisfies K45 + fixed point, is run-constant, implies C";
    setting = setting_of env ^ "; full qcheck suite in test/";
    holds;
    detail = Printf.sprintf "%d schemata valid" (List.length checks);
  }

(* --- E5: C□ strictly stronger than C --- *)
let e5 () =
  let env = crash_small () in
  let m = F.model env in
  let nf = N.nonfaulty m in
  let e0 = F.exists_value m Val.Zero in
  let csome = not (P.is_empty (F.eval env (F.C (nf, e0)))) in
  let cbox_none = P.is_empty (F.eval env (F.Cbox (nf, e0))) in
  {
    id = "E5";
    claim = "C□ is strictly stronger than C (converse of C□⇒C fails)";
    setting = setting_of env;
    holds = csome && cbox_none;
    detail =
      Printf.sprintf "C_N ∃0 at %d points, C□_N ∃0 at %d"
        (P.cardinal (F.eval env (F.C (nf, e0))))
        (P.cardinal (F.eval env (F.Cbox (nf, e0))));
  }

(* --- E6: Prop 4.3 / 4.4 --- *)
let e6 () =
  let check_env env seeds =
    List.for_all
      (fun pair ->
        let d = decisions env pair in
        Ch.necessary env d = [])
      seeds
  in
  let c = crash_small () and o = omission_small () in
  let crash_ok = check_env c [ Zoo.p0 c; Zoo.p1 c; Zoo.f_lambda_2 c ] in
  let om_ok = check_env o [ Zoo.chain_zero o; Zoo.f_star o ] in
  let sufficiency =
    Ch.sufficient_one_anchored c (decisions c (Zoo.f_lambda_2 c))
    && Ch.sufficient_zero_anchored o (decisions o (Zoo.f_star o))
  in
  {
    id = "E6";
    claim = "Prop 4.3/4.4: continual common knowledge is necessary & sufficient for NTA";
    setting = "crash n=3 t=1 T=3; omission n=3 t=1 T=3 (exhaustive)";
    holds = crash_ok && om_ok && sufficiency;
    detail =
      Printf.sprintf "necessity on 5 protocols (%b, %b); sufficiency variants (%b)"
        crash_ok om_ok sufficiency;
  }

(* --- E7: Thm 5.2 --- *)
let e7 () =
  let run_env env seeds =
    List.for_all
      (fun pair ->
        let opt = Con.optimize env pair in
        let d = decisions env opt in
        let _, steps = Con.iterate_until_fixpoint env pair in
        Spec.is_nontrivial_agreement (Spec.check d)
        && Ch.is_optimal env d
        && Dom.dominates d (decisions env pair)
        && steps <= 2)
      seeds
  in
  let c = crash_small () and o = omission_small () in
  let crash_ok =
    run_env c [ KB.never_decide (F.model c); Zoo.p0 c; Zoo.p1 c ]
  in
  let om_ok = run_env o [ KB.never_decide (F.model o); Zoo.chain_zero o ] in
  {
    id = "E7";
    claim = "Thm 5.2: two steps produce an optimal dominating protocol; fixed point in ≤2";
    setting = "crash & omission n=3 t=1 T=3, 5 seed protocols";
    holds = crash_ok && om_ok;
    detail = Printf.sprintf "crash seeds %b; omission seeds %b" crash_ok om_ok;
  }

(* --- E8: Thm 5.3 --- *)
let e8 () =
  let env = crash_small () in
  let optimal_accepted = Ch.is_optimal env (decisions env (Zoo.f_lambda_2 env)) in
  let p0_rejected = not (Ch.is_optimal env (decisions env (Zoo.p0 env))) in
  let o = omission_small () in
  let fstar_accepted = Ch.is_optimal o (decisions o (Zoo.f_star o)) in
  {
    id = "E8";
    claim = "Thm 5.3: optimality ⟺ the two knowledge equivalences";
    setting = "crash & omission n=3 t=1 T=3 (exhaustive)";
    holds = optimal_accepted && p0_rejected && fstar_accepted;
    detail =
      Printf.sprintf "accepts F^L,2 (%b) and F* (%b); rejects P0 (%b)" optimal_accepted
        fstar_accepted p0_rejected;
  }

(* --- E9: Thm 6.1 / 6.2 --- *)
let e9 scale =
  let c3 = crash_small () and c4 = crash_medium () in
  let thm61 =
    KB.pair_equal (Zoo.f_lambda_2 c3) (Zoo.crash_simple c3)
    && KB.pair_equal (Zoo.f_lambda_2 c4) (Zoo.crash_simple c4)
  in
  let equiv env p pair = KB.mismatches (decisions env pair) p = [] in
  let thm62_t1 = equiv c4 (module Eba.P0opt) (Zoo.f_lambda_2 c4) in
  let t2 = crash_t2 scale in
  let thm62_t2_fails = not (equiv t2 (module Eba.P0opt) (Zoo.f_lambda_2 t2)) in
  let p0opt_plus_t2 = equiv t2 (module Eba.P0opt_plus) (Zoo.f_lambda_2 t2) in
  {
    id = "E9";
    claim = "Thm 6.1/6.2: crash-mode closed form; P0opt ≡ F^L,2";
    setting =
      Printf.sprintf "crash n=3,4 t=1 T=3 and %s (exhaustive)"
        (match scale with Full -> "n=4 t=2 T=4" | Small -> "n=3 t=2 T=4");
    holds = thm61 && thm62_t1 && thm62_t2_fails && p0opt_plus_t2;
    detail =
      Printf.sprintf
        "Thm 6.1 exact (%b); Thm 6.2 exact at t=1 (%b); DEVIATION: fails at t=2 (%b) — \
         P0opt's value-vector messages lose heard-history; our P0opt+ (delivery-evidence \
         gossip, O(n^2 T) bits) restores exact equivalence at t=2 (%b)"
        thm61 thm62_t1 thm62_t2_fails p0opt_plus_t2;
  }

(* --- E10: Prop 6.3 --- *)
let e10 () =
  let env = omission_t2 () in
  let m = F.model env in
  let d = decisions env (Zoo.f_lambda_2 env) in
  let r = Spec.check d in
  let horizon = 2 in
  let omits = Array.make horizon (B.of_list [ 1; 2; 3 ]) in
  let pattern = Pat.make m.M.params [ Pat.omission ~horizon ~proc:0 ~omits ] in
  let config = Cfg.constant ~n:4 Val.One in
  let run = (Option.get (M.find_run m ~config ~pattern)).M.index in
  let witness =
    B.for_all
      (fun i -> KB.outcome d ~run ~proc:i = None)
      (B.of_list [ 1; 2; 3 ])
  in
  {
    id = "E10";
    claim = "Prop 6.3: under omissions (t>1, n≥t+2) F^L,2 has non-deciding runs";
    setting = setting_of env;
    holds = Spec.is_nontrivial_agreement r && (not r.Spec.decision) && witness;
    detail =
      Printf.sprintf
        "still consistent (%b); decision fails globally (%b); paper's witness run \
         (all-1, processor 0 silent) has no nonfaulty decision (%b)"
        (Spec.is_nontrivial_agreement r) (not r.Spec.decision) witness;
  }

(* --- E11: Prop 6.4 / Cor 6.5 --- *)
let e11 () =
  let env = omission_small () in
  let m = F.model env in
  let d = decisions env (Zoo.chain_zero env) in
  let eba = Spec.is_eba (Spec.check d) in
  let bound = ref true in
  for run = 0 to M.nruns m - 1 do
    let f = Pat.num_failures (M.run_of_point m (M.point m ~run ~time:0)).M.pattern in
    B.iter
      (fun i ->
        match KB.outcome d ~run ~proc:i with
        | Some { Eba.Decision.at; _ } -> if at > f + 1 then bound := false
        | None -> bound := false)
      (M.nonfaulty m ~run)
  done;
  let op = (Eba.Stats.exhaustive (module Eba.Chain0) m.M.params).Eba.Stats.tally in
  let op_ok =
    op.agreement_violations = 0 && op.validity_violations = 0
    && op.undecided_nonfaulty = 0
  in
  {
    id = "E11";
    claim = "Prop 6.4/Cor 6.5: FIP(Z0,O0) is EBA; nonfaulty decide by f+1";
    setting = setting_of env;
    holds = eba && !bound && op_ok;
    detail =
      Printf.sprintf "semantic EBA (%b); f+1 bound in every run (%b); operational \
                      Chain0 matches over the same universe (%b)" eba !bound op_ok;
  }

(* --- E12: Prop 6.6 --- *)
let e12 () =
  let env = omission_small () in
  let dstar = decisions env (Zoo.f_star env) in
  let dchain = decisions env (Zoo.chain_zero env) in
  let eba = Spec.is_eba (Spec.check dstar) in
  let optimal = Ch.is_optimal env dstar in
  let dominates = Dom.dominates dstar dchain in
  let closed_form = KB.pair_equal (Zoo.f_star env) (Zoo.f_star_direct env) in
  {
    id = "E12";
    claim = "Prop 6.6: F* is optimal omission EBA dominating FIP(Z0,O0)";
    setting = setting_of env;
    holds = eba && optimal && dominates && closed_form;
    detail =
      Printf.sprintf
        "EBA %b; optimal %b; dominates %b; closed form matches the generic two-step \
         construction %b (domination is non-strict at t=1: the chain protocol is \
         already optimal there)"
        eba optimal dominates closed_form;
  }

let experiments : (string * (scale -> outcome)) list =
  let fixed f _scale = f () in
  [
    ("E1", fixed e1); ("E2", fixed e2); ("E3", fixed e3); ("E4", fixed e4);
    ("E5", fixed e5); ("E6", fixed e6); ("E7", fixed e7); ("E8", fixed e8);
    ("E9", e9); ("E10", fixed e10); ("E11", fixed e11); ("E12", fixed e12);
  ]

let ids () = List.map fst experiments
let run ?(scale = Full) id = Option.map (fun f -> f scale) (List.assoc_opt id experiments)
let all ?(scale = Full) () = List.map (fun (_, f) -> f scale) experiments

let pp fmt o =
  Format.fprintf fmt "%-4s %s@\n     claim:   %s@\n     setting: %s@\n     detail:  %s@\n"
    o.id (if o.holds then "PASS" else "FAIL") o.claim o.setting o.detail

let pp_summary fmt outcomes =
  List.iter (pp fmt) outcomes;
  let passed = List.length (List.filter (fun o -> o.holds) outcomes) in
  Format.fprintf fmt "%d/%d experiments reproduce the paper's claims@\n" passed
    (List.length outcomes)

(* One line per experiment, nothing volatile: this is the surface the
   golden test diffs against test/golden/experiments.expected. *)
let pp_verdicts fmt outcomes =
  List.iter
    (fun o ->
      Format.fprintf fmt "%s %s | %s | %s@\n" o.id
        (if o.holds then "PASS" else "FAIL")
        o.claim o.setting)
    outcomes;
  let passed = List.length (List.filter (fun o -> o.holds) outcomes) in
  Format.fprintf fmt "total %d/%d PASS@\n" passed (List.length outcomes)
