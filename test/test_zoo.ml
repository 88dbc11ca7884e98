(* The Section 2 and Section 6 protocols: Prop 2.1 (no optimum), the
   P0/P0opt story (E1, E2), Theorem 6.1 (E9), Prop 6.3 (E10),
   Prop 6.4 / Cor 6.5 (E11) and Prop 6.6 (E12). *)

module F = Eba.Formula
module M = Eba.Model
module KB = Eba.Kb_protocol
module Spec = Eba.Spec
module Dom = Eba.Dominance
module Con = Eba.Construct
module Ch = Eba.Characterize
module Zoo = Eba.Zoo
module Facts = Eba.Facts
module Val = Eba.Value
module B = Eba.Bitset
module Pat = Eba.Pattern
module Cfg = Eba.Config
open Helpers

(* --- E1 / Prop 2.1: no optimum EBA protocol --- *)

let no_optimum_tests =
  [
    test "P0 deciders with value 0 decide at time 0; P1 mirrors" (fun () ->
        let e = env crash_3_1_3 in
        let m = model crash_3_1_3 in
        let d0 = KB.decide m (Zoo.p0 e) in
        let d1 = KB.decide m (Zoo.p1 e) in
        for run = 0 to M.nruns m - 1 do
          let cfg = (M.run_of_point m (M.point m ~run ~time:0)).M.config in
          B.iter
            (fun i ->
              (match KB.outcome d0 ~run ~proc:i with
              | Some { Eba.Decision.at; value } when Val.equal (Cfg.value cfg i) Val.Zero ->
                  check "P0 time 0" true (at = 0 && Val.equal value Val.Zero)
              | Some _ | None -> ());
              match KB.outcome d1 ~run ~proc:i with
              | Some { Eba.Decision.at; value } when Val.equal (Cfg.value cfg i) Val.One ->
                  check "P1 time 0" true (at = 0 && Val.equal value Val.One)
              | Some _ | None -> ())
            (M.nonfaulty m ~run)
        done);
    test "no protocol dominates both P0 and P1 (DS82 lower bound)" (fun () ->
        (* a protocol dominating both would decide everything at time 0;
           time-0 decisions depend only on the initial value, and both
           all-zero and all-one runs share each single-value view, so any
           time-0 rule violates agreement or validity somewhere.  We verify
           the concrete consequence: even the optimal F^Λ,2 fails to
           dominate P0 and P1 simultaneously. *)
        let e = env crash_3_1_3 in
        let m = model crash_3_1_3 in
        let dopt = KB.decide m (Zoo.f_lambda_2 e) in
        let d0 = KB.decide m (Zoo.p0 e) in
        let d1 = KB.decide m (Zoo.p1 e) in
        check "dominates P0" true (Dom.dominates dopt d0);
        check "cannot also dominate P1" false (Dom.dominates dopt d1));
    test "t+1 lower bound: some run decides only at t+1" (fun () ->
        let e = env crash_3_1_3 in
        let m = model crash_3_1_3 in
        let r = Spec.check (KB.decide m (Zoo.f_lambda_2 e)) in
        check "max time = t+1" true (r.Spec.max_decision_time = Some 2));
  ]

(* --- E2 / §2.2 and E9 / Thm 6.1–6.2: the crash-mode story --- *)

let crash_story_tests =
  [
    test "Thm 6.1: F^Λ,2 = FIP(Z^cr, O^cr) as decision pairs" (fun () ->
        List.iter
          (fun fixture ->
            let e = env fixture in
            check "pairs equal" true
              (KB.pair_equal (Zoo.f_lambda_2 e) (Zoo.crash_simple e)))
          [ crash_3_1_3; crash_4_1_3 ]);
    test "F^Λ,1 reduces to Z = B^N ∃0, O = ∅ (Section 6.1)" (fun () ->
        (* The paper simplifies O^Λ,1 to B^N_i false and treats it as the
           empty set.  B^N_i false is not literally empty: it holds exactly
           at views whose owner knows its own faultiness (where all its
           nonfaulty decisions are moot), so the comparison is up to
           nonfaulty decisions. *)
        let e = env crash_3_1_3 in
        let m = model crash_3_1_3 in
        let fl1 = Zoo.f_lambda_1 e in
        let nf = Eba.Nonrigid.nonfaulty m in
        let expected_zero =
          Decision_set_ref.of_formulas e (fun i ->
              F.B (nf, i, F.exists_value m Val.Zero))
        in
        check "zero set" true (Eba.Decision_set.equal fl1.KB.zero expected_zero);
        let reduced = { KB.zero = expected_zero; one = Eba.Decision_set.empty m } in
        check "one set = knows-own-faultiness only" true
          (Dom.equivalent (KB.decide m fl1) (KB.decide m reduced));
        (* and every O^Λ,1 view indeed knows its own faultiness *)
        let self_faulty =
          Decision_set_ref.of_formulas e (fun i ->
              F.K (i, F.Not (F.In (nf, i))))
        in
        check "O ⊆ self-known-faulty" true
          (Eba.Decision_set.equal
             (Eba.Decision_set.inter m fl1.KB.one self_faulty)
             fl1.KB.one));
    test "B^N ∃0 coincides with the structural knows-zero set" (fun () ->
        (* again up to self-known-faulty views, hence decision equivalence *)
        List.iter
          (fun fixture ->
            let e = env fixture in
            let m = model fixture in
            check "equivalent" true
              (Dom.equivalent
                 (KB.decide m (Zoo.crash_simple e))
                 (KB.decide m (Zoo.knows_zero_structural e))))
          [ crash_3_1_3; omission_3_1_2 ]);
    test "F^Λ,2 strictly dominates P0, is optimal EBA (crash)" (fun () ->
        List.iter
          (fun fixture ->
            let e = env fixture in
            let m = model fixture in
            let dopt = KB.decide m (Zoo.f_lambda_2 e) in
            let d0 = KB.decide m (Zoo.p0 e) in
            check "strict" true (Dom.strictly_dominates dopt d0);
            check "eba" true (Spec.is_eba (Spec.check dopt));
            check "optimal" true (Ch.is_optimal e dopt))
          [ crash_3_1_3; crash_4_1_3 ]);
    test "uniqueness: optimize(P0) = F^Λ,2 (crash)" (fun () ->
        (* §2.2 remarks F^Λ,2 is the unique optimal protocol dominating P0 *)
        let e = env crash_3_1_3 in
        let m = model crash_3_1_3 in
        let opt_p0, _ = Con.iterate_until_fixpoint e (Zoo.p0 e) in
        check "equivalent decisions" true
          (Dom.equivalent (KB.decide m opt_p0) (KB.decide m (Zoo.f_lambda_2 e))));
    slow "Thm 6.1 and optimality also at n=3 t=2" (fun () ->
        let e = env crash_3_2_4 in
        let m = model crash_3_2_4 in
        let fl2 = Zoo.f_lambda_2 e in
        check "pairs equal" true (KB.pair_equal fl2 (Zoo.crash_simple e));
        let d = KB.decide m fl2 in
        check "eba" true (Spec.is_eba (Spec.check d));
        check "optimal" true (Ch.is_optimal e d));
  ]

(* --- E10 / Prop 6.3: omission-mode non-termination of F^Λ,2 --- *)

let omission_nontermination_tests =
  [
    test "F^Λ,2 is NTA and optimal but not EBA in omission mode" (fun () ->
        let e = env omission_3_1_2 in
        let m = model omission_3_1_2 in
        let d = KB.decide m (Zoo.f_lambda_2 e) in
        let r = Spec.check d in
        check "nta" true (Spec.is_nontrivial_agreement r);
        check "optimal" true (Ch.is_optimal e d));
    slow "Prop 6.3: with t=2, n=4 the nonfaulty never decide (all-1, one silent)"
      (fun () ->
        let fixture = omission_4_2_2 in
        let e = env fixture in
        let m = model fixture in
        let d = KB.decide m (Zoo.f_lambda_2 e) in
        let r = Spec.check d in
        check "still NTA" true (Spec.is_nontrivial_agreement r);
        check "decision fails" false r.Spec.decision;
        (* the paper's witness run *)
        let horizon = 2 in
        let omits = Array.make horizon (B.of_list [ 1; 2; 3 ]) in
        let pattern =
          Pat.make fixture.params [ Pat.omission ~horizon ~proc:0 ~omits ]
        in
        let config = Cfg.constant ~n:4 Val.One in
        let run = (Option.get (M.find_run m ~config ~pattern)).M.index in
        B.iter
          (fun i -> check "no decision" true (KB.outcome d ~run ~proc:i = None))
          (M.nonfaulty m ~run));
  ]

(* --- E11 / Prop 6.4, Cor 6.5: the 0-chain protocol --- *)

let chain_tests =
  [
    test "chain facts: failure-free all-one run has no chains" (fun () ->
        let fixture = omission_3_1_3 in
        let e = env fixture in
        let m = model fixture in
        let pattern = Pat.failure_free fixture.params in
        let run =
          (Option.get (M.find_run m ~config:(Cfg.constant ~n:3 Val.One) ~pattern)).M.index
        in
        for time = 0 to 3 do
          check "no chain" false (Facts.chain_at e ~run ~time)
        done);
    test "chain facts: nonfaulty zero-holder is a chain at time 0" (fun () ->
        let fixture = omission_3_1_3 in
        let e = env fixture in
        let m = model fixture in
        let pattern = Pat.failure_free fixture.params in
        let run =
          (Option.get (M.find_run m ~config:(Cfg.of_bits ~n:3 0b110) ~pattern)).M.index
        in
        check "chain at 0" true (Facts.chain_at e ~run ~time:0));
    test "exists0* is monotone along runs" (fun () ->
        let fixture = omission_3_1_3 in
        let e = env fixture in
        let m = model fixture in
        let star = F.eval e (Facts.exists0_star e) in
        for run = 0 to M.nruns m - 1 do
          let prev = ref false in
          for time = 0 to 3 do
            let now = Eba.Pset.mem star (M.point m ~run ~time) in
            check "monotone" true ((not !prev) || now);
            prev := now
          done
        done);
    test "Cor 6.5: FIP(Z⁰,O⁰) is an EBA protocol (omission)" (fun () ->
        List.iter
          (fun fixture ->
            let e = env fixture in
            let m = model fixture in
            check "eba" true (Spec.is_eba (Spec.check (KB.decide m (Zoo.chain_zero e)))))
          [ omission_3_1_2; omission_3_1_3 ]);
    test "Prop 6.4: nonfaulty decide by time f+1" (fun () ->
        List.iter
          (fun fixture ->
            let e = env fixture in
            let m = model fixture in
            let d = KB.decide m (Zoo.chain_zero e) in
            for run = 0 to M.nruns m - 1 do
              let f =
                Pat.num_failures (M.run_of_point m (M.point m ~run ~time:0)).M.pattern
              in
              B.iter
                (fun i ->
                  match KB.outcome d ~run ~proc:i with
                  | Some { Eba.Decision.at; _ } -> check "≤ f+1" true (at <= f + 1)
                  | None -> Alcotest.fail "must decide")
                (M.nonfaulty m ~run)
            done)
          [ omission_3_1_3 ]);
    slow "Prop 6.4 at n=4 t=1" (fun () ->
        let fixture = omission_4_1_3 in
        let e = env fixture in
        let m = model fixture in
        let d = KB.decide m (Zoo.chain_zero e) in
        let r = Spec.check d in
        check "eba" true (Spec.is_eba r);
        for run = 0 to M.nruns m - 1 do
          let f = Pat.num_failures (M.run_of_point m (M.point m ~run ~time:0)).M.pattern in
          B.iter
            (fun i ->
              match KB.outcome d ~run ~proc:i with
              | Some { Eba.Decision.at; _ } -> check "≤ f+1" true (at <= f + 1)
              | None -> Alcotest.fail "must decide")
            (M.nonfaulty m ~run)
        done);
  ]

(* --- E12 / Prop 6.6: F* --- *)

let f_star_tests =
  [
    test "Prop 6.6: F* is an optimal EBA protocol dominating FIP(Z⁰,O⁰)" (fun () ->
        List.iter
          (fun fixture ->
            let e = env fixture in
            let m = model fixture in
            let dstar = KB.decide m (Zoo.f_star e) in
            check "eba" true (Spec.is_eba (Spec.check dstar));
            check "optimal" true (Ch.is_optimal e dstar);
            check "dominates" true
              (Dom.dominates dstar (KB.decide m (Zoo.chain_zero e))))
          [ omission_3_1_2; omission_3_1_3 ]);
    test "Prop 6.6 simplification: F* = its closed form" (fun () ->
        List.iter
          (fun fixture ->
            let e = env fixture in
            check "pairs equal" true
              (KB.pair_equal (Zoo.f_star e) (Zoo.f_star_direct e)))
          [ omission_3_1_3 ]);
    test "Prop 6.6 intermediate: one-first step fixes chain0" (fun () ->
        let e = env omission_3_1_3 in
        let m = model omission_3_1_3 in
        let ch = Zoo.chain_zero e in
        let stepped = Con.step_one_first e ch in
        check "equivalent decisions" true
          (Dom.equivalent (KB.decide m stepped) (KB.decide m ch)));
    slow "F* at n=4 t=1 omission" (fun () ->
        (* Prop 6.6 claims domination, not strict domination; with t=1 the
           chain protocol is in fact already optimal, so the two protocols
           coincide on nonfaulty decisions. *)
        let e = env omission_4_1_3 in
        let m = model omission_4_1_3 in
        let dstar = KB.decide m (Zoo.f_star e) in
        let dchain = KB.decide m (Zoo.chain_zero e) in
        check "eba" true (Spec.is_eba (Spec.check dstar));
        check "optimal" true (Ch.is_optimal e dstar);
        check "dominates chain0" true (Dom.dominates dstar dchain);
        check "chain0 itself optimal at t=1" true (Ch.is_optimal e dchain));
  ]

(* --- the per-model 0-chain table: shared by concurrent queries, weak in
       its model --- *)

let star_of_model m =
  let e = F.env m in
  F.eval e (Facts.exists0_star e)

let star_of params = star_of_model (M.build ~jobs:1 params)

let chain_table_tests =
  [
    test "exists0* from two domains on distinct models agrees with one domain"
      (fun () ->
        let universes = [| omission_3_1_2.params; omission_3_1_3.params |] in
        let expected = Array.map star_of universes in
        let worker i () =
          List.for_all
            (fun _ -> Eba.Pset.equal (star_of universes.(i)) expected.(i))
            (List.init 6 Fun.id)
        in
        let domains = Array.init 2 (fun i -> Domain.spawn (worker i)) in
        check "both domains agree" true (Array.for_all Domain.join domains));
    test "a model dropped after exists0* is collected" (fun () ->
        let collected = ref false in
        let query () =
          let m = M.build ~jobs:1 omission_3_1_2.params in
          Gc.finalise (fun _ -> collected := true) m;
          ignore (Sys.opaque_identity (star_of_model m))
        in
        query ();
        Gc.full_major ();
        Gc.full_major ();
        check "finaliser fired" true !collected);
  ]

let suite =
  ( "zoo",
    no_optimum_tests @ crash_story_tests @ omission_nontermination_tests @ chain_tests
    @ f_star_tests @ chain_table_tests )
