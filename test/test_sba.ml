(* Extension: simultaneous Byzantine agreement at the knowledge level
   (after [DM90]) — the contrast class the paper measures EBA against.

   - common knowledge of the supporting fact gives a genuinely
     simultaneous protocol;
   - it dominates the fixed-time rule, strictly once t ≥ 2 (the
     Dwork–Moses "waste" effect: a visible early crash lets everyone
     decide before t+1);
   - the optimal EBA protocol strictly dominates both — the eventual/
     simultaneous gap of the paper's introduction. *)

module KB = Eba.Kb_protocol
module Spec = Eba.Spec
module Dom = Eba.Dominance
module Zoo = Eba.Zoo
open Helpers

let tests =
  [
    test "SBA-CK is a simultaneous agreement protocol (crash t=1)" (fun () ->
        let m = model crash_3_1_3 in
        let e = env crash_3_1_3 in
        let r = Spec.check (KB.decide m (Zoo.sba_common_knowledge e)) in
        check "sba" true (Spec.is_sba r));
    test "fixed-time FloodSet is SBA too" (fun () ->
        let m = model crash_3_1_3 in
        let e = env crash_3_1_3 in
        check "sba" true (Spec.is_sba (Spec.check (KB.decide m (Zoo.sba_fixed_time e)))));
    test "SBA-CK dominates the fixed-time rule" (fun () ->
        let m = model crash_3_1_3 in
        let e = env crash_3_1_3 in
        check "dominates" true
          (Dom.dominates
             (KB.decide m (Zoo.sba_common_knowledge e))
             (KB.decide m (Zoo.sba_fixed_time e))));
    test "optimal EBA strictly dominates SBA-CK" (fun () ->
        let m = model crash_3_1_3 in
        let e = env crash_3_1_3 in
        check "strict" true
          (Dom.strictly_dominates
             (KB.decide m (Zoo.f_lambda_2 e))
             (KB.decide m (Zoo.sba_common_knowledge e))));
    slow "at t=2 the CK rule strictly beats fixed time (DM90 waste)" (fun () ->
        let m = model crash_4_2_4 in
        let e = env crash_4_2_4 in
        let d_ck = KB.decide m (Zoo.sba_common_knowledge e) in
        let r = Spec.check d_ck in
        check "sba" true (Spec.is_sba r);
        check "strict over fixed time" true
          (Dom.strictly_dominates d_ck (KB.decide m (Zoo.sba_fixed_time e)));
        check "EBA optimum strictly better still" true
          (Dom.strictly_dominates (KB.decide m (Zoo.f_lambda_2 e)) d_ck));
    test "SBA decisions never precede the EBA optimum's" (fun () ->
        (* domination already implies it, but check the simultaneity gap
           run by run: in the failure-free all-one run the EBA optimum is
           a full round earlier *)
        let m = model crash_3_1_3 in
        let e = env crash_3_1_3 in
        let d_eba = KB.decide m (Zoo.f_lambda_2 e) in
        let d_sba = KB.decide m (Zoo.sba_common_knowledge e) in
        let pattern = Eba.Pattern.failure_free crash_3_1_3.params in
        let config = Eba.Config.constant ~n:3 Eba.Value.One in
        let run = (Option.get (Eba.Model.find_run m ~config ~pattern)).Eba.Model.index in
        let at d i =
          match KB.outcome d ~run ~proc:i with
          | Some { Eba.Decision.at; _ } -> at
          | None -> max_int
        in
        for i = 0 to 2 do
          check "strictly earlier" true (at d_eba i < at d_sba i)
        done);
  ]

let suite = ("sba", tests)
