(* Extension beyond the paper: general omission failures [PT86], which
   Section 2.1 explicitly sets aside.  The knowledge machinery is
   failure-mode agnostic, so we can ask which results survive:

   - the Prop 5.1 / Thm 5.2 construction still yields optimal nontrivial
     agreement protocols, with the fixed point still reached in two steps
     (supporting the paper's "our techniques will extend" conjecture);
   - the semantic 0-chain protocol remains correct here;
   - but the *operational* chain protocol's fault detection (silence
     convicts the sender) is sound yet no longer live: with receive
     omissions a missing message cannot be pinned on the sender, so some
     runs never reach the quiet-round condition. *)

module F = Eba.Formula
module M = Eba.Model
module KB = Eba.Kb_protocol
module Spec = Eba.Spec
module Dom = Eba.Dominance
module Con = Eba.Construct
module Ch = Eba.Characterize
module Zoo = Eba.Zoo
module U = Eba.Universe
module Params = Eba.Params
open Helpers

let general_3_1_2 = fixture ~n:3 ~t:1 ~horizon:2 ~mode:Params.General_omission

let tests =
  [
    test "universe enumeration matches the count formula" (fun () ->
        let params = general_3_1_2.params in
        check_int "count" (U.count params) (List.length (U.patterns params)));
    test "receive omissions remove messages" (fun () ->
        let params = general_3_1_2.params in
        let b =
          Eba.Pattern.general ~horizon:2 ~proc:1
            ~send:[| Eba.Bitset.empty; Eba.Bitset.empty |]
            ~recv:[| Eba.Bitset.singleton 0; Eba.Bitset.empty |]
        in
        let p = Eba.Pattern.make params [ b ] in
        check "dropped on receipt" false
          (Eba.Pattern.delivers p ~round:1 ~sender:0 ~receiver:1);
        check "sender unaffected elsewhere" true
          (Eba.Pattern.delivers p ~round:1 ~sender:0 ~receiver:2);
        check "second round fine" true
          (Eba.Pattern.delivers p ~round:2 ~sender:0 ~receiver:1));
    test "Thm 5.2 extends: two-step optimize gives optimal NTA" (fun () ->
        let e = env general_3_1_2 in
        let m = model general_3_1_2 in
        List.iter
          (fun (name, seed) ->
            let opt, steps = Con.iterate_until_fixpoint e seed in
            let d = KB.decide m opt in
            check (name ^ " steps<=2") true (steps <= 2);
            check (name ^ " NTA") true (Spec.is_nontrivial_agreement (Spec.check d));
            check (name ^ " optimal") true (Ch.is_optimal e d);
            check (name ^ " dominates") true (Dom.dominates d (KB.decide m seed)))
          [ ("never", KB.never_decide m); ("chain0", Zoo.chain_zero e) ]);
    test "Prop 4.3 necessity still holds" (fun () ->
        let e = env general_3_1_2 in
        let m = model general_3_1_2 in
        List.iter
          (fun pair ->
            check "no failures" true (Ch.necessary e (KB.decide m pair) = []))
          [ Zoo.chain_zero e; Con.optimize e (KB.never_decide m) ]);
    test "semantic chain protocol remains EBA under general omissions" (fun () ->
        let e = env general_3_1_2 in
        let m = model general_3_1_2 in
        check "eba" true (Spec.is_eba (Spec.check (KB.decide m (Zoo.chain_zero e)))));
    test "operational Chain0 is safe but not live under general omissions" (fun () ->
        let params = general_3_1_2.params in
        let s = Eba.Stats.exhaustive (module Eba.Chain0) params in
        check "agreement" true (s.Eba.Stats.tally.agreement_violations = 0);
        check "validity" true (s.Eba.Stats.tally.validity_violations = 0);
        check "liveness lost" true (s.Eba.Stats.tally.undecided_nonfaulty > 0));
    test "crash and sending-omission runs embed into the general mode" (fun () ->
        (* an Omits behaviour is accepted in general mode and produces the
           same deliveries *)
        let params_g = general_3_1_2.params in
        let params_o = Params.make ~n:3 ~t:1 ~horizon:2 ~mode:Params.Omission in
        let omits = [| Eba.Bitset.singleton 2; Eba.Bitset.empty |] in
        let b = Eba.Pattern.omission ~horizon:2 ~proc:0 ~omits in
        let pg = Eba.Pattern.make params_g [ b ] in
        let po = Eba.Pattern.make params_o [ b ] in
        for round = 1 to 2 do
          for s = 0 to 2 do
            for r = 0 to 2 do
              if s <> r then
                check "same delivery"
                  (Eba.Pattern.delivers po ~round ~sender:s ~receiver:r)
                  (Eba.Pattern.delivers pg ~round ~sender:s ~receiver:r)
            done
          done
        done);
  ]

let suite = ("general-omission", tests)
