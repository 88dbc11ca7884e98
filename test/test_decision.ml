(* Decision sets, knowledge-based protocols, the specification checker and
   the dominance order. *)

module F = Eba.Formula
module M = Eba.Model
module P = Eba.Pset
module DS = Eba.Decision_set
module KB = Eba.Kb_protocol
module Spec = Eba.Spec
module Dom = Eba.Dominance
module Zoo = Eba.Zoo
module Val = Eba.Value
module B = Eba.Bitset
open Helpers

let decision_set_tests =
  [
    test "empty set has no members" (fun () ->
        let m = model crash_3_1_3 in
        check_int "card" 0 (DS.cardinal (DS.empty m));
        check "is_empty" true (DS.is_empty (DS.empty m)));
    test "believes on B^N e0 is persistent" (fun () ->
        let m = model crash_3_1_3 in
        let e = env crash_3_1_3 in
        let z = DS.believes e (F.nonfaulty e) (F.exists e Val.Zero) in
        check "nonempty" false (DS.is_empty z);
        check "persistent" true (DS.persistent m z));
    test "of_formulas rejects non-measurable formulas" (fun () ->
        let m = model crash_3_1_3 in
        let e = env crash_3_1_3 in
        (* ∃0 is a property of the run, not of any processor's view *)
        Alcotest.check_raises "not measurable"
          (Invalid_argument "Decision_set.of_formulas: formula not view-measurable")
          (fun () ->
            ignore (Decision_set_ref.of_formulas e (fun _ -> F.exists_value m Val.Zero))));
    test "points projection agrees with membership" (fun () ->
        let m = model crash_3_1_3 in
        let e = env crash_3_1_3 in
        let z = DS.believes e (F.nonfaulty e) (F.exists e Val.Zero) in
        let pts = DS.points m z ~proc:1 in
        M.iter_points m (fun pid ->
            check "agree" (DS.mem z (M.view_at m ~point:pid ~proc:1)) (P.mem pts pid)));
    test "union and inter" (fun () ->
        let m = model crash_3_1_3 in
        let store = m.M.store in
        let a = DS.of_views m (fun v -> Eba.View.time store v = 1) in
        let b = DS.of_views m (fun v -> Eba.View.knows_zero store v) in
        let u = DS.union m a b and i = DS.inter m a b in
        check "inter sub union" true (DS.cardinal i <= DS.cardinal u);
        check "union card" true
          (DS.cardinal u = DS.cardinal a + DS.cardinal b - DS.cardinal i));
  ]

(* The all-owner belief table against the per-processor reference: each
   [B^S_i φ] evaluated and projected onto [i]'s views on its own. *)
let believes_tests =
  List.map
    (fun (fixture_name, (pool : Test_epistemic.pool)) ->
      qtest ~count:30
        (Printf.sprintf "believes = per-processor of_formulas reference [%s]" fixture_name)
        QCheck2.Gen.(pair (Test_epistemic.gen_small pool) (int_bound 2))
        (fun (phi, si) ->
          let e = pool.p_env and s = pool.rigids.(si) in
          let reference = Decision_set_ref.of_formulas e (fun i -> F.B (s, i, phi)) in
          DS.equal (DS.believes e s phi) reference))
    (Lazy.force Test_epistemic.pools)

let kb_tests =
  [
    test "never_decide has no outcomes" (fun () ->
        let m = model crash_3_1_3 in
        let d = KB.decide m (KB.never_decide m) in
        for run = 0 to M.nruns m - 1 do
          for i = 0 to 2 do
            check "none" true (KB.outcome d ~run ~proc:i = None)
          done
        done);
    test "first-entry semantics" (fun () ->
        let m = model crash_3_1_3 in
        let store = m.M.store in
        (* decide 0 at time >= 1 always: outcome should be time 1 *)
        let zero = DS.of_views m (fun v -> Eba.View.time store v >= 1) in
        let d = KB.decide m { KB.zero; one = DS.empty m } in
        for run = 0 to M.nruns m - 1 do
          match KB.outcome d ~run ~proc:0 with
          | Some { Eba.Decision.at; value } ->
              check_int "time" 1 at;
              check "value" true (Val.equal value Val.Zero)
          | None -> Alcotest.fail "expected decision"
        done);
    test "ambiguity is recorded" (fun () ->
        let m = model crash_3_1_3 in
        let store = m.M.store in
        let all1 = DS.of_views m (fun v -> Eba.View.time store v = 1) in
        let d = KB.decide m { KB.zero = all1; one = all1 } in
        check "ambiguous" false (d.KB.ambiguities = []);
        check "no outcome" true (KB.outcome d ~run:0 ~proc:0 = None));
    test "decided_atom is persistent and exclusive (Prop 4.1)" (fun () ->
        let m = model crash_3_1_3 in
        let e = env crash_3_1_3 in
        let pair = Zoo.p0 e in
        let d = KB.decide m pair in
        for i = 0 to 2 do
          let d0 = KB.decided_atom e d Val.Zero i in
          let d1 = KB.decided_atom e d Val.One i in
          check "exclusive" true
            (F.valid e (F.Implies (d0, F.Not d1)));
          check "persistent" true
            (F.valid e (F.Implies (d0, F.Always d0)));
          (* 4.1(b): a processor knows its own decision state *)
          check "introspective+" true (F.valid e (F.Iff (d0, F.K (i, d0))));
          check "introspective-" true
            (F.valid e (F.Iff (F.Not d0, F.K (i, F.Not d0))))
        done);
  ]

let spec_tests =
  [
    test "P0 is EBA in crash mode" (fun () ->
        let m = model crash_3_1_3 in
        let e = env crash_3_1_3 in
        let r = Spec.check (KB.decide m (Zoo.p0 e)) in
        check "eba" true (Spec.is_eba r);
        check "not sba" false (Spec.is_sba r));
    test "P1 is EBA in crash mode" (fun () ->
        let m = model crash_3_1_3 in
        let e = env crash_3_1_3 in
        check "eba" true (Spec.is_eba (Spec.check (KB.decide m (Zoo.p1 e)))));
    test "never_decide is NTA but not EBA" (fun () ->
        let m = model crash_3_1_3 in
        let r = Spec.check (KB.decide m (KB.never_decide m)) in
        check "nta" true (Spec.is_nontrivial_agreement r);
        check "not eba" false (Spec.is_eba r);
        check "no decision" false r.Spec.decision);
    test "a broken protocol is caught" (fun () ->
        (* decide your own value at time 0: violates agreement *)
        let m = model crash_3_1_3 in
        let store = m.M.store in
        let own v target =
          Eba.View.time store v = 0 && Val.equal (Eba.View.init_value store v) target
        in
        let pair =
          {
            KB.zero = DS.of_views m (fun v -> own v Val.Zero);
            one = DS.of_views m (fun v -> own v Val.One);
          }
        in
        let r = Spec.check (KB.decide m pair) in
        check "agreement broken" false r.Spec.agreement;
        check "weak validity still fine" true r.Spec.weak_validity);
    test "max decision time of P0 is t+1" (fun () ->
        let m = model crash_3_1_3 in
        let e = env crash_3_1_3 in
        let r = Spec.check (KB.decide m (Zoo.p0 e)) in
        check "max" true (r.Spec.max_decision_time = Some 2));
  ]

let dominance_tests =
  [
    test "every protocol dominates itself, not strictly" (fun () ->
        let m = model crash_3_1_3 in
        let e = env crash_3_1_3 in
        let d = KB.decide m (Zoo.p0 e) in
        let v = Dom.compare d d in
        check "dom" true v.Dom.dominates;
        check "not strict" false v.Dom.strictly;
        check "equivalent" true (Dom.equivalent d d));
    test "everything dominates never_decide" (fun () ->
        let m = model crash_3_1_3 in
        let e = env crash_3_1_3 in
        let d_p0 = KB.decide m (Zoo.p0 e) in
        let d_never = KB.decide m (KB.never_decide m) in
        check "dominates" true (Dom.strictly_dominates d_p0 d_never);
        check "converse fails" false (Dom.dominates d_never d_p0));
    test "P0 and P1 are incomparable" (fun () ->
        let m = model crash_3_1_3 in
        let e = env crash_3_1_3 in
        let d0 = KB.decide m (Zoo.p0 e) in
        let d1 = KB.decide m (Zoo.p1 e) in
        check "P0 !> P1" false (Dom.dominates d0 d1);
        check "P1 !> P0" false (Dom.dominates d1 d0));
    test "domination is transitive here" (fun () ->
        let m = model crash_3_1_3 in
        let e = env crash_3_1_3 in
        let a = KB.decide m (Zoo.f_lambda_2 e) in
        let b = KB.decide m (Zoo.p0 e) in
        let c = KB.decide m (KB.never_decide m) in
        check "a>b" true (Dom.dominates a b);
        check "b>c" true (Dom.dominates b c);
        check "a>c" true (Dom.dominates a c));
  ]

(* First-entry semantics written out per (run, i) through [Model.view]:
   each processor stops at its first view in either set, an ambiguity if
   the view is in both. *)
let decide_ref m (pair : KB.pair) =
  let n = M.n m in
  let table = Array.make (M.nruns m * n) None and ambiguities = ref [] in
  for run = 0 to M.nruns m - 1 do
    for i = 0 to n - 1 do
      let rec first time =
        if time <= M.horizon m then
          let v = M.view m ~run ~time ~proc:i in
          match (DS.mem pair.KB.zero v, DS.mem pair.KB.one v) with
          | true, true -> ambiguities := (run, i, time) :: !ambiguities
          | true, false -> table.((run * n) + i) <- Some { Eba.Decision.at = time; value = Val.Zero }
          | false, true -> table.((run * n) + i) <- Some { Eba.Decision.at = time; value = Val.One }
          | false, false -> first (time + 1)
      in
      first 0
    done
  done;
  (table, List.rev !ambiguities)

let decide_oracle_tests =
  [
    qtest ~count:40
      ~print:(fun (seed, rate) -> Printf.sprintf "seed %d, rate %d/64" seed rate)
      "decide = the per-(run, i) first-entry scan, random overlapping pairs"
      QCheck2.Gen.(pair nat (oneofl [ 1; 4; 16; 32; 63 ]))
      (fun (seed, rate) ->
        List.for_all
          (fun (_, fx) ->
            let m = model fx in
            let set salt =
              DS.of_views m (fun v -> Hashtbl.hash (seed, salt, v) land 63 < rate)
            in
            let pair = { KB.zero = set 0; one = set 1 } in
            let d = KB.decide m pair in
            (d.KB.table, d.KB.ambiguities) = decide_ref m pair)
          small_fixtures);
  ]

let suite =
  ( "decision",
    decision_set_tests @ believes_tests @ kb_tests @ spec_tests @ dominance_tests
    @ decide_oracle_tests )
