(* The Section 5 machinery: Prop 5.1 steps, the Theorem 5.2 two-step
   optimizer, the Theorem 5.3 characterization, and the Prop 4.3 / 4.4
   conditions (experiments E6, E7, E8). *)

module F = Eba.Formula
module M = Eba.Model
module KB = Eba.Kb_protocol
module Spec = Eba.Spec
module Dom = Eba.Dominance
module Con = Eba.Construct
module Ch = Eba.Characterize
module Zoo = Eba.Zoo
module DS = Eba.Decision_set
module Val = Eba.Value
open Helpers

(* Nontrivial-agreement seed protocols to optimize, per fixture. *)
let seeds fixture =
  let e = env fixture in
  let m = model fixture in
  match fixture.params.Eba.Params.mode with
  | Eba.Params.Crash ->
      [ ("F^Λ", KB.never_decide m); ("P0", Zoo.p0 e); ("P1", Zoo.p1 e) ]
  | Eba.Params.Omission | Eba.Params.General_omission ->
      [ ("F^Λ", KB.never_decide m); ("chain0", Zoo.chain_zero e) ]

let nta_fixtures = [ ("crash n=3 t=1 T=3", crash_3_1_3); ("omission n=3 t=1 T=3", omission_3_1_3) ]

let step_tests =
  List.concat_map
    (fun (fname, fixture) ->
      [
        test (Printf.sprintf "Prop 5.1: both steps give dominating NTAs [%s]" fname)
          (fun () ->
            let e = env fixture in
            let m = model fixture in
            List.iter
              (fun (sname, pair) ->
                let d = KB.decide m pair in
                List.iter
                  (fun (order_name, order) ->
                    let stepped = Con.step order e pair in
                    let d' = KB.decide m stepped in
                    check
                      (Printf.sprintf "%s/%s NTA" sname order_name)
                      true
                      (Spec.is_nontrivial_agreement (Spec.check d'));
                    check
                      (Printf.sprintf "%s/%s dominates" sname order_name)
                      true (Dom.dominates d' d))
                  [ ("zero-first", Con.Zero_first); ("one-first", Con.One_first) ])
              (seeds fixture));
        test (Printf.sprintf "Thm 5.2: two-step optimize is optimal [%s]" fname)
          (fun () ->
            let e = env fixture in
            let m = model fixture in
            List.iter
              (fun (sname, pair) ->
                List.iter
                  (fun first ->
                    let opt = Con.optimize ~first e pair in
                    let d = KB.decide m opt in
                    check (sname ^ " NTA") true
                      (Spec.is_nontrivial_agreement (Spec.check d));
                    check (sname ^ " optimal") true (Ch.is_optimal e d);
                    check (sname ^ " dominates seed") true
                      (Dom.dominates d (KB.decide m pair)))
                  [ Con.Zero_first; Con.One_first ])
              (seeds fixture));
        test (Printf.sprintf "Thm 5.2: fixed point within two steps [%s]" fname)
          (fun () ->
            let e = env fixture in
            List.iter
              (fun (sname, pair) ->
                let _, steps = Con.iterate_until_fixpoint e pair in
                check (sname ^ " <=2 steps") true (steps <= 2))
              (seeds fixture));
        test
          (Printf.sprintf "Thm 5.2: EBA seeds give optimal EBA [%s]" fname)
          (fun () ->
            let e = env fixture in
            let m = model fixture in
            List.iter
              (fun (sname, pair) ->
                let seed_report = Spec.check (KB.decide m pair) in
                if Spec.is_eba seed_report then begin
                  let opt = Con.optimize e pair in
                  let d = KB.decide m opt in
                  check (sname ^ " optimal EBA") true
                    (Spec.is_eba (Spec.check d) && Ch.is_optimal e d)
                end)
              (seeds fixture));
      ])
    nta_fixtures

let characterization_tests =
  [
    test "Prop 4.3 necessity holds for every NTA protocol" (fun () ->
        List.iter
          (fun (fname, fixture) ->
            let e = env fixture in
            let m = model fixture in
            List.iter
              (fun (sname, pair) ->
                let d = KB.decide m pair in
                Alcotest.(check (list string))
                  (Printf.sprintf "%s/%s" fname sname)
                  []
                  (List.map (fun f -> f.Ch.condition) (Ch.necessary e d)))
              (seeds fixture))
          nta_fixtures);
    test "Thm 5.3 rejects the non-optimal P0" (fun () ->
        let e = env crash_3_1_3 in
        let m = model crash_3_1_3 in
        check "P0 not optimal" false (Ch.is_optimal e (KB.decide m (Zoo.p0 e)));
        check "failures witness it" true
          (Ch.optimality_failures e (KB.decide m (Zoo.p0 e)) <> []));
    test "Thm 5.3 accepts F^Λ,2 (crash)" (fun () ->
        let e = env crash_3_1_3 in
        let m = model crash_3_1_3 in
        check "optimal" true (Ch.is_optimal e (KB.decide m (Zoo.f_lambda_2 e))));
    test "Prop 4.4 sufficiency: F^Λ,2 satisfies the one-anchored variant" (fun () ->
        let e = env crash_3_1_3 in
        let m = model crash_3_1_3 in
        let d = KB.decide m (Zoo.f_lambda_2 e) in
        check "one-anchored" true (Ch.sufficient_one_anchored e d));
    test "optimize is idempotent on the result" (fun () ->
        let e = env crash_3_1_3 in
        let fl2 = Zoo.f_lambda_2 e in
        let again = Con.optimize ~first:Con.One_first e fl2 in
        check "unchanged" true (KB.pair_equal fl2 again));
  ]

(* The belief-table Theorem 5.3 walk against the per-processor formula
   oracle, compared as whole failure lists: conditions, witnesses and
   their order. *)
let render failures =
  List.map (fun f -> Printf.sprintf "%s @ point %d" f.Ch.condition f.Ch.point) failures

let same_failures label e d =
  Alcotest.(check (list string))
    label
    (render (Characterize_ref.optimality_failures e d))
    (render (Ch.optimality_failures e d))

(* A random decision pair over the pool's model: never-decide, P0 or
   F^Λ,2 with each view's bit in each set flipped at [rate]/64. *)
let random_pair (pool : Test_epistemic.pool) (base, seed, rate) =
  let m = pool.p_model and e = pool.p_env in
  let base = match base with 0 -> KB.never_decide m | 1 -> Zoo.p0 e | _ -> Zoo.f_lambda_2 e in
  let perturb salt set =
    DS.of_views m (fun v -> DS.mem set v <> (Hashtbl.hash (seed, salt, v) land 63 < rate))
  in
  { KB.zero = perturb 0 base.KB.zero; one = perturb 1 base.KB.one }

let optimality_oracle_tests =
  List.map
    (fun (fixture_name, (pool : Test_epistemic.pool)) ->
      qtest ~count:60
        ~print:(fun (b, s, r) -> Printf.sprintf "base %d, seed %d, rate %d/64" b s r)
        (Printf.sprintf "optimality_failures = formula oracle, random pairs [%s]" fixture_name)
        QCheck2.Gen.(triple (int_bound 2) nat (oneofl [ 0; 1; 4; 16; 32 ]))
        (fun draw ->
          let d = KB.decide pool.p_model (random_pair pool draw) in
          Ch.optimality_failures pool.p_env d
          = Characterize_ref.optimality_failures pool.p_env d))
    (Lazy.force Test_epistemic.pools)
  @ [
      test "optimality_failures = formula oracle, every Zoo pair" (fun () ->
          List.iter
            (fun (fname, fixture) ->
              let e = env fixture and m = model fixture in
              List.iter
                (fun name ->
                  let d = KB.decide m ((Option.get (Zoo.by_name name)) e) in
                  same_failures (Printf.sprintf "%s/%s" fname name) e d)
                Zoo.names)
            [
              ("crash n=3 t=1 T=3", crash_3_1_3);
              ("crash n=4 t=1 T=3", crash_4_1_3);
              ("omission n=3 t=1 T=3", omission_3_1_3);
            ]);
    ]

(* Random NTA protocols: delay P0's decisions by per-processor offsets;
   delaying decisions preserves nontrivial agreement, so the construction
   must dominate and optimize each of them. *)
let delayed_p0 fixture d0 d1 =
  let e = env fixture in
  let m = model fixture in
  let store = m.M.store in
  let t1 = fixture.params.Eba.Params.t_failures + 1 in
  let zero =
    DS.of_views m (fun v ->
        Eba.View.knows_zero store v && Eba.View.time store v >= d0)
  in
  let one =
    DS.of_views m (fun v ->
        Eba.View.time store v >= t1 + d1 && not (Eba.View.knows_zero store v))
  in
  ignore e;
  { KB.zero; one }

let random_delay_tests =
  [
    qtest ~count:9 "optimizing randomly delayed P0 variants (crash)"
      QCheck2.Gen.(pair (int_bound 2) (int_bound 1))
      (fun (d0, d1) ->
        let fixture = crash_3_1_3 in
        let e = env fixture in
        let m = model fixture in
        let pair = delayed_p0 fixture d0 d1 in
        let d = KB.decide m pair in
        Spec.is_nontrivial_agreement (Spec.check d)
        &&
        let opt = Con.optimize e pair in
        let dopt = KB.decide m opt in
        Spec.is_nontrivial_agreement (Spec.check dopt)
        && Ch.is_optimal e dopt && Dom.dominates dopt d);
  ]

let value_symmetry_tests =
  [
    test "optimal protocols decide 0 exactly on B(e0 ∧ C□ e0)" (fun () ->
        (* the two 5.3 equivalences, spot-checked through the public
           formula API rather than Characterize *)
        let fixture = crash_3_1_3 in
        let e = env fixture in
        let m = model fixture in
        let pair = Zoo.f_lambda_2 e in
        let d = KB.decide m pair in
        let nf = Eba.Nonrigid.nonfaulty m in
        let n_and_o = KB.conjoin e nf "N&O" pair.KB.one in
        let e0 = F.exists_value m Val.Zero in
        for i = 0 to 2 do
          let lhs = KB.decided_atom e d Val.Zero i in
          let rhs =
            F.B
              ( nf,
                i,
                F.And
                  [
                    e0;
                    F.Cbox (n_and_o, e0);
                    F.Not (KB.decided_atom e d Val.One i);
                  ] )
          in
          check "iff on nonfaulty" true
            (F.valid e (F.Implies (F.In (nf, i), F.Iff (lhs, rhs))))
        done);
  ]

(* The env's conjunction memo and the steps that keep unchanged sets: the
   construction and the optimality check share [N ∧ A] and its closure. *)
let sharing_tests =
  [
    qtest ~count:30 "conjoin: restrict_by_view's table, one value per (set, S, name)"
      QCheck2.Gen.(triple (int_bound 4) bool int)
      (fun (quarters, everyone, seed) ->
        let m = model crash_3_1_3 in
        let e = F.env m in
        let st = Random.State.make [| seed |] in
        let a = DS.of_views m (fun _ -> Random.State.int st 4 < quarters) in
        let s = if everyone then Eba.Nonrigid.everyone m else F.nonfaulty e in
        let other = if everyone then F.nonfaulty e else Eba.Nonrigid.everyone m in
        let c = KB.conjoin e s "S&A" a in
        let r = Eba.Nonrigid.restrict_by_view m ~name:"S&A" s (a :> Bytes.t) in
        c.Eba.Nonrigid.table = r.Eba.Nonrigid.table
        && KB.conjoin e s "S&B" a != c
        && KB.conjoin e other "S&A" a != c
        && KB.conjoin e s "S&A" a == c);
    test "a step returns its input's object for each set it leaves byte-equal"
      (fun () ->
        let e = env crash_3_1_3 in
        let kept = ref 0 in
        List.iter
          (fun (sname, pair) ->
            List.iter
              (fun order ->
                let next = Con.step order e pair in
                List.iter
                  (fun (old, fresh) ->
                    check (sname ^ ": kept iff byte-equal") (DS.equal old fresh) (old == fresh);
                    if old == fresh then incr kept)
                  [ (pair.KB.zero, next.KB.zero); (pair.KB.one, next.KB.one) ])
              [ Con.Zero_first; Con.One_first ])
          (seeds crash_3_1_3 @ [ ("F^Λ,2", Zoo.f_lambda_2 e) ]);
        check "some set kept" true (!kept > 0));
    test "the optimality check shares the construction's N ∧ A closures" (fun () ->
        let m = model crash_4_1_4 in
        List.iter
          (fun (name, build, closures) ->
            let spans, unions =
              with_metrics (fun () ->
                  let e = F.env m in
                  let d = KB.decide m (build e) in
                  check (name ^ " optimal") true (Ch.is_optimal e d);
                  (counter_value "continual.closure", counter_value "continual.uf_unions"))
            in
            check_int (name ^ ": continual.closure spans") closures spans;
            check_int (name ^ ": continual.uf_unions") 16_552 unions)
          [ ("F^Λ,2", Zoo.f_lambda_2, 3); ("F*", Zoo.f_star, 2) ]);
  ]

let suite =
  ( "construct",
    step_tests @ characterization_tests @ optimality_oracle_tests @ random_delay_tests
    @ value_symmetry_tests @ sharing_tests )
