(* The epistemic engine: S5 for K_i (Prop 3.1), the Lemma 3.4 axioms for
   continual common knowledge, agreement of the two C□ implementations,
   and the relation C□ ⇒ C (strict). *)

module F = Eba.Formula
module N = Eba.Nonrigid
module P = Eba.Pset
module M = Eba.Model
module K = Eba.Knowledge
module Cm = Eba.Common
module Ct = Eba.Continual
module T = Eba.Temporal
module Val = Eba.Value
module B = Eba.Bitset
open Helpers

(* --- a pool of atoms and nonrigid sets per fixture, built once --- *)

type pool = {
  p_env : F.env;
  p_model : M.t;
  atoms : F.t array;
  rigids : N.t array;  (* nonrigid sets to quantify over *)
  p_cells : Naive_build.t Lazy.t;  (* the model's CSR cells, for Knowledge_ref *)
}

let pool_of fixture =
  let m = model fixture in
  let e = env fixture in
  let pseudo salt =
    F.atom m (Printf.sprintf "rnd%d" salt) (fun pid -> (pid * 2654435761) lxor salt land 7 < 3)
  in
  let nf = N.nonfaulty m in
  let everyone = N.everyone m in
  let knows_zero =
    N.restrict_by_view m ~name:"N&kz" nf
      (Bytes.init (Eba.View.size m.M.store) (fun v ->
           if Eba.View.knows_zero m.M.store v then '\001' else '\000'))
  in
  {
    p_env = e;
    p_model = m;
    p_cells = lazy (Naive_build.of_model m);
    atoms =
      [|
        F.exists_value m Val.Zero;
        F.exists_value m Val.One;
        pseudo 17;
        pseudo 40961;
        F.Const true;
        F.Const false;
      |];
    rigids = [| nf; everyone; knows_zero |];
  }

let pools = lazy (List.map (fun (name, f) -> (name, pool_of f)) small_fixtures)

(* --- random formula generation --- *)

let gen_formula pool =
  let open QCheck2.Gen in
  let atom = map (fun i -> pool.atoms.(i mod Array.length pool.atoms)) small_nat in
  let nonrigid = map (fun i -> pool.rigids.(i mod Array.length pool.rigids)) small_nat in
  let proc = int_bound (M.n pool.p_model - 1) in
  sized
  @@ fix (fun self size ->
         if size = 0 then atom
         else
           let sub = self (size / 2) in
           oneof
             [
               atom;
               map (fun f -> F.Not f) sub;
               map2 (fun a b -> F.And [ a; b ]) sub sub;
               map2 (fun a b -> F.Or [ a; b ]) sub sub;
               map2 (fun a b -> F.Implies (a, b)) sub sub;
               map2 (fun i f -> F.K (i, f)) proc sub;
               map3 (fun s i f -> F.B (s, i, f)) nonrigid proc sub;
               map2 (fun s f -> F.E (s, f)) nonrigid sub;
               map2 (fun s f -> F.C (s, f)) nonrigid sub;
               map2 (fun s f -> F.Ebox (s, f)) nonrigid sub;
               map2 (fun s f -> F.Cbox (s, f)) nonrigid sub;
               map (fun f -> F.Always f) sub;
               map (fun f -> F.Eventually f) sub;
               map (fun f -> F.Throughout f) sub;
             ])

let gen_small pool = QCheck2.Gen.(gen_formula pool |> map Fun.id)

(* check a schema (formula-valued function of random subformulas) over all
   pooled fixtures *)
let axiom ?(count = 60) name mk =
  let pools = Lazy.force pools in
  List.map
    (fun (fixture_name, pool) ->
      qtest ~count
        (Printf.sprintf "%s [%s]" name fixture_name)
        QCheck2.Gen.(pair (gen_small pool) (gen_small pool))
        (fun (phi, psi) -> F.valid pool.p_env (mk pool phi psi)))
    pools

let proc0 = 0

(* --- deterministic spot checks --- *)

let spot_tests =
  [
    test "a 0-holder knows e0 at time 0" (fun () ->
        let m = model crash_3_1_3 in
        let e = env crash_3_1_3 in
        let e0 = F.exists_value m Val.Zero in
        let k = F.eval e (F.K (0, e0)) in
        M.iter_points m (fun pid ->
            if M.time_of_point m pid = 0 then begin
              let run = M.run_of_point m pid in
              let own_zero = Val.equal (Eba.Config.value run.M.config 0) Val.Zero in
              if own_zero then check "knows" true (P.mem k pid)
            end));
    test "nobody knows another's value at time 0" (fun () ->
        let m = model crash_3_1_3 in
        let e = env crash_3_1_3 in
        (* K_0 e0 must fail at time 0 when 0's own value is 1, even if
           someone else holds a 0 *)
        let e0 = F.exists_value m Val.Zero in
        let k = F.eval e (F.K (0, e0)) in
        M.iter_points m (fun pid ->
            if M.time_of_point m pid = 0 then begin
              let run = M.run_of_point m pid in
              if Val.equal (Eba.Config.value run.M.config 0) Val.One then
                check "cannot know" false (P.mem k pid)
            end));
    test "knows_zero structurally = K_i e0 semantically" (fun () ->
        (* the Section 2 claim that full-information views make the finest
           distinctions: knowing of a 0 is exactly containing a 0 *)
        List.iter
          (fun (_, fixture) ->
            let m = model fixture in
            let e = env fixture in
            let e0 = F.exists_value m Val.Zero in
            for i = 0 to M.n m - 1 do
              let k = F.eval e (F.K (i, e0)) in
              M.iter_points m (fun pid ->
                  let v = M.view_at m ~point:pid ~proc:i in
                  check "match" (Eba.View.knows_zero m.M.store v) (P.mem k pid))
            done)
          small_fixtures);
    test "E over empty set is vacuous" (fun () ->
        let m = model crash_3_1_3 in
        let e = env crash_3_1_3 in
        let nobody = N.rigid m ~name:"none" B.empty in
        check "valid" true (F.valid e (F.E (nobody, F.Const false))));
    test "C□ over empty set is vacuous" (fun () ->
        let m = model crash_3_1_3 in
        let e = env crash_3_1_3 in
        let nobody = N.rigid m ~name:"none" B.empty in
        check "valid" true (F.valid e (F.Cbox (nobody, F.Const false))));
    test "C□ strictly stronger than C" (fun () ->
        (* C_N e0 holds somewhere (e.g. late in a unanimous-0 failure-free
           run) while C□_N e0 holds nowhere in these models *)
        let m = model crash_3_1_3 in
        let e = env crash_3_1_3 in
        let nf = N.nonfaulty m in
        let e0 = F.exists_value m Val.Zero in
        let c = F.eval e (F.C (nf, e0)) in
        let cbox = F.eval e (F.Cbox (nf, e0)) in
        check "C somewhere" false (P.is_empty c);
        check "C□ nowhere" true (P.is_empty cbox);
        check "C□ ⊆ C" true (P.subset cbox c));
    test "common knowledge arises in unanimous runs" (fun () ->
        let m = model crash_3_1_3 in
        let e = env crash_3_1_3 in
        let nf = N.nonfaulty m in
        let e0 = F.eval e (F.C (nf, F.exists_value m Val.Zero)) in
        (* the all-zero failure-free run at the horizon *)
        let pattern = Eba.Pattern.failure_free crash_3_1_3.params in
        let config = Eba.Config.constant ~n:3 Val.Zero in
        let run = Option.get (M.find_run m ~config ~pattern) in
        check "C e0 at horizon" true (P.mem e0 (M.point m ~run:run.M.index ~time:3)));
    test "iterated E approximates C from above" (fun () ->
        let m = model crash_3_1_3 in
        let e = env crash_3_1_3 in
        let nf = N.nonfaulty m in
        let phi = F.eval e (F.exists_value m Val.Zero) in
        let c = Cm.common m nf phi in
        let rec chain prev k =
          if k > 4 then ()
          else begin
            let ek = Cm.iterated m nf k phi in
            check "decreasing" true (P.subset ek prev);
            check "C below" true (P.subset c ek);
            chain ek (k + 1)
          end
        in
        chain (P.full (M.npoints m)) 1);
  ]

(* --- axioms as random-formula properties --- *)

let s5_axioms =
  axiom "K: knowledge axiom Kφ⇒φ" (fun _ phi _ -> F.Implies (F.K (proc0, phi), phi))
  @ axiom "K: distribution" (fun _ phi psi ->
        F.Implies
          ( F.And [ F.K (proc0, phi); F.K (proc0, F.Implies (phi, psi)) ],
            F.K (proc0, psi) ))
  @ axiom "K: positive introspection" (fun _ phi _ ->
        F.Implies (F.K (proc0, phi), F.K (proc0, F.K (proc0, phi))))
  @ axiom "K: negative introspection" (fun _ phi _ ->
        F.Implies (F.Not (F.K (proc0, phi)), F.K (proc0, F.Not (F.K (proc0, phi)))))

let belief_axioms =
  axiom "B: distribution" (fun pool phi psi ->
        let s = pool.rigids.(0) in
        F.Implies
          ( F.And [ F.B (s, proc0, phi); F.B (s, proc0, F.Implies (phi, psi)) ],
            F.B (s, proc0, psi) ))
  @ axiom "B: membership-truth" (fun pool phi _ ->
        let s = pool.rigids.(0) in
        F.Implies (F.And [ F.B (s, proc0, phi); F.In (s, proc0) ], phi))
  @ axiom "E distributes over ∧" (fun pool phi psi ->
        let s = pool.rigids.(0) in
        F.Iff (F.E (s, F.And [ phi; psi ]), F.And [ F.E (s, phi); F.E (s, psi) ]))

let common_axioms =
  axiom ~count:30 "C: fixed point C_Sφ ⇒ E_S(φ ∧ C_Sφ)" (fun pool phi _ ->
        let s = pool.rigids.(0) in
        F.Implies (F.C (s, phi), F.E (s, F.And [ phi; F.C (s, phi) ])))
  @ axiom ~count:30 "C□ ⇒ C" (fun pool phi _ ->
        let s = pool.rigids.(0) in
        F.Implies (F.Cbox (s, phi), F.C (s, phi)))

let continual_axioms =
  axiom ~count:30 "C□: distribution (3.4b)" (fun pool phi psi ->
        let s = pool.rigids.(0) in
        F.Implies
          ( F.And [ F.Cbox (s, phi); F.Cbox (s, F.Implies (phi, psi)) ],
            F.Cbox (s, psi) ))
  @ axiom ~count:30 "C□: positive introspection (3.4c)" (fun pool phi _ ->
        let s = pool.rigids.(0) in
        F.Implies (F.Cbox (s, phi), F.Cbox (s, F.Cbox (s, phi))))
  @ axiom ~count:30 "C□: negative introspection (3.4d)" (fun pool phi _ ->
        let s = pool.rigids.(0) in
        F.Implies (F.Not (F.Cbox (s, phi)), F.Cbox (s, F.Not (F.Cbox (s, phi)))))
  @ axiom ~count:30 "C□: fixed-point axiom (3.4e)" (fun pool phi _ ->
        let s = pool.rigids.(0) in
        F.Implies (F.Cbox (s, phi), F.Ebox (s, F.And [ phi; F.Cbox (s, phi) ])))
  @ axiom ~count:30 "C□ constant along runs (3.4g)" (fun pool phi _ ->
        let s = pool.rigids.(0) in
        F.Iff (F.Cbox (s, phi), F.Throughout (F.Cbox (s, phi))))

let temporal_axioms =
  axiom "□φ ⇒ φ" (fun _ phi _ -> F.Implies (F.Always phi, phi))
  @ axiom "⊟φ ⇒ □φ" (fun _ phi _ -> F.Implies (F.Throughout phi, F.Always phi))
  @ axiom "◇ = ¬□¬" (fun _ phi _ ->
        F.Iff (F.Eventually phi, F.Not (F.Always (F.Not phi))))
  @ axiom "□ idempotent" (fun _ phi _ -> F.Iff (F.Always phi, F.Always (F.Always phi)))

let implementation_agreement =
  let pools = Lazy.force pools in
  List.concat_map
    (fun (fixture_name, pool) ->
      List.map
        (fun (sname, sidx) ->
          qtest ~count:25
            (Printf.sprintf "C□ fast = naive over %s [%s]" sname fixture_name)
            (gen_small pool)
            (fun phi ->
              let s = pool.rigids.(sidx) in
              let pset = F.eval pool.p_env phi in
              let fast = Ct.cbox (Ct.closure pool.p_model s) pset in
              let naive = Ct.cbox_naive pool.p_model s pset in
              P.equal fast naive))
        [ ("N", 0); ("All", 1); ("N&kz", 2) ])
    pools

let induction_rule =
  (* Lemma 3.4(f): if ⊨ φ ⇒ E□_S(φ ∧ ψ) then ⊨ φ ⇒ C□_S ψ.  Checked as a
     conditional property on random φ, ψ. *)
  let pools = Lazy.force pools in
  List.map
    (fun (fixture_name, pool) ->
      qtest ~count:60
        (Printf.sprintf "C□: induction rule (3.4f) [%s]" fixture_name)
        QCheck2.Gen.(pair (gen_small pool) (gen_small pool))
        (fun (phi, psi) ->
          let s = pool.rigids.(0) in
          let premise = F.Implies (phi, F.Ebox (s, F.And [ phi; psi ])) in
          (not (F.valid pool.p_env premise))
          || F.valid pool.p_env (F.Implies (phi, F.Cbox (s, psi)))))
    pools

(* --- the env's memo and the per-owner kernel change no answer --- *)

(* A formula DAG: [ops] grow an array of nodes from the pool's atoms, each
   new node taking earlier nodes (by index) as children, so subterms are
   shared by physical identity — exactly what the memo keys on. *)
let gen_dag pool =
  let open QCheck2.Gen in
  let op = triple (int_bound 9) (pair small_nat small_nat) (pair small_nat small_nat) in
  map
    (fun ops ->
      let nodes = ref (Array.to_list pool.atoms |> List.rev) in
      List.iter
        (fun (k, (a, b), (si, i)) ->
          let arr = Array.of_list !nodes in
          let pick x = arr.(x mod Array.length arr) in
          let s = pool.rigids.(si mod Array.length pool.rigids) in
          let i = i mod M.n pool.p_model in
          let node =
            match k with
            | 0 -> F.Not (pick a)
            | 1 -> F.And [ pick a; pick b ]
            | 2 -> F.Or [ pick a; pick b ]
            | 3 -> F.K (i, pick a)
            | 4 -> F.B (s, i, pick a)
            | 5 -> F.E (s, pick a)
            | 6 -> F.Cbox (s, pick a)
            | 7 -> F.In (s, i)
            | 8 -> F.Always (pick a)
            | _ -> F.Iff (pick a, pick b)
          in
          nodes := node :: !nodes)
        ops;
      Array.of_list !nodes)
    (list_size (int_range 1 12) op)

(* Orders the values by their random keys. *)
let shuffle keyed = List.map snd (List.stable_sort (fun (a, _) (b, _) -> compare a b) keyed)

let memo_tests =
  let pools = Lazy.force pools in
  List.map
    (fun (fixture_name, pool) ->
      qtest ~count:40
        (Printf.sprintf "memo: long-lived env, shuffled and repeated = fresh env [%s]"
           fixture_name)
        QCheck2.Gen.(pair (gen_dag pool) (list_size (int_range 1 24) (pair nat small_nat)))
        (fun (nodes, draws) ->
          (* a random evaluation order over the DAG's nodes, each node
             evaluated twice in the fixture's shared env *)
          let order =
            shuffle (List.map (fun (key, k) -> (key, nodes.(k mod Array.length nodes))) draws)
          in
          List.for_all
            (fun f ->
              let fresh = F.eval (F.env pool.p_model) f in
              P.equal (F.eval pool.p_env f) fresh && P.equal (F.eval pool.p_env f) fresh)
            (order @ List.rev order)))
    pools

let memo_tests =
  memo_tests
  @ [
      test "a long-lived env keeps no formula its caller dropped" (fun () ->
          let m = model crash_3_1_3 and e = env crash_3_1_3 in
          let nodes = Weak.create 20 in
          (* fresh leaves every time, so no two nodes share a memo class *)
          for k = 0 to 19 do
            let nf = N.nonfaulty m and e0 = F.exists_value m Val.Zero in
            let f = F.B (nf, k mod 3, F.And [ e0; F.Cbox (nf, e0) ]) in
            ignore (F.eval e f);
            Weak.set nodes k (Some f)
          done;
          Gc.full_major ();
          for k = 0 to 19 do
            check (Printf.sprintf "node %d collected" k) true (Weak.get nodes k = None)
          done);
    ]

(* B^S_i φ at p iff ∀q ∈ cell(r_i(p)): i ∈ S(q) ⇒ φ(q), read point by point
   off the CSR cells (no kernel, no memo); K_i φ drops the S guard. *)
let reference_belief m cells s ~proc phi =
  P.init (M.npoints m) (fun p ->
      Array.for_all
        (fun q ->
          (match s with Some s -> not (B.mem proc (N.members s ~point:q)) | None -> false)
          || P.mem phi q)
        (Naive_build.cell cells (M.view_at m ~point:p ~proc)))

(* The nonrigid sets of the pool, and S absent ([None], the K kernel). *)
let nonrigid_choices pool = None :: Array.to_list (Array.map Option.some pool.rigids)

(* φ: a random formula, or ∅ or every point outright. *)
let gen_phi pool =
  QCheck2.Gen.(
    frequency [ (6, gen_small pool); (1, pure (F.Const false)); (1, pure (F.Const true)) ])

let kernel_tests =
  let pools = Lazy.force pools in
  List.map
    (fun (fixture_name, pool) ->
      qtest ~count:40
        (Printf.sprintf "per-owner B/K = all-views reference [%s]" fixture_name)
        QCheck2.Gen.(triple (gen_small pool) (int_bound 2) (int_bound 2))
        (fun (phi, si, i) ->
          let m = pool.p_model and cells = Lazy.force pool.p_cells in
          let s = pool.rigids.(si) and proc = i mod M.n m in
          let phi = F.eval pool.p_env phi in
          P.equal (K.believes m s ~proc phi) (reference_belief m cells (Some s) ~proc phi)
          && P.equal (K.knows m ~proc phi) (reference_belief m cells None ~proc phi)))
    pools
  @ List.map
      (fun (fixture_name, pool) ->
        qtest ~count:40
          (Printf.sprintf "kernel = cell-scanning reference, every S and owner [%s]"
             fixture_name)
          (gen_phi pool)
          (fun phi ->
            let module R = Knowledge_ref in
            let m = pool.p_model and cells = Lazy.force pool.p_cells in
            let phi = F.eval pool.p_env phi in
            let procs = List.init (M.n m) Fun.id in
            List.for_all
              (function
                | None ->
                    List.for_all
                      (fun proc -> P.equal (K.knows m ~proc phi) (R.knows m cells ~proc phi))
                      procs
                | Some s ->
                    Bytes.equal (K.believed_views m s phi) (R.believed_views cells s phi)
                    && P.equal (K.everyone_knows m s phi) (R.everyone_knows m cells s phi)
                    && List.for_all
                         (fun proc ->
                           P.equal (K.believes m s ~proc phi) (R.believes m cells s ~proc phi))
                         procs)
              (nonrigid_choices pool)))
      pools
  @ [
      test "cell_points_probed counts the refuting (point, member) pairs" (fun () ->
          List.iter
            (fun (fixture_name, pool) ->
              let m = pool.p_model in
              let phi = F.eval pool.p_env pool.atoms.(2) in
              (* pairs (q, i) with q ∉ φ, i among [procs] and i ∈ S(q) *)
              let pairs s procs =
                let count = ref 0 in
                M.iter_points m (fun q ->
                    if not (P.mem phi q) then
                      List.iter
                        (fun i ->
                          match s with
                          | Some s when not (N.mem s ~point:q ~proc:i) -> ()
                          | Some _ | None -> incr count)
                        procs);
                !count
              in
              let probed f =
                with_metrics (fun () ->
                    ignore (f ());
                    counter_value "knowledge.cell_points_probed")
              in
              let all = List.init (M.n m) Fun.id in
              List.iter
                (fun s ->
                  let label who =
                    Printf.sprintf "%s, S = %s, %s" fixture_name
                      (match s with Some s -> N.name s | None -> "absent")
                      who
                  in
                  List.iter
                    (fun proc ->
                      check_int (label (Printf.sprintf "proc %d" proc)) (pairs s [ proc ])
                        (probed (fun () ->
                             match s with
                             | Some s -> K.believes m s ~proc phi
                             | None -> K.knows m ~proc phi)))
                    all;
                  Option.iter
                    (fun s ->
                      check_int (label "all owners") (pairs (Some s) all)
                        (probed (fun () -> K.believed_views m s phi)))
                    s)
                (nonrigid_choices pool))
            pools);
    ]

(* --- the tables the kernels read in place --- *)

(* The runs S-□-reachable from each run, read off the CSR cells: runs that
   touch one lander group (the points of [cell v] where [v]'s owner is in
   [S]) are linked, and a breadth-first search labels the components.
   [None] for a run that touches no group, which reaches nothing. *)
let reference_components m (cells : Naive_build.t) s =
  let per_run = M.horizon m + 1 and nruns = M.nruns m in
  let group_runs =
    Array.init (Eba.View.size cells.store) (fun v ->
        let owner = Eba.View.owner cells.store v in
        Naive_build.cell cells v |> Array.to_list
        |> List.filter (fun q -> N.mem s ~point:q ~proc:owner)
        |> List.map (fun q -> q / per_run))
  in
  let run_groups = Array.make nruns [] in
  Array.iteri (fun v runs -> List.iter (fun r -> run_groups.(r) <- v :: run_groups.(r)) runs)
    group_runs;
  let label = Array.make nruns None in
  for start = 0 to nruns - 1 do
    if label.(start) = None && run_groups.(start) <> [] then begin
      let queue = Queue.create () in
      label.(start) <- Some start;
      Queue.add start queue;
      while not (Queue.is_empty queue) do
        List.iter
          (fun v ->
            List.iter
              (fun r ->
                if label.(r) = None then begin
                  label.(r) <- Some start;
                  Queue.add r queue
                end)
              group_runs.(v))
          run_groups.(Queue.pop queue)
      done
    end
  done;
  label

(* A nonrigid set [s ∧ a] for a random view table [a]: [quarters] of
   every four views, on average, are kept (0: none, 4: all). *)
let gen_restriction pool =
  QCheck2.Gen.(
    map
      (fun (si, quarters, seed) ->
        let m = pool.p_model in
        let st = Random.State.make [| seed |] in
        let kept =
          Bytes.init (Eba.View.size m.M.store) (fun _ ->
              if Random.State.int st 4 < quarters then '\001' else '\000')
        in
        (pool.rigids.(si), kept))
      (triple (int_bound 2) (int_bound 4) int))

let in_place_tests =
  let pools = Lazy.force pools in
  List.map
    (fun (fixture_name, pool) ->
      qtest ~count:20
        (Printf.sprintf "restrict_by_view keeps the members whose view is in the table [%s]"
           fixture_name)
        (gen_restriction pool)
        (fun (s, kept) ->
          let m = pool.p_model in
          let r = N.restrict_by_view m ~name:"S&a" s kept in
          let ok = ref true in
          M.iter_points m (fun q ->
              for i = 0 to M.n m - 1 do
                let expected =
                  N.mem s ~point:q ~proc:i && Bytes.get kept (M.view_at m ~point:q ~proc:i) = '\001'
                in
                if N.mem r ~point:q ~proc:i <> expected then ok := false
              done);
          !ok))
    pools
  @ List.map
      (fun (fixture_name, pool) ->
        (* random restrictions split the runs into many components, which
           the pool's own sets (N, All, N&kz) rarely do *)
        qtest ~count:20
          (Printf.sprintf "reachable_runs = components of the lander groups, every run [%s]"
             fixture_name)
          (gen_restriction pool)
          (fun (s, kept) ->
            let m = pool.p_model and cells = Lazy.force pool.p_cells in
            let s = N.restrict_by_view m ~name:"S&a" s kept in
            let cl = Ct.closure m s in
            let label = reference_components m cells s in
            let nruns = M.nruns m in
            List.for_all
              (fun run ->
                let expected =
                  match label.(run) with
                  | None -> P.create nruns
                  | Some c -> P.init nruns (fun r -> label.(r) = Some c)
                in
                P.equal (Ct.reachable_runs cl ~run) expected)
              (List.init nruns Fun.id)))
      pools
  @ [
      test "every kernel rejects a φ or view table over another model" (fun () ->
          List.iter
            (fun (fixture_name, pool) ->
              let m = pool.p_model and s = pool.rigids.(0) in
              let rejects what f =
                check
                  (Printf.sprintf "%s [%s]" what fixture_name)
                  true
                  (match f () with _ -> false | exception Invalid_argument _ -> true)
              in
              List.iter
                (fun len ->
                  let phi = P.full len in
                  let what op = Printf.sprintf "%s over %d points" op len in
                  rejects (what "knows") (fun () -> K.knows m ~proc:0 phi);
                  rejects (what "believes") (fun () -> K.believes m s ~proc:0 phi);
                  rejects (what "believed_views") (fun () -> K.believed_views m s phi);
                  rejects (what "everyone_knows") (fun () -> K.everyone_knows m s phi);
                  rejects (what "cbox") (fun () -> Ct.cbox (Ct.closure m s) phi))
                [ M.npoints m - 1; M.npoints m + 1 ];
              List.iter
                (fun len ->
                  rejects
                    (Printf.sprintf "restrict_by_view over %d views" len)
                    (fun () -> N.restrict_by_view m ~name:"bad" s (Bytes.make len '\001')))
                [ Eba.View.size m.M.store - 1; Eba.View.size m.M.store + 1 ])
            pools);
    ]

let suite =
  ( "epistemic",
    spot_tests @ s5_axioms @ belief_axioms @ common_axioms @ continual_axioms
    @ temporal_axioms @ implementation_agreement @ induction_rule @ memo_tests
    @ kernel_tests @ in_place_tests )
