(* The full-information layer: hash-consed views and enumerated models. *)

module V = Eba.View
module M = Eba.Model
module Cfg = Eba.Config
module Pat = Eba.Pattern
module Params = Eba.Params
module Val = Eba.Value
module B = Eba.Bitset
open Helpers

let view_tests =
  [
    test "leaf identity" (fun () ->
        let s = V.create_store ~n:3 ~capacity:1024 () in
        let a = V.leaf s ~owner:0 Val.Zero in
        let b = V.leaf s ~owner:0 Val.Zero in
        let c = V.leaf s ~owner:0 Val.One in
        let d = V.leaf s ~owner:1 Val.Zero in
        check_int "same" a b;
        check "value distinguishes" true (a <> c);
        check "owner distinguishes" true (a <> d));
    test "node identity and metadata" (fun () ->
        let s = V.create_store ~n:3 ~capacity:1024 () in
        let l0 = V.leaf s ~owner:0 Val.Zero in
        let l1 = V.leaf s ~owner:1 Val.One in
        let recv = [| None; Some l1; None |] in
        let a = V.node s ~owner:0 ~prev:l0 ~received:recv in
        let b = V.node s ~owner:0 ~prev:l0 ~received:[| None; Some l1; None |] in
        check_int "hash-consed" a b;
        check_int "time" 1 (V.time s a);
        check_int "owner" 0 (V.owner s a);
        check "heard" true (B.equal (B.singleton 1) (V.heard_from s a));
        check "prev" true (V.prev s a = Some l0);
        check "received" true (V.received s a 1 = Some l1);
        check "not received" true (V.received s a 2 = None);
        Alcotest.check_raises "sender out of range"
          (Invalid_argument "View.received: sender out of range") (fun () ->
            ignore (V.received s a 3)));
    test "knows_zero propagates" (fun () ->
        let s = V.create_store ~n:2 ~capacity:1024 () in
        let z = V.leaf s ~owner:0 Val.Zero in
        let o = V.leaf s ~owner:1 Val.One in
        check "leaf zero" true (V.knows_zero s z);
        check "leaf one" false (V.knows_zero s o);
        let n = V.node s ~owner:1 ~prev:o ~received:[| Some z; None |] in
        check "heard a zero" true (V.knows_zero s n);
        let n2 = V.node s ~owner:1 ~prev:o ~received:[| None; None |] in
        check "no zero" false (V.knows_zero s n2));
    test "node validation" (fun () ->
        let s = V.create_store ~n:2 ~capacity:1024 () in
        let l0 = V.leaf s ~owner:0 Val.Zero in
        let l1 = V.leaf s ~owner:1 Val.One in
        Alcotest.check_raises "self message" (Invalid_argument "View.node: self-message")
          (fun () -> ignore (V.node s ~owner:0 ~prev:l0 ~received:[| Some l0; None |]));
        Alcotest.check_raises "owner mismatch"
          (Invalid_argument "View.node: owner mismatch with prev") (fun () ->
            ignore (V.node s ~owner:0 ~prev:l1 ~received:[| None; None |]));
        Alcotest.check_raises "received view owner mismatch"
          (Invalid_argument "View.node: received view owner mismatch") (fun () ->
            ignore (V.node s ~owner:0 ~prev:l0 ~received:[| None; Some l0 |]));
        let later = V.node s ~owner:1 ~prev:l1 ~received:[| None; None |] in
        Alcotest.check_raises "received view time mismatch"
          (Invalid_argument "View.node: received view time mismatch") (fun () ->
            ignore (V.node s ~owner:0 ~prev:l0 ~received:[| None; Some later |]));
        Alcotest.check_raises "unknown prev"
          (Invalid_argument "View.node: unknown prev view") (fun () ->
            ignore (V.node s ~owner:0 ~prev:99 ~received:[| None; None |]));
        Alcotest.check_raises "unknown received view"
          (Invalid_argument "View.node: unknown received view") (fun () ->
            ignore (V.node s ~owner:0 ~prev:l0 ~received:[| None; Some 99 |])));
  ]

(* The store's derived facts, recomputed from each view's own key: the
   builder-equivalence tests in test_build cannot see an interner bug,
   because the naive builder interns through the same store. *)
let store_tests =
  let consistent label (m : M.t) =
    let s = m.M.store in
    for v = 0 to V.size s - 1 do
      let expect ok what =
        if not ok then Alcotest.failf "%s: view %d: %s" label v what
      in
      match V.prev s v with
      | None ->
          expect (V.time s v = 0) "a leaf is at time 0";
          expect (B.is_empty (V.heard_from s v)) "a leaf heard nobody";
          expect
            (V.knows_zero s v = Val.equal (V.init_value s v) Val.Zero)
            "a leaf knows 0 iff its value is 0";
          for j = 0 to V.n s - 1 do
            expect (V.received s v j = None) "a leaf received nothing"
          done
      | Some p ->
          expect (p < v) "prev was interned first";
          expect (V.owner s p = V.owner s v) "prev has the same owner";
          expect (V.time s v = V.time s p + 1) "time is prev's plus one";
          expect
            (Val.equal (V.init_value s v) (V.init_value s p))
            "initial value is prev's";
          let heard = ref B.empty and zero = ref (V.knows_zero s p) in
          for j = 0 to V.n s - 1 do
            match V.received s v j with
            | None -> ()
            | Some r ->
                expect (j <> V.owner s v) "no self-message";
                expect (r < v) "received view was interned first";
                expect (V.owner s r = j) "the sender owns its view";
                expect (V.time s r = V.time s p) "a received view is prev's age";
                heard := B.add j !heard;
                zero := !zero || V.knows_zero s r
          done;
          expect (B.equal (V.heard_from s v) !heard) "heard_from = the senders";
          expect (V.knows_zero s v = !zero) "knows_zero = prev's or a sender's"
    done
  in
  [
    test "every view's metadata agrees with its prev and received views"
      (fun () ->
        consistent "crash n=4 t=1 T=3" (model crash_4_1_3);
        consistent "omission n=3 t=1 T=3" (model omission_3_1_3));
    test "re-interning every view of a built model allocates nothing"
      (fun () ->
        let m = model crash_4_1_3 in
        let s = m.M.store in
        let nv = V.size s and n = V.n s in
        let owners = Array.init nv (V.owner s) in
        let inits = Array.init nv (V.init_value s) in
        let prevs = Array.init nv (fun v -> Option.value ~default:(-1) (V.prev s v)) in
        let parts =
          Array.init nv (fun v ->
              Array.init n (fun j -> Option.value ~default:(-1) (V.received s v j)))
        in
        let ids = Array.make nv (-1) in
        let before = Gc.minor_words () in
        for v = 0 to nv - 1 do
          ids.(v) <-
            (if prevs.(v) < 0 then V.leaf s ~owner:owners.(v) inits.(v)
             else V.node_parts s ~owner:owners.(v) ~prev:prevs.(v) ~parts:parts.(v))
        done;
        let words = Gc.minor_words () -. before in
        check "each view re-interned to itself" true
          (Array.for_all2 ( = ) ids (Array.init nv Fun.id));
        check_int "no view added" nv (V.size s);
        Alcotest.(check (float 0.)) "minor words allocated" 0. words);
  ]

let growth_tests =
  (* The store starts with room for 1024 view metas and doubles on demand;
     these pin the behaviour across that boundary. *)
  let chain s ~owner ~len =
    let rec go acc v k =
      if k = 0 then List.rev acc
      else
        let v' = V.node s ~owner ~prev:v ~received:[| None; None |] in
        go (v' :: acc) v' (k - 1)
    in
    let l = V.leaf s ~owner Val.Zero in
    l :: go [] l len
  in
  [
    test "interning stays injective past the 1024-meta capacity" (fun () ->
        let s = V.create_store ~n:2 ~capacity:1024 () in
        (* two interleaved chains, so growth copies a mixed-owner prefix *)
        let len = 1300 in
        let c0 = chain s ~owner:0 ~len and c1 = chain s ~owner:1 ~len in
        check "crossed the initial capacity twice" true (V.size s > 2048);
        check_int "distinct views only" (2 * (len + 1)) (V.size s);
        let all = c0 @ c1 in
        check_int "ids are dense" (V.size s)
          (1 + List.fold_left max 0 all));
    test "metas survive growth intact" (fun () ->
        let s = V.create_store ~n:2 ~capacity:1024 () in
        let c = chain s ~owner:1 ~len:1500 in
        List.iteri
          (fun time v ->
            check_int "owner" 1 (V.owner s v);
            check_int "time" time (V.time s v);
            check "init value" true (V.init_value s v = Val.Zero);
            match V.prev s v with
            | None -> check_int "only the leaf lacks prev" 0 time
            | Some p -> check_int "prev is one round back" (time - 1) (V.time s p))
          c);
    test "re-interning after growth returns the same ids" (fun () ->
        let s = V.create_store ~n:2 ~capacity:1024 () in
        let c1 = chain s ~owner:0 ~len:1100 in
        let size1 = V.size s in
        let c2 = chain s ~owner:0 ~len:1100 in
        check "same ids" true (c1 = c2);
        check_int "no new allocations" size1 (V.size s));
    test "a real model past 1024 views keeps cells consistent" (fun () ->
        let m = model crash_4_1_3 in
        let store = m.M.store in
        let cells = Naive_build.of_model m in
        check "model is past the initial capacity" true (V.size store > 1024);
        for v = 0 to V.size store - 1 do
          let owner = V.owner store v in
          Array.iter
            (fun pid ->
              check_int "cell member holds the view" v
                (M.view_at m ~point:pid ~proc:owner))
            (Naive_build.cell cells v)
        done);
  ]

let model_tests =
  [
    test "crash model sizes" (fun () ->
        let m = model crash_3_1_3 in
        check_int "runs = patterns * configs" (31 * 8) (M.nruns m);
        check_int "points" (M.nruns m * 4) (M.npoints m));
    test "point indexing roundtrip" (fun () ->
        let m = model crash_3_1_3 in
        List.iter
          (fun pid ->
            let run = M.run_index_of_point m pid and time = M.time_of_point m pid in
            check_int "roundtrip" pid (M.point m ~run ~time))
          (some_points m 50));
    test "views are time-stamped" (fun () ->
        let m = model crash_3_1_3 in
        let store = m.M.store in
        List.iter
          (fun pid ->
            let time = M.time_of_point m pid in
            for i = 0 to 2 do
              let v = M.view_at m ~point:pid ~proc:i in
              check_int "time" time (V.time store v);
              check_int "owner" i (V.owner store v)
            done)
          (some_points m 50));
    test "cells partition points per owner" (fun () ->
        let m = model crash_3_1_3 in
        let cells = Naive_build.of_model m in
        (* every point appears in exactly one cell per processor: total cell
           mass = npoints * n *)
        check_int "mass" (M.npoints m * 3) (Array.length cells.cell_ids);
        check_int "offsets cover cell_ids" (Array.length cells.cell_ids)
          cells.cell_off.(Array.length cells.cell_off - 1));
    test "cell members share the view" (fun () ->
        let m = model crash_3_1_3 in
        let store = m.M.store in
        let cells = Naive_build.of_model m in
        for v = 0 to V.size store - 1 do
          let owner = V.owner store v in
          let cell = Naive_build.cell cells v in
          (* every view was interned at some point of the model *)
          check "cell is nonempty" true (Array.length cell > 0);
          Array.iter
            (fun pid -> check_int "same view" v (M.view_at m ~point:pid ~proc:owner))
            cell
        done);
    test "failure-free run is full-information" (fun () ->
        let m = model crash_3_1_3 in
        let pattern = Pat.failure_free crash_3_1_3.params in
        let config = Cfg.of_bits ~n:3 0b101 in
        match M.find_run m ~config ~pattern with
        | None -> Alcotest.fail "run not found"
        | Some run ->
            let store = m.M.store in
            (* at time 1 everybody heard from everybody *)
            for i = 0 to 2 do
              let v = M.view m ~run:run.M.index ~time:1 ~proc:i in
              check_int "heard all" 2 (B.cardinal (V.heard_from store v))
            done;
            check "nonfaulty all" true
              (B.equal (B.full 3) (M.nonfaulty m ~run:run.M.index)));
    test "silent processor is never heard" (fun () ->
        let m = model crash_3_1_3 in
        let b = Pat.crash ~horizon:3 ~proc:0 ~round:1 ~recipients:B.empty in
        let pattern = Pat.make crash_3_1_3.params [ b ] in
        let config = Cfg.constant ~n:3 Val.One in
        match M.find_run m ~config ~pattern with
        | None -> Alcotest.fail "run not found"
        | Some run ->
            let store = m.M.store in
            for time = 1 to 3 do
              for i = 1 to 2 do
                let v = M.view m ~run:run.M.index ~time ~proc:i in
                check "no msg from 0" false (B.mem 0 (V.heard_from store v))
              done
            done);
    test "corresponding views are shared across configs (Prop 2.2 shape)" (fun () ->
        (* identical deliveries + identical initial values seen => identical
           view ids, even under different patterns *)
        let m = model crash_3_1_3 in
        let p1 = Pat.failure_free crash_3_1_3.params in
        let p2 = Pat.make crash_3_1_3.params [ Pat.clean_crash ~horizon:3 ~proc:0 ] in
        let config = Cfg.of_bits ~n:3 0b011 in
        let r1 = Option.get (M.find_run m ~config ~pattern:p1) in
        let r2 = Option.get (M.find_run m ~config ~pattern:p2) in
        for time = 0 to 3 do
          for i = 0 to 2 do
            check_int "same view"
              (M.view m ~run:r1.M.index ~time ~proc:i)
              (M.view m ~run:r2.M.index ~time ~proc:i)
          done
        done;
        check "different nonfaulty sets" false
          (B.equal (M.nonfaulty m ~run:r1.M.index) (M.nonfaulty m ~run:r2.M.index)));
    test "omission model sizes" (fun () ->
        let m = model omission_3_1_2 in
        check_int "runs" (49 * 8) (M.nruns m));
  ]

(* A view's time, initial value, heard set and knows-zero flag share one
   packed int; at the widest store the heard set fills its low [max_n]
   bits, so every field is checked there, across regrowths of a store
   created with room for four views. *)
let packing_tests =
  [
    test "packed metadata round-trips at the largest n; a larger n is refused"
      (fun () ->
        let n = V.max_n and rounds = 40 in
        let s = V.create_store ~n ~capacity:4 () in
        let value i = if i = 0 then Val.Zero else Val.One in
        let leaves = Array.init n (fun i -> V.leaf s ~owner:i (value i)) in
        (* every round, processor [i] hears everybody but itself, except the
           last, which hears nobody: it holds a 1 and never learns of the 0 *)
        let row = ref leaves in
        for time = 1 to rounds do
          let prev = !row in
          row :=
            Array.init n (fun i ->
                let received =
                  Array.init n (fun j ->
                      if j = i || i = n - 1 then None else Some prev.(j))
                in
                V.node s ~owner:i ~prev:prev.(i) ~received);
          Array.iteri
            (fun i v ->
              let lone = i = n - 1 in
              check_int "time" time (V.time s v);
              check "initial value" true (Val.equal (value i) (V.init_value s v));
              check "heard set" true
                (B.equal (V.heard_from s v)
                   (if lone then B.empty else B.remove i (B.full n)));
              check "knows zero" (not lone) (V.knows_zero s v))
            !row
        done;
        Array.iteri
          (fun i v ->
            check_int "leaf time" 0 (V.time s v);
            check "leaf heard nobody" true (B.is_empty (V.heard_from s v));
            check "leaf knows zero iff 0" (i = 0) (V.knows_zero s v))
          leaves;
        Alcotest.check_raises "n past max_n"
          (Invalid_argument "View.create_store: n out of range") (fun () ->
            ignore (V.create_store ~n:(V.max_n + 1) ~capacity:1 ())));
  ]

let suite =
  ("fip", view_tests @ growth_tests @ model_tests @ store_tests @ packing_tests)
