(* Units for the synchronous substrate: values, configurations, failure
   patterns, adversary universes and the verdict on a run's decisions. *)

module V = Eba.Value
module Cfg = Eba.Config
module Pat = Eba.Pattern
module U = Eba.Universe
module Params = Eba.Params
module B = Eba.Bitset
module Combi = Eba.Combi
open Helpers

let crash_params = crash_3_1_3.params
let omission_params = omission_3_1_2.params

let value_tests =
  [
    test "negate involutive" (fun () ->
        List.iter (fun v -> check "inv" true (V.equal v (V.negate (V.negate v)))) V.all);
    test "of_int/to_int" (fun () ->
        check_int "0" 0 (V.to_int (V.of_int 0));
        check_int "1" 1 (V.to_int (V.of_int 1));
        Alcotest.check_raises "2" (Invalid_argument "Value.of_int: 2") (fun () ->
            ignore (V.of_int 2)));
  ]

let config_tests =
  [
    test "bits roundtrip" (fun () ->
        List.iter
          (fun c -> check "rt" true (Cfg.equal c (Cfg.of_bits ~n:4 (Cfg.to_bits c))))
          (Cfg.all ~n:4));
    test "all count" (fun () -> check_int "2^3" 8 (List.length (Cfg.all ~n:3)));
    test "exists_value" (fun () ->
        let c = Cfg.of_bits ~n:3 0b010 in
        check "e1" true (Cfg.exists_value c V.One);
        check "e0" true (Cfg.exists_value c V.Zero);
        check "all1 no zero" false (Cfg.exists_value (Cfg.constant ~n:3 V.One) V.Zero));
    test "all_equal" (fun () ->
        check "const" true (Cfg.all_equal (Cfg.constant ~n:3 V.Zero) = Some V.Zero);
        check "mixed" true (Cfg.all_equal (Cfg.of_bits ~n:3 1) = None));
    test "equal checks length first" (fun () ->
        check "different n" false (Cfg.equal (Cfg.of_bits ~n:3 0b101) (Cfg.of_bits ~n:4 0b101));
        check "same" true (Cfg.equal (Cfg.of_bits ~n:3 0b101) (Cfg.of_bits ~n:3 0b101)));
    test "bit packing rejects overflowing widths" (fun () ->
        Alcotest.check_raises "of_bits n=63"
          (Invalid_argument "Config: n=63 outside the bit-packing range [0, 62]")
          (fun () -> ignore (Cfg.of_bits ~n:63 0));
        Alcotest.check_raises "to_bits n=63"
          (Invalid_argument "Config: n=63 outside the bit-packing range [0, 62]")
          (fun () -> ignore (Cfg.to_bits (Cfg.constant ~n:63 V.One)));
        check_int "n=62 roundtrips" 0 (Cfg.to_bits (Cfg.of_bits ~n:62 0)));
  ]

let pattern_tests =
  [
    test "failure-free delivers everything" (fun () ->
        let p = Pat.failure_free crash_params in
        check "deliver" true (Pat.delivers p ~round:2 ~sender:0 ~receiver:1);
        check "faulty empty" true (B.is_empty (Pat.faulty p));
        check_int "f" 0 (Pat.num_failures p));
    test "crash semantics" (fun () ->
        let b = Pat.crash ~horizon:3 ~proc:0 ~round:2 ~recipients:(B.singleton 1) in
        let p = Pat.make crash_params [ b ] in
        check "before" true (Pat.delivers p ~round:1 ~sender:0 ~receiver:2);
        check "at, in set" true (Pat.delivers p ~round:2 ~sender:0 ~receiver:1);
        check "at, out of set" false (Pat.delivers p ~round:2 ~sender:0 ~receiver:2);
        check "after" false (Pat.delivers p ~round:3 ~sender:0 ~receiver:1);
        check "others unaffected" true (Pat.delivers p ~round:3 ~sender:1 ~receiver:2);
        check "crashed_before" true (Pat.crashed_before p ~proc:0 ~round:3);
        check "not crashed yet" false (Pat.crashed_before p ~proc:0 ~round:2);
        check_int "f" 1 (Pat.num_failures p));
    test "clean crash counts as faulty but not failed" (fun () ->
        let p = Pat.make crash_params [ Pat.clean_crash ~horizon:3 ~proc:1 ] in
        check "faulty" true (B.mem 1 (Pat.faulty p));
        check_int "f" 0 (Pat.num_failures p);
        check "delivers" true (Pat.delivers p ~round:3 ~sender:1 ~receiver:0));
    test "omission semantics" (fun () ->
        let omits = [| B.singleton 1; B.empty |] in
        let p = Pat.make omission_params [ Pat.omission ~horizon:2 ~proc:0 ~omits ] in
        check "omitted" false (Pat.delivers p ~round:1 ~sender:0 ~receiver:1);
        check "kept" true (Pat.delivers p ~round:1 ~sender:0 ~receiver:2);
        check "next round ok" true (Pat.delivers p ~round:2 ~sender:0 ~receiver:1);
        check_int "f" 1 (Pat.num_failures p));
    test "mode mismatch rejected" (fun () ->
        Alcotest.check_raises "crash in omission mode"
          (Invalid_argument "Pattern.make: behaviour does not match failure mode")
          (fun () ->
            ignore
              (Pat.make omission_params
                 [ Pat.crash ~horizon:2 ~proc:0 ~round:1 ~recipients:B.empty ])));
    test "too many faulty rejected" (fun () ->
        Alcotest.check_raises "t+1 faulty"
          (Invalid_argument "Pattern.make: more than t faulty processors")
          (fun () ->
            ignore
              (Pat.make crash_params
                 [ Pat.clean_crash ~horizon:3 ~proc:0; Pat.clean_crash ~horizon:3 ~proc:1 ])));
    test "self-message rejected" (fun () ->
        Alcotest.check_raises "self"
          (Invalid_argument "Pattern.crash: a processor does not message itself")
          (fun () ->
            ignore (Pat.crash ~horizon:3 ~proc:0 ~round:1 ~recipients:(B.singleton 0))));
    test "delivery queries pinned to rounds 1..horizon" (fun () ->
        (* all behaviour kinds must agree on out-of-range rounds: they are
           rejected, for nonfaulty, crashed and omitting senders alike *)
        let oob = Invalid_argument "Pattern: round out of range [1, horizon]" in
        let patterns =
          [
            Pat.failure_free crash_params;
            Pat.make crash_params
              [ Pat.crash ~horizon:3 ~proc:0 ~round:2 ~recipients:B.empty ];
            Pat.make omission_params
              [ Pat.omission ~horizon:2 ~proc:0 ~omits:[| B.singleton 1; B.empty |] ];
          ]
        in
        List.iter
          (fun p ->
            Alcotest.check_raises "round 0" oob (fun () ->
                ignore (Pat.delivers p ~round:0 ~sender:0 ~receiver:1));
            Alcotest.check_raises "past horizon" oob (fun () ->
                ignore (Pat.delivers p ~round:100 ~sender:0 ~receiver:1)))
          patterns);
  ]

let universe_tests =
  [
    test "crash behaviour count" (fun () ->
        (* clean + horizon * (2^(n-1) - 1) strict subsets *)
        check_int "n=3 T=3" 10 (List.length (U.crash_behaviours crash_params ~proc:0)));
    test "behaviour counts match behaviour_count for every proc" (fun () ->
        (* regression: the old enumeration walked every integer up to the
           bit-pattern of [rest], so the count was only right by filtering;
           proc 0 has the highest-valued [rest] and is the sharpest case *)
        List.iter
          (fun mode ->
            let params = Params.make ~n:4 ~t:2 ~horizon:2 ~mode in
            List.iter
              (fun proc ->
                check_int
                  (Format.asprintf "%a proc %d" Params.pp params proc)
                  (U.behaviour_count params)
                  (List.length (U.behaviours_for params ~proc)))
              (Params.procs params))
          [ Params.Crash; Params.Omission; Params.General_omission ]);
    test "crash universe count formula" (fun () ->
        check_int "n=3 t=1 T=3" 31 (U.count crash_params);
        check_int "matches enumeration" (U.count crash_params)
          (List.length (U.patterns crash_params)));
    test "omission universe count formula" (fun () ->
        check_int "n=3 t=1 T=2" 49 (U.count omission_params);
        check_int "matches enumeration" (U.count omission_params)
          (List.length (U.patterns omission_params)));
    test "patterns are distinct" (fun () ->
        let ps = U.patterns crash_params in
        let sorted = List.sort_uniq Pat.compare ps in
        check_int "no duplicates" (List.length ps) (List.length sorted));
    test "random pattern respects t" (fun () ->
        let rng = Random.State.make [| 42 |] in
        for _ = 1 to 50 do
          let p = U.random_pattern rng crash_params in
          check "≤t" true (B.cardinal (Pat.faulty p) <= crash_params.Params.t_failures)
        done);
    test "cartesian" (fun () ->
        check_int "2x3" 6 (List.length (Combi.cartesian [ [ 1; 2 ]; [ 3; 4; 5 ] ]));
        check_int "empty" 1 (List.length (Combi.cartesian [])));
    test "choose" (fun () ->
        check_int "5C2" 10 (Combi.choose 5 2);
        check_int "oob" 0 (Combi.choose 3 5));
  ]

(* With the Params n-cap at 4096, the closed-form universe counts cross
   max_int as early as n = 62-63; they must raise Combi.Overflow, never
   wrap to garbage. *)
let overflow_tests =
  [
    test "pow is exact up to the boundary and raises past it" (fun () ->
        check_int "2^61" 2305843009213693952 (Combi.pow 2 61);
        Alcotest.check_raises "2^62" Combi.Overflow (fun () -> ignore (Combi.pow 2 62)));
    test "choose is checked" (fun () ->
        check_int "62C5" 6471002 (Combi.choose 62 5);
        check_int "symmetric" (Combi.choose 62 5) (Combi.choose 62 57);
        Alcotest.check_raises "67C33" Combi.Overflow (fun () ->
            ignore (Combi.choose 67 33)));
    test "add_exn / mul_exn" (fun () ->
        check_int "add" 7 (Combi.add_exn 3 4);
        check_int "mul" 12 (Combi.mul_exn 3 4);
        check_int "mul 0" 0 (Combi.mul_exn 0 max_int);
        Alcotest.check_raises "add wrap" Combi.Overflow (fun () ->
            ignore (Combi.add_exn max_int 1));
        Alcotest.check_raises "mul wrap" Combi.Overflow (fun () ->
            ignore (Combi.mul_exn ((max_int / 2) + 1) 2)));
    test "universe counts at the n=62/63/64 boundary" (fun () ->
        let crash n = Params.make ~n ~t:1 ~horizon:1 ~mode:Params.Crash in
        let om n = Params.make ~n ~t:1 ~horizon:2 ~mode:Params.Omission in
        (* largest exactly-representable crash behaviour count: 2^61 *)
        check_int "crash n=62 T=1 behaviours" (Combi.pow 2 61)
          (U.behaviour_count (crash 62));
        Alcotest.check_raises "crash n=63 behaviours" Combi.Overflow (fun () ->
            ignore (U.behaviour_count (crash 63)));
        (* the pattern count multiplies once more and overflows one step
           earlier than the per-processor behaviour count *)
        Alcotest.check_raises "crash n=62 count" Combi.Overflow (fun () ->
            ignore (U.count (crash 62)));
        Alcotest.check_raises "omission n=63 behaviours" Combi.Overflow (fun () ->
            ignore (U.behaviour_count (om 63)));
        Alcotest.check_raises "omission n=64 count" Combi.Overflow (fun () ->
            ignore (U.count (om 64)));
        Alcotest.check_raises "general omission n=64 count" Combi.Overflow (fun () ->
            ignore
              (U.count (Params.make ~n:64 ~t:1 ~horizon:2 ~mode:Params.General_omission))));
  ]

(* Pins the *intentional* shape of the sampled crash distribution
   (documented in universe.mli): crash round uniform over [1 .. T+1] with
   the extra slot aliased to the clean crash, and — the PR-5 bias fix —
   the full-recipient-set de-alias dropping a *uniform* element, not
   always the lowest-indexed one (which used to give rank 0 half the
   single-miss mass instead of 1/3). *)
let sampling_tests =
  [
    test "sampled crash: round weights 1/(T+1), de-alias unbiased" (fun () ->
        let params = Params.make ~n:4 ~t:1 ~horizon:3 ~mode:Params.Crash in
        let horizon = params.Params.horizon in
        let rng = Random.State.make [| 2025 |] in
        let total = ref 0 and clean = ref 0 in
        let per_round = Array.make (horizon + 1) 0 in
        let single = ref 0 in
        let rank = Array.make (params.Params.n - 1) 0 in
        for _ = 1 to 8000 do
          let p = U.random_pattern rng params in
          (* [faulty], not [num_failures]: the latter deliberately excludes
             clean crashes, which are half the point of this pin *)
          if B.cardinal (Pat.faulty p) = 1 then begin
            incr total;
            let proc = Option.get (B.choose (Pat.faulty p)) in
            let rest =
              List.filter (fun j -> j <> proc) (List.init params.Params.n Fun.id)
            in
            let missed k =
              List.filter
                (fun j -> not (Pat.delivers p ~round:k ~sender:proc ~receiver:j))
                rest
            in
            let rec first_miss k =
              if k > horizon then None
              else match missed k with [] -> first_miss (k + 1) | l -> Some (k, l)
            in
            match first_miss 1 with
            | None -> incr clean
            | Some (r, l) ->
                per_round.(r) <- per_round.(r) + 1;
                if List.length l = 1 then begin
                  incr single;
                  let v = List.hd l in
                  let rk = List.length (List.filter (fun j -> j < v) rest) in
                  rank.(rk) <- rank.(rk) + 1
                end
          end
        done;
        let share x = float_of_int x /. float_of_int !total in
        check "enough single-failure samples" true (!total > 3000);
        check "clean weight ~ 1/(T+1)" true (abs_float (share !clean -. 0.25) < 0.05);
        for r = 1 to horizon do
          check
            (Printf.sprintf "round %d weight ~ 1/(T+1)" r)
            true
            (abs_float (share per_round.(r) -. 0.25) < 0.05)
        done;
        check "enough single-miss samples" true (!single > 500);
        Array.iteri
          (fun i c ->
            let s = float_of_int c /. float_of_int !single in
            check
              (Printf.sprintf "missed-recipient rank %d ~ uniform" i)
              true
              (s > 0.20 && s < 0.45))
          rank);
  ]

(* --- the verdict, against the specification restated --- *)

module D = Eba.Decision

(* Section 2.1 over the nonfaulty processors, written out with lists. *)
let restated ~faulty ~init decisions : D.verdict =
  let n = Array.length init in
  let nonfaulty = List.filter (fun i -> not faulty.(i)) (List.init n Fun.id) in
  let decided = List.filter_map (fun i -> decisions.(i)) nonfaulty in
  let every p = List.for_all (fun (a : D.t) -> List.for_all (p a) decided) decided in
  let times = List.map (fun (d : D.t) -> d.at) decided in
  {
    disagreement = not (every (fun a b -> V.equal a.value b.value));
    invalid =
      Array.for_all (V.equal init.(0)) init
      && List.exists (fun (d : D.t) -> not (V.equal d.value init.(0))) decided;
    undecided = List.length nonfaulty - List.length decided;
    decided = List.length decided;
    time_sum = List.fold_left ( + ) 0 times;
    time_max = List.fold_left max 0 times;
    simultaneous = every (fun a b -> a.at = b.at);
  }

(* A run of up to 8 processors, its decisions placed at an offset of a
   longer table whose other slots hold decisions of other runs. *)
let run_gen =
  let open QCheck2.Gen in
  let value = oneofl V.all in
  let decision = option (map2 (fun at value -> { D.at; value }) (int_range 0 4) value) in
  let* n = int_range 1 8 in
  let* pos = int_range 0 3 in
  let* table = array_size (pure (pos + n + 2)) decision in
  let* faulty = array_size (pure n) bool in
  let* init = oneof [ array_size (pure n) value; map (Array.make n) value ] in
  return (pos, table, faulty, init)

let print_run (pos, table, faulty, init) =
  let show = function
    | None -> "-"
    | Some { D.at; value } -> Format.asprintf "%a@%d" V.pp value at
  in
  Printf.sprintf "pos=%d decisions=[%s] faulty=[%s] init=[%s]" pos
    (String.concat " " (Array.to_list (Array.map show table)))
    (String.concat " " (Array.to_list (Array.map string_of_bool faulty)))
    (String.concat " " (Array.to_list (Array.map (Format.asprintf "%a" V.pp) init)))

let judge (pos, table, faulty, init) =
  D.judge ~faulty:(Array.get faulty)
    ~unanimous:(Cfg.all_equal (Cfg.make init))
    table ~pos ~n:(Array.length init)

let verdict_tests =
  [
    qtest ~count:500 ~print:print_run
      "Decision.judge = the specification restated over the nonfaulty processors" run_gen
      (fun ((pos, table, faulty, init) as run) ->
        judge run = restated ~faulty ~init (Array.sub table pos (Array.length init)));
    qtest ~count:200
      ~print:(fun runs -> String.concat "; " (List.map print_run runs))
      "a tally counts its verdicts, and two halves' tallies merge to it"
      QCheck2.Gen.(list_size (int_range 0 12) run_gen)
      (fun runs ->
        let tally_of runs =
          let t = D.tally () in
          List.iter (fun run -> D.add t (judge run)) runs;
          t
        in
        let verdicts = List.map judge runs in
        let count p = List.length (List.filter p verdicts) in
        let sum f = List.fold_left (fun acc (v : D.verdict) -> acc + f v) 0 verdicts in
        let counted =
          {
            (D.tally ()) with
            runs = List.length runs;
            agreement_violations = count (fun v -> v.disagreement);
            validity_violations = count (fun v -> v.invalid);
            undecided_nonfaulty = sum (fun v -> v.undecided);
            decided_nonfaulty = sum (fun v -> v.decided);
            round_sum = sum (fun v -> v.time_sum);
            round_max = List.fold_left (fun acc (v : D.verdict) -> max acc v.time_max) 0 verdicts;
          }
        in
        let half = List.length runs / 2 in
        let merged = tally_of (List.filteri (fun i _ -> i < half) runs) in
        D.merge merged (tally_of (List.filteri (fun i _ -> i >= half) runs));
        tally_of runs = counted && merged = counted);
  ]

let suite =
  ( "sim",
    value_tests @ config_tests @ pattern_tests @ universe_tests @ overflow_tests
    @ sampling_tests @ verdict_tests )
