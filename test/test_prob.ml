(* The exact probability engine, tested at three levels:

   1. Foundations: qcheck laws for `Bigint` and `Q` against the native-int
      model below overflow, plus normalization/rendering invariants.
   2. Ground truth: the Markov chain of a sync round window agrees exactly
      (rational equality, not tolerance) with the closed forms and with
      the Binomial(m, q) factorization at small sizes.
   3. Differential: seeded Monte Carlo netsim sweeps land inside exact
      99.9% binomial confidence bounds computed from the Markov answer —
      the enumerated/sampled discipline of PRs 2-6 applied to
      probabilities.  A sweep also pins the deterministic decision time
      against the model's exact nanosecond count. *)

open Helpers
module B = Eba.Bigint
module Q = Eba.Prob.Q
module RC = Eba.Prob.Round_chain
module Bin = Eba.Prob.Binomial
module Report = Eba.Prob.Report
module Net = Eba.Net

(* --- Bigint vs the native-int model --- *)

let gen_i9 = QCheck2.Gen.int_range (-1_000_000_000) 1_000_000_000

(* A value that overflows native ints: a product of three 9-digit ints. *)
let gen_big =
  QCheck2.Gen.map
    (fun ((a, b), c) -> B.mul (B.mul (B.of_int a) (B.of_int b)) (B.of_int c))
    QCheck2.Gen.(pair (pair gen_i9 gen_i9) gen_i9)

let bigint_tests =
  [
    qtest "qcheck: of_int/to_int_opt round-trips the whole int range"
      QCheck2.Gen.int
      (fun x -> B.to_int_opt (B.of_int x) = Some x);
    qtest "qcheck: add matches the int model below overflow"
      QCheck2.Gen.(pair gen_i9 gen_i9)
      (fun (a, b) -> B.to_int_opt (B.add (B.of_int a) (B.of_int b)) = Some (a + b));
    qtest "qcheck: sub matches the int model below overflow"
      QCheck2.Gen.(pair gen_i9 gen_i9)
      (fun (a, b) -> B.to_int_opt (B.sub (B.of_int a) (B.of_int b)) = Some (a - b));
    qtest "qcheck: mul matches the int model below overflow"
      QCheck2.Gen.(pair gen_i9 gen_i9)
      (fun (a, b) -> B.to_int_opt (B.mul (B.of_int a) (B.of_int b)) = Some (a * b))
      (* 10^9 * 10^9 = 10^18 < 2^62 *);
    qtest "qcheck: pow matches the int model below overflow"
      QCheck2.Gen.(pair (int_range (-30) 30) (int_range 0 12))
      (fun (b, e) ->
        let rec ipow acc i = if i = 0 then acc else ipow (acc * b) (i - 1) in
        B.to_int_opt (B.pow (B.of_int b) e) = Some (ipow 1 e));
    qtest "qcheck: compare agrees with the int model"
      QCheck2.Gen.(pair gen_i9 gen_i9)
      (fun (a, b) -> B.compare (B.of_int a) (B.of_int b) = compare a b);
    qtest "qcheck: to_string round-trips through of_string" gen_big (fun x ->
        B.equal (B.of_string (B.to_string x)) x);
    qtest "qcheck: to_string matches the int model" QCheck2.Gen.int (fun x ->
        B.to_string (B.of_int x) = string_of_int x);
    qtest "qcheck: divmod invariant a = q*b + r with |r| < |b|, sign of a"
      QCheck2.Gen.(pair gen_big (map B.of_int (oneof [ gen_i9; int_range 1 50 ])))
      (fun (a, b) ->
        if B.sign b = 0 then true
        else begin
          let q, r = B.divmod a b in
          B.equal a (B.add (B.mul q b) r)
          && B.compare (B.abs r) (B.abs b) < 0
          && (B.sign r = 0 || B.sign r = B.sign a)
        end);
    qtest "qcheck: gcd divides both and matches Euclid on ints"
      QCheck2.Gen.(pair (int_range 0 100000) (int_range 0 100000))
      (fun (a, b) ->
        let rec euclid a b = if b = 0 then a else euclid b (a mod b) in
        B.to_int_opt (B.gcd (B.of_int a) (B.of_int b)) = Some (euclid a b));
    qtest "qcheck: gcd of big products divides both" gen_big (fun x ->
        let y = B.mul x (B.of_int 91) in
        let g = B.gcd x y in
        if B.sign x = 0 then B.equal g (B.abs y)
        else
          B.sign (snd (B.divmod x g)) = 0 && B.sign (snd (B.divmod y g)) = 0);
    qtest "qcheck: num_bits b brackets the magnitude, 2^(b-1) <= |x| < 2^b"
      gen_big
      (fun x ->
        let b = B.num_bits x in
        let two = B.of_int 2 in
        if B.sign x = 0 then b = 0
        else
          B.compare (B.pow two (b - 1)) (B.abs x) <= 0
          && B.compare (B.abs x) (B.pow two b) < 0);
    test "of_string rejects garbage" (fun () ->
        List.iter
          (fun s ->
            check (Printf.sprintf "reject %S" s) true
              (match B.of_string s with
              | _ -> false
              | exception Invalid_argument _ -> true))
          [ ""; "-"; "1_2"; "0x10"; "12.5"; " 7" ]);
    test "min_int corner: negation and rendering" (fun () ->
        let m = B.of_int min_int in
        check "to_string" true (B.to_string m = string_of_int min_int);
        check "round trip" true (B.to_int_opt m = Some min_int);
        check "neg leaves int range" true
          (B.to_int_opt (B.neg m) = None
          && B.equal (B.neg (B.neg m)) m));
  ]

(* --- Q: normalization, field laws, rendering --- *)

let gen_q =
  QCheck2.Gen.map
    (fun (a, b) -> Q.of_ints a (if b = 0 then 1 else b))
    QCheck2.Gen.(pair (int_range (-10000) 10000) (int_range (-10000) 10000))

let q_tests =
  [
    qtest "qcheck: make normalizes (den > 0, gcd = 1, sign on numerator)"
      QCheck2.Gen.(pair (int_range (-100000) 100000) (int_range (-100000) 100000))
      (fun (a, b) ->
        if b = 0 then true
        else begin
          let q = Q.of_ints a b in
          B.sign (Q.den q) > 0
          && B.equal (B.gcd (Q.num q) (Q.den q)) B.one
          && Q.sign q = compare (a * b) 0
        end);
    qtest "qcheck: (a + b) - b = a" QCheck2.Gen.(pair gen_q gen_q)
      (fun (a, b) -> Q.equal (Q.sub (Q.add a b) b) a);
    qtest "qcheck: a * (b + c) = a*b + a*c"
      QCheck2.Gen.(pair gen_q (pair gen_q gen_q))
      (fun (a, (b, c)) ->
        Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c)));
    qtest "qcheck: (a / b) * b = a for b <> 0" QCheck2.Gen.(pair gen_q gen_q)
      (fun (a, b) -> Q.is_zero b || Q.equal (Q.mul (Q.div a b) b) a);
    qtest "qcheck: pow agrees with iterated mul"
      QCheck2.Gen.(pair gen_q (int_range 0 8))
      (fun (q, k) ->
        let rec go acc i = if i = 0 then acc else go (Q.mul acc q) (i - 1) in
        Q.equal (Q.pow q k) (go Q.one k));
    qtest "qcheck: pow of a negative exponent inverts"
      QCheck2.Gen.(pair gen_q (int_range 1 6))
      (fun (q, k) ->
        Q.is_zero q || Q.equal (Q.pow q (-k)) (Q.inv (Q.pow q k)));
    qtest "qcheck: compare is antisymmetric and agrees with sub's sign"
      QCheck2.Gen.(pair gen_q gen_q)
      (fun (a, b) ->
        Q.compare a b = -Q.compare b a && Q.compare a b = Q.sign (Q.sub a b));
    qtest "qcheck: equal coincides with compare = 0 (canonical forms)"
      QCheck2.Gen.(pair gen_q gen_q)
      (fun (a, b) -> Q.equal a b = (Q.compare a b = 0));
    qtest "qcheck: decimal literals round-trip exactly"
      QCheck2.Gen.(pair (int_range 1 999999) (int_range 0 3))
      (fun (a, k) ->
        let x = Q.make (B.of_int a) (B.pow (B.of_int 10) k) in
        Q.equal (Q.of_decimal_string (Q.to_decimal ~sig_figs:12 x)) x);
    test "of_float is exact on dyadics" (fun () ->
        check "0.5" true (Q.equal (Q.of_float 0.5) (Q.of_ints 1 2));
        check "-0.375" true (Q.equal (Q.of_float (-0.375)) (Q.of_ints (-3) 8));
        check "2.5" true (Q.equal (Q.of_float 2.5) (Q.of_ints 5 2));
        check "20.0" true (Q.equal (Q.of_float 20.0) (Q.of_int 20));
        check "0" true (Q.equal (Q.of_float 0.0) Q.zero));
    test "of_float 0.1 is the float, not the literal" (fun () ->
        (* the binary double closest to 0.1 — exactly why probcheck parses
           loss from the decimal string instead *)
        check "0.1 <> 1/10" false (Q.equal (Q.of_float 0.1) (Q.of_ints 1 10));
        check "0.1 dyadic den" true
          (B.equal (Q.den (Q.of_float 0.1))
             (B.pow (B.of_int 2) 55)));
    test "of_decimal_string parses exactly" (fun () ->
        check "0.05" true (Q.equal (Q.of_decimal_string "0.05") (Q.of_ints 1 20));
        check "3.14" true (Q.equal (Q.of_decimal_string "3.14") (Q.of_ints 157 50));
        check "-0.125" true
          (Q.equal (Q.of_decimal_string "-0.125") (Q.of_ints (-1) 8));
        check "10" true (Q.equal (Q.of_decimal_string "10") (Q.of_int 10));
        check ".5" true (Q.equal (Q.of_decimal_string ".5") (Q.of_ints 1 2));
        List.iter
          (fun s ->
            check (Printf.sprintf "reject %S" s) true
              (match Q.of_decimal_string s with
              | _ -> false
              | exception Invalid_argument _ -> true))
          [ ""; "."; "1e5"; "1.2.3"; "1/2" ]);
    test "to_decimal renders like %g" (fun () ->
        let cases =
          [
            (Q.of_ints 1 2, "0.5");
            (Q.of_ints 1 20, "0.05");
            (Q.of_ints (-3) 2, "-1.5");
            (Q.of_int 0, "0");
            (Q.of_ints 1 3, "0.333333333");
            (Q.of_ints 2 3, "0.666666667");
            (Q.of_ints 1 25_600_000_000, "3.90625e-11");
            (Q.of_ints 567 400_000_000, "1.4175e-06");
            (Q.of_int 180_000_000_000, "1.8e+11");
            (* 9.99999996: a start one above the exponent once accepted
               the 8-figure mantissa 10^8 and printed "10" *)
            (Q.of_ints 249999999 25000000, "9.99999996");
          ]
        in
        List.iter
          (fun (q, expect) ->
            Alcotest.(check string) expect expect (Q.to_decimal q))
          cases;
        Alcotest.(check string) "sig_figs=3 rounding overflow" "1e+03"
          (Q.to_decimal ~sig_figs:3 (Q.of_ints 999999 1000));
        Alcotest.(check string) "unreduced 1999999992/200000000" "9.99999996"
          (Q.decimal_of_ratio ~num:(B.of_int 1999999992)
             ~den:(B.of_int 200000000) ()));
    test "decimal_of_ratio works unreduced" (fun () ->
        Alcotest.(check string) "6/4" "1.5"
          (Q.decimal_of_ratio ~num:(B.of_int 6) ~den:(B.of_int 4) ()));
  ]

(* --- Binomial: exact distribution arithmetic --- *)

let binomial_tests =
  [
    test "choose: Pascal row 6" (fun () ->
        List.iteri
          (fun k expect ->
            check_int (Printf.sprintf "C(6,%d)" k) expect
              (Option.get (B.to_int_opt (Bin.choose 6 k))))
          [ 1; 6; 15; 20; 15; 6; 1 ]);
    qtest "qcheck: choose satisfies the Pascal recurrence"
      QCheck2.Gen.(pair (int_range 1 40) (int_range 0 40))
      (fun (n, k) ->
        B.equal (Bin.choose n k)
          (B.add (Bin.choose (n - 1) (k - 1)) (Bin.choose (n - 1) k)));
    qtest "qcheck: pmf sums to exactly one"
      QCheck2.Gen.(pair (int_range 1 12) (pair (int_range 0 10) (int_range 1 10)))
      (fun (n, (a, b)) ->
        let p = Q.of_ints (min a b) (max (min a b) b) in
        let total = ref Q.zero in
        for k = 0 to n do
          total := Q.add !total (Bin.pmf ~n ~k ~p)
        done;
        Q.equal !total Q.one);
    qtest "qcheck: two_sided_bounds is the tightest exact central interval"
      QCheck2.Gen.(pair (int_range 1 40) (int_range 1 19))
      (fun (n, a) ->
        let p = Q.of_ints a 20 in
        let alpha = Q.of_ints 1 1000 in
        let half = Q.div alpha (Q.of_int 2) in
        let lo, hi = Bin.two_sided_bounds ~n ~p ~alpha in
        let cdf k = Bin.cdf ~n ~k ~p in
        lo <= hi
        && (lo = 0 || Q.compare (cdf (lo - 1)) half <= 0)
        && Q.compare (cdf lo) half > 0
        && Q.compare (cdf hi) (Q.sub Q.one half) >= 0
        && (hi = 0 || Q.compare (cdf (hi - 1)) (Q.sub Q.one half) < 0));
    test "two_sided_bounds degenerate p" (fun () ->
        check "p=0" true (Bin.two_sided_bounds ~n:50 ~p:Q.zero ~alpha:(Q.of_ints 1 100) = (0, 0));
        check "p=1" true (Bin.two_sided_bounds ~n:50 ~p:Q.one ~alpha:(Q.of_ints 1 100) = (50, 50)));
    test "two_sided_bounds at Monte Carlo scale brackets the mean" (fun () ->
        let lo, hi =
          Bin.two_sided_bounds ~n:7200 ~p:(Q.of_ints 1 16) ~alpha:(Q.of_ints 1 1000)
        in
        check "lo <= mean" true (lo <= 450);
        check "mean <= hi" true (450 <= hi);
        check "bounds discriminate a wrong attempt count" true
          (hi < 900 && lo > 225));
  ]

(* --- Round_chain: spec, chain-vs-closed-form, landing --- *)

let sync ~d ~rto ~retries = Net.Sync.make ~round_duration:d ~rto ~max_retries:retries

(* rto=1, window=4, deep budget: the PR 6 boundary case — the retry at
   offset 4 would land exactly on the close, so only 4 attempts exist. *)
let boundary_sync = sync ~d:4.0 ~rto:1.0 ~retries:7

let chain_tests =
  [
    test "attempt_times mirrors attempts on the default timing" (fun () ->
        List.iter
          (fun bound ->
            let topo =
              Net.Topology.make ~n:4
                ~link:(Net.Link.make ~latency:(Net.Link.Const bound) ~loss:0.0)
            in
            let s = Net.Sync.default_for topo in
            let times = Net.Sync.attempt_times s in
            (* the default window of 8 rto admits all 7 retries *)
            check_int (Printf.sprintf "bound %g" bound) 8 (Array.length times);
            check "starts at 0" true (times.(0) = 0.0);
            Array.iteri
              (fun i t ->
                if i > 0 then begin
                  check "increasing" true (t > times.(i - 1));
                  check "inside window" true (t < s.Net.Sync.round_duration)
                end)
              times)
          [ 0.0; 0.25; 1.0; 3.0 ]);
    test "boundary window = k * rto admits k attempts, not k+1" (fun () ->
        check_int "attempt_times" 4 (Array.length (Net.Sync.attempt_times boundary_sync));
        check "offsets" true (Net.Sync.attempt_times boundary_sync = [| 0.0; 1.0; 2.0; 3.0 |]));
    test "spec: constant latency inside the window saturates in_window" (fun () ->
        let spec =
          RC.spec ~sync:(sync ~d:8.0 ~rto:1.0 ~retries:1)
            ~latency:(Net.Link.Const 0.25) ~loss:(Q.of_ints 1 4)
        in
        check_int "attempts" 2 spec.RC.attempts;
        Array.iter (fun u -> check "u = 1" true (Q.equal u Q.one)) spec.RC.in_window;
        Array.iter
          (fun s -> check "s = 3/4" true (Q.equal s (Q.of_ints 3 4)))
          spec.RC.success;
        check "miss = 1/16" true
          (Q.equal (RC.per_message_miss spec) (Q.of_ints 1 16)));
    test "spec: uniform latency crosses the last cutoff" (fun () ->
        let spec =
          RC.spec ~sync:boundary_sync
            ~latency:(Net.Link.Uniform (0.5, 1.5))
            ~loss:(Q.of_ints 1 2)
        in
        (* cutoffs 4, 3, 2, 1: the attempt-4 copy only lands if its latency
           is below 1.0, i.e. with probability (1 - 0.5) / (1.5 - 0.5). *)
        check "u = [1; 1; 1; 1/2]" true
          (Array.for_all2 Q.equal spec.RC.in_window
             [| Q.one; Q.one; Q.one; Q.of_ints 1 2 |]);
        check "q = 3/32" true
          (Q.equal (RC.per_message_miss spec) (Q.of_ints 3 32)));
    test "spec: spike latency mixes the two branches" (fun () ->
        let spec =
          RC.spec ~sync:boundary_sync
            ~latency:(Net.Link.Spike { base = 0.5; prob = 0.25; spike = 10.0 })
            ~loss:Q.zero
        in
        Array.iter
          (fun u -> check "u = 3/4" true (Q.equal u (Q.of_ints 3 4)))
          spec.RC.in_window);
    test "latency_cdf edge: arrival exactly at the close is late" (fun () ->
        check "const at cutoff" true
          (Q.is_zero (RC.latency_cdf (Net.Link.Const 1.0) ~cutoff:(Q.of_int 1)));
        check "const below cutoff" true
          (Q.equal (RC.latency_cdf (Net.Link.Const 0.99) ~cutoff:(Q.of_int 1)) Q.one));
    test "chain rows are exact probability distributions" (fun () ->
        let spec =
          RC.spec ~sync:boundary_sync
            ~latency:(Net.Link.Uniform (0.5, 1.5))
            ~loss:(Q.of_ints 1 2)
        in
        let rows = RC.chain spec ~m:6 in
        check_int "rows" (spec.RC.attempts + 1) (Array.length rows);
        Array.iter
          (fun row ->
            let total = Array.fold_left Q.add Q.zero row in
            check "row sums to 1" true (Q.equal total Q.one))
          rows);
    test "chain absorbs into Binomial(m, q): exact rational equality" (fun () ->
        let spec =
          RC.spec ~sync:boundary_sync
            ~latency:(Net.Link.Uniform (0.5, 1.5))
            ~loss:(Q.of_ints 1 2)
        in
        let m = 6 in
        let rows = RC.chain spec ~m in
        let final = rows.(spec.RC.attempts) in
        let q = RC.per_message_miss spec in
        for j = 0 to m do
          check
            (Printf.sprintf "P(%d undelivered)" j)
            true
            (Q.equal final.(j) (Bin.pmf ~n:m ~k:j ~p:q))
        done);
    test "chain mass at zero equals the all_by closed form at every step" (fun () ->
        let spec =
          RC.spec ~sync:boundary_sync
            ~latency:(Net.Link.Uniform (0.5, 1.5))
            ~loss:(Q.of_ints 1 2)
        in
        let m = 5 in
        let rows = RC.chain spec ~m in
        for k = 0 to spec.RC.attempts do
          check
            (Printf.sprintf "all_by %d" k)
            true
            (Q.equal rows.(k).(0) (RC.all_by spec ~m ~k))
        done);
    test "chain expectation equals m * q" (fun () ->
        let spec =
          RC.spec ~sync:(sync ~d:8.0 ~rto:1.0 ~retries:2)
            ~latency:(Net.Link.Const 0.25) ~loss:(Q.of_ints 1 4)
        in
        let m = 7 in
        let rows = RC.chain spec ~m in
        let final = rows.(spec.RC.attempts) in
        let expectation = ref Q.zero in
        Array.iteri
          (fun j p -> expectation := Q.add !expectation (Q.mul (Q.of_int j) p))
          final;
        check "E = m*q" true
          (Q.equal !expectation (RC.expected_undelivered spec ~m)));
    test "landing distribution is consistent with all_by and sums to one" (fun () ->
        let spec =
          RC.spec ~sync:boundary_sync
            ~latency:(Net.Link.Uniform (0.5, 1.5))
            ~loss:(Q.of_ints 1 2)
        in
        let m = 5 in
        let landing = RC.landing ~sig_figs:9 spec ~m in
        check_int "all_by entries" (spec.RC.attempts + 1)
          (Array.length landing.RC.all_by_attempt);
        Array.iteri
          (fun i d ->
            let exact =
              Q.sub landing.RC.all_by_attempt.(i + 1) landing.RC.all_by_attempt.(i)
            in
            Alcotest.(check string)
              (Printf.sprintf "exactly %d" (i + 1))
              (Q.to_decimal ~sig_figs:9 exact) d)
          landing.RC.exactly_decimal;
        Alcotest.(check string) "residual"
          (Q.to_decimal ~sig_figs:9
             (Q.one_minus landing.RC.all_by_attempt.(spec.RC.attempts)))
          landing.RC.residual_decimal;
        (* exact total: all_by A + residual = 1 *)
        check "monotone" true
          (Array.for_all
             (fun k ->
               Q.compare landing.RC.all_by_attempt.(k)
                 landing.RC.all_by_attempt.(k + 1)
               <= 0)
             (Array.init spec.RC.attempts (fun i -> i))));
    test "committed n=64 row: exact residual miss, misses, decision time" (fun () ->
        let report = Eba_harness.Probcheck_cases.n64 () in
        check "q = 1/25600000000" true
          (Q.equal report.Report.per_message_miss (Q.of_ints 1 25_600_000_000));
        check "E misses = 567/400000000" true
          (Q.equal report.Report.expected_misses_per_run
             (Q.of_ints 567 400_000_000));
        Alcotest.(check string) "q decimal" "3.90625e-11"
          (Q.to_decimal report.Report.per_message_miss);
        check "decision = 180e9 ns" true
          (Q.equal report.Report.decision_time_ns (Q.of_int 180_000_000_000));
        check_int "attempts" 8 report.Report.spec.RC.attempts;
        check_int "messages per run" 36288 report.Report.messages_per_run);
    test "one Report.make times its landing and its run-all power once each"
      (fun () ->
        with_metrics (fun () ->
            ignore (Eba_harness.Probcheck_cases.small ());
            check_int "prob.landing" 1 (counter_value "prob.landing");
            check_int "prob.run_all_power" 1 (counter_value "prob.run_all_power")));
  ]

(* --- Monte Carlo differential: seeded sweeps inside exact bounds --- *)

(* A loss-only sweep (no faults): every one of the runs * rounds * n(n-1)
   FloodSet messages independently misses its window with the model's
   exact probability q, so the sweep's missed-message count is a
   Binomial(N, q) draw.  Assert it lands inside the exact two-sided 99.9%
   interval — and that the deterministic decision times match the model's
   nanosecond count exactly. *)
let mc_case ~name ~n ~t ~latency ~loss ~loss_float ~sync ~runs ~seed ~jobs () =
  let rounds = t + 1 in
  let spec = RC.spec ~sync ~latency ~loss in
  let q = RC.per_message_miss spec in
  let total = runs * rounds * n * (n - 1) in
  let lo, hi = Bin.two_sided_bounds ~n:total ~p:q ~alpha:(Q.of_ints 1 1000) in
  let params = Eba.Params.make ~n ~t ~horizon:rounds ~mode:Eba.Params.Crash in
  let topology =
    Net.Topology.make ~n ~link:(Net.Link.make ~latency ~loss:loss_float)
  in
  let summary =
    Net.Netsim.sweep ~jobs
      (module Eba.Floodset)
      params ~sync ~topology
      ~dynamic:(Net.Inject.dynamic ~max_faulty:0 ())
      ~seed ~runs
  in
  check_int (name ^ ": every message attempted") total
    summary.Net.Net_stats.ns_attempted;
  let missed =
    summary.Net.Net_stats.ns_attempted - summary.Net.Net_stats.ns_delivered
  in
  check
    (Printf.sprintf "%s: missed=%d inside exact 99.9%% bounds [%d, %d]" name
       missed lo hi)
    true
    (lo <= missed && missed <= hi);
  (* decision time: fault-free FloodSet decides at the close of round t+1,
     and the model's exact nanosecond count must match the simulator's. *)
  let report = Report.make ~n ~t ~rounds ~loss ~latency ~sync () in
  let per_decision =
    Option.get (B.to_int_opt (Q.num report.Report.decision_time_ns))
  in
  check "decision_time_ns is integral" true
    (B.equal (Q.den report.Report.decision_time_ns) B.one);
  check_int (name ^ ": all nonfaulty decided") (n * runs)
    summary.Net.Net_stats.ns_decided_nonfaulty;
  check_int
    (name ^ ": decision ns sum = decided * model")
    (n * runs * per_decision)
    summary.Net.Net_stats.ns_decision_ns_sum

let mc_settings =
  [
    (* retry budget of 1: A = 2, q = (1/4)^2 *)
    ( "budget",
      mc_case ~name:"budget" ~n:4 ~t:1 ~latency:(Net.Link.Const 0.25)
        ~loss:(Q.of_ints 1 4) ~loss_float:0.25
        ~sync:(sync ~d:8.0 ~rto:1.0 ~retries:1)
        ~runs:300 ~seed:20260808 );
    (* PR 6 boundary, window = 4 * rto: A = 4 (truncation would say 5),
       q = (1/2)^4 — a wrong attempt count doubles the expected count and
       lands far outside the 99.9% interval *)
    ( "boundary",
      mc_case ~name:"boundary" ~n:4 ~t:1 ~latency:(Net.Link.Const 0.25)
        ~loss:(Q.of_ints 1 2) ~loss_float:0.5 ~sync:boundary_sync ~runs:300
        ~seed:31337 );
    (* no retries at all: the miss probability is the raw loss 3/8 *)
    ( "no-retries",
      mc_case ~name:"no-retries" ~n:4 ~t:1 ~latency:(Net.Link.Const 0.25)
        ~loss:(Q.of_ints 3 8) ~loss_float:0.375
        ~sync:(sync ~d:8.0 ~rto:1.0 ~retries:0)
        ~runs:100 ~seed:4242 );
    (* uniform latency crossing the last cutoff: q = (1/2)^3 * 3/4 *)
    ( "uniform-tail",
      mc_case ~name:"uniform-tail" ~n:4 ~t:1
        ~latency:(Net.Link.Uniform (0.5, 1.5))
        ~loss:(Q.of_ints 1 2) ~loss_float:0.5 ~sync:boundary_sync ~runs:200
        ~seed:90210 );
  ]

let mc_tests =
  List.concat_map
    (fun (name, case) ->
      [
        slow (Printf.sprintf "MC differential (%s), jobs=1" name) (case ~jobs:1);
        slow (Printf.sprintf "MC differential (%s), jobs=4" name) (case ~jobs:4);
      ])
    mc_settings

(* --- golden probcheck reports --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let golden_tests =
  [
    test "probcheck small report matches the committed golden JSON" (fun () ->
        Alcotest.(check string) "probcheck_small.expected"
          (read_file "golden/probcheck_small.expected")
          (Eba.Json.to_string
             (Report.to_json (Eba_harness.Probcheck_cases.small ()))));
    slow "probcheck n=64 report matches the committed golden JSON" (fun () ->
        Alcotest.(check string) "probcheck_n64.expected"
          (read_file "golden/probcheck_n64.expected")
          (Eba.Json.to_string
             (Report.to_json (Eba_harness.Probcheck_cases.n64 ()))));
  ]

(* --- cooperative cancellation --- *)

let cancel_tests =
  [
    test "a pre-fired token cancels Report.make before the analysis"
      (fun () ->
        let cancel = Eba.Cancel.create () in
        Eba.Cancel.cancel cancel;
        let latency = Eba.Net.Link.Const 1.0 in
        let sync =
          Eba.Net.Sync.default_for
            (Eba.Net.Topology.make ~n:4
               ~link:(Eba.Net.Link.make ~latency ~loss:0.0))
        in
        match
          Report.make ~cancel ~n:4 ~t:1 ~rounds:2 ~loss:(Q.of_ints 1 20)
            ~latency ~sync ()
        with
        | _ -> Alcotest.fail "cancelled report returned"
        | exception Eba.Cancel.Cancelled -> ());
    test "a pre-fired token cancels Round_chain.landing row enumeration"
      (fun () ->
        let cancel = Eba.Cancel.create () in
        Eba.Cancel.cancel cancel;
        let spec =
          RC.spec ~sync:boundary_sync
            ~latency:(Net.Link.Uniform (0.5, 1.5))
            ~loss:(Q.of_ints 1 2)
        in
        match RC.landing ~cancel spec ~m:5 with
        | _ -> Alcotest.fail "cancelled landing returned"
        | exception Eba.Cancel.Cancelled -> ());
  ]

(* --- the fast kernels against independent references --- *)

let limb = 1 lsl 30

(* A magnitude of 1-200 base-2^30 limbs, biased toward all-ones and zero
   limbs (carry chains), assembled with add/mul only. *)
let gen_limbs =
  QCheck2.Gen.(
    map
      (fun (limbs, negate) ->
        let x =
          List.fold_left
            (fun acc l -> B.add (B.mul acc (B.of_int limb)) (B.of_int l))
            B.zero limbs
        in
        if negate then B.neg x else x)
      (pair
         (list_size (int_range 1 200)
            (frequency
               [ (6, int_bound (limb - 1)); (2, return (limb - 1)); (1, return 0) ]))
         bool))

let ten_to k = B.of_string ("1" ^ String.make k '0')

(* %g-style rendering from the digit string of floor(|n| * 10^K / d) for a
   K large enough that at least sig_figs + 1 digits survive: the half-up
   decision needs only the first dropped digit. *)
let oracle_decimal ~sig_figs ~num ~den =
  if B.sign num = 0 then "0"
  else begin
    let k = sig_figs + 5 + String.length (B.to_string den) in
    let s = B.to_string (fst (B.divmod (B.mul (B.abs num) (ten_to k)) den)) in
    let e = String.length s - 1 - k in
    let digits = Bytes.of_string (String.sub s 0 sig_figs) in
    let e =
      if s.[sig_figs] < '5' then e
      else begin
        let i = ref (sig_figs - 1) in
        while !i >= 0 && Bytes.get digits !i = '9' do
          Bytes.set digits !i '0';
          decr i
        done;
        if !i >= 0 then begin
          Bytes.set digits !i (Char.chr (Char.code (Bytes.get digits !i) + 1));
          e
        end
        else begin
          Bytes.set digits 0 '1';
          e + 1
        end
      end
    in
    let digits = Bytes.to_string digits in
    let len = ref sig_figs in
    while !len > 1 && digits.[!len - 1] = '0' do
      decr len
    done;
    let d = String.sub digits 0 !len in
    let sign = if B.sign num < 0 then "-" else "" in
    let frac_of from =
      if !len > from then "." ^ String.sub d from (!len - from) else ""
    in
    if e >= sig_figs || e < -4 then
      Printf.sprintf "%s%c%se%c%02d" sign d.[0] (frac_of 1)
        (if e < 0 then '-' else '+')
        (abs e)
    else if e < 0 then sign ^ "0." ^ String.make (-e - 1) '0' ^ d
    else if !len <= e + 1 then sign ^ d ^ String.make (e + 1 - !len) '0'
    else sign ^ String.sub d 0 (e + 1) ^ frac_of (e + 1)
  end

(* Unreduced multi-limb ratios, biased toward 10^a +- s over 10^b (the
   boundaries where a mantissa rounds up to the next power of ten) and
   exact half-way ties, all scaled by a shared factor. *)
let gen_ratio =
  QCheck2.Gen.(
    let pos = map (fun x -> B.add (B.abs x) B.one) gen_big in
    let near_power =
      map
        (fun ((a, s), up) ->
          if up then B.add (ten_to a) (B.of_int s)
          else B.add (B.sub (ten_to a) (B.of_int s)) B.one)
        (pair (pair (int_range 1 30) (int_range 0 9)) bool)
    in
    let tie =
      map
        (fun (m, a) -> B.mul (B.of_int ((10 * m) + 5)) (ten_to a))
        (pair (int_range 0 99_999_999) (int_range 0 12))
    in
    let num = frequency [ (3, pos); (3, near_power); (2, tie); (1, return B.zero) ] in
    let den =
      frequency [ (3, pos); (3, map ten_to (int_range 0 30)); (1, near_power) ]
    in
    let common = frequency [ (1, return B.one); (2, pos) ] in
    map
      (fun ((((n, d), c), negate), sig_figs) ->
        let n = B.mul n c in
        ((if negate then B.neg n else n), B.mul d c, sig_figs))
      (pair (pair (pair (pair num den) common) bool) (int_range 1 12)))

(* Latency, loss and timing parameters on an eighths grid (exact floats,
   small denominators) with decimal losses. *)
let gen_landing_case =
  QCheck2.Gen.(
    let eighths lo hi = map (fun k -> float_of_int k /. 8.0) (int_range lo hi) in
    let latency =
      oneof
        [
          map (fun c -> Net.Link.Const c) (eighths 1 40);
          map
            (fun (lo, w) -> Net.Link.Uniform (lo, lo +. w))
            (pair (eighths 1 16) (eighths 0 16));
          map
            (fun ((base, prob), spike) -> Net.Link.Spike { base; prob; spike })
            (pair (pair (eighths 1 16) (eighths 0 8)) (eighths 1 80));
        ]
    in
    let loss =
      oneof
        [
          oneofl [ "0"; "0.05"; "0.25"; "0.35"; "0.5"; "0.999"; "0.0001" ];
          map (Printf.sprintf "0.%02d") (int_range 0 99);
        ]
    in
    let timing =
      map
        (fun ((rto, extra), retries) -> (rto, rto +. extra, retries))
        (pair (pair (eighths 1 16) (eighths 0 64)) (int_range 0 8))
    in
    pair (pair (pair latency loss) timing) (int_range 1 300))

let print_landing_case (((latency, loss), (rto, d, retries)), m) =
  Printf.sprintf "latency=%s loss=%s rto=%g round=%g retries=%d m=%d"
    (Net.Link.latency_to_string latency)
    loss rto d retries m

(* --- the served size bound --- *)

(* The summed bit lengths of every power [Report.make] raises: each
   landing row's [b^m] (numerator and denominator) and its numerator over
   the common denominator [L], then [L^m] and [(1 - q)^(m * rounds)].  A
   power that is 0 or 1 counts 0, as in [Report.power_bits]. *)
let raised_bits ~n ~rounds spec =
  let m = n * (n - 1) in
  let bits x = if B.compare x B.one <= 0 then 0 else B.num_bits x in
  let base =
    Array.init (spec.RC.attempts + 1) (fun k -> Q.one_minus (RC.miss_after spec k))
  in
  let l =
    Array.fold_left
      (fun l b ->
        let d = Q.den b in
        B.mul l (fst (B.divmod d (B.gcd l d))))
      B.one base
  in
  let row b =
    let p = Q.pow b m in
    bits (Q.num p) + bits (Q.den p)
    + bits (B.pow (B.mul (Q.num b) (fst (B.divmod l (Q.den b)))) m)
  in
  let run_all = Q.pow (Q.one_minus (RC.per_message_miss spec)) (m * rounds) in
  Array.fold_left (fun acc b -> acc + row b) 0 base
  + bits (B.pow l m)
  + bits (Q.num run_all)
  + bits (Q.den run_all)

let size_tests =
  [
    qtest ~count:150 "qcheck: power_bits bounds the bits of every power make raises"
      ~print:(fun ((case, n), rounds) ->
        Printf.sprintf "%s n=%d rounds=%d" (print_landing_case case) n rounds)
      QCheck2.Gen.(pair (pair gen_landing_case (int_range 2 7)) (int_range 1 6))
      (fun (((((latency, loss), (rto, d, retries)), _), n), rounds) ->
        let sync = sync ~d ~rto ~retries and loss = Q.of_decimal_string loss in
        let spec = RC.spec ~sync ~latency ~loss in
        let bound = Report.power_bits ~n ~t:1 ~rounds ~loss ~latency ~sync in
        raised_bits ~n ~rounds spec <= bound
        && (bound = 0) = (RC.base_bits spec = 0));
    test "power_bits rejects what make rejects, with make's message" (fun () ->
        let latency = Net.Link.Const 1.0 and sync = boundary_sync in
        List.iter
          (fun (n, t, rounds, loss) ->
            let message f =
              match f () with
              | _ -> Alcotest.fail "accepted"
              | exception Invalid_argument m -> m
            in
            Alcotest.(check string)
              (Printf.sprintf "n=%d t=%d rounds=%d loss=%s" n t rounds (Q.to_string loss))
              (message (fun () ->
                   ignore (Report.make ~n ~t ~rounds ~loss ~latency ~sync ())))
              (message (fun () -> Report.power_bits ~n ~t ~rounds ~loss ~latency ~sync)))
          [
            (1, 1, 2, Q.of_ints 3 2);
            (4, -1, 0, Q.zero);
            (4, 1, 0, Q.of_ints 3 2);
            (2790935979167403064, 1, 2, Q.of_ints 3 2);
            (4, 1, 2, Q.of_ints 3 2);
          ]);
  ]

(* --- the product kernels against the reference products --- *)

let kt = B.karatsuba_threshold

(* Limb patterns: [Ones] makes every carry maximal; [Low_zero] and
   [High_zero] zero the low half, or the high half below a top limb of 1,
   so Karatsuba's halves and their differences degenerate. *)
type shape = Random_limbs | Ones | Mixed | Low_zero | High_zero

let shape_name = function
  | Random_limbs -> "random"
  | Ones -> "ones"
  | Mixed -> "mixed"
  | Low_zero -> "low-zero"
  | High_zero -> "high-zero"

let shapes = [ Random_limbs; Ones; Mixed; Low_zero; High_zero ]

(* [n] limbs of [shape] from [seed], the top one nonzero. *)
let limbs_of ~n ~shape ~seed =
  let st = Random.State.make [| seed; n |] in
  let l =
    Array.init n (fun i ->
        match shape with
        | Random_limbs -> Random.State.bits st
        | Ones -> limb - 1
        | Mixed -> (
            match Random.State.int st 4 with
            | 0 -> 0
            | 1 -> limb - 1
            | _ -> Random.State.bits st)
        | Low_zero -> if i < n / 2 then 0 else Random.State.bits st
        | High_zero -> if i >= n / 2 then 0 else Random.State.bits st)
  in
  if l.(n - 1) = 0 then l.(n - 1) <- 1;
  l

(* A value from its limbs, least significant first: lo + hi * 2^(30 k). *)
let rec of_limbs l =
  let n = Array.length l in
  if n <= 8 then
    Array.fold_right (fun x acc -> B.add (B.mul acc (B.of_int limb)) (B.of_int x)) l B.zero
  else
    let k = n / 2 in
    B.add
      (of_limbs (Array.sub l 0 k))
      (B.mul (of_limbs (Array.sub l k (n - k))) (B.pow (B.of_int 2) (30 * k)))

let operand ~n ~shape ~seed ~negate =
  let l = limbs_of ~n ~shape ~seed in
  let x = of_limbs l in
  if x.B.mag <> l then Alcotest.failf "of_limbs: %d limbs of %s" n (shape_name shape);
  if negate then B.neg x else x

let gen_shape = QCheck2.Gen.oneofl shapes

(* Two operands' (limbs, shape, negated) and a seed. *)
let gen_operands size_a size_b =
  QCheck2.Gen.(
    pair (pair (triple size_a gen_shape bool) (triple size_b gen_shape bool)) int)

let print_operands (((la, sa, na), (lb, sb, nb)), seed) =
  Printf.sprintf "%d limbs %s%s x %d limbs %s%s, seed %d" la (shape_name sa)
    (if na then " negated" else "")
    lb (shape_name sb)
    (if nb then " negated" else "")
    seed

let mul_matches (((la, sa, na), (lb, sb, nb)), seed) =
  let x = operand ~n:la ~shape:sa ~seed ~negate:na in
  let y = operand ~n:lb ~shape:sb ~seed:(seed + 1) ~negate:nb in
  Bigint_ref.equal (B.mul x y) (Bigint_ref.mul x y)
  && Bigint_ref.equal (B.mul y x) (Bigint_ref.mul x y)

let square_matches ~n ~shape ~seed ~negate =
  let x = operand ~n ~shape ~seed ~negate in
  Bigint_ref.equal (B.pow x 2) (Bigint_ref.pow x 2)
  && Bigint_ref.equal (B.mul x x) (Bigint_ref.mul x x)

(* lengths just below, at and above [kt * 2^k], up to 4,000 limbs *)
let split_sizes =
  List.concat_map
    (fun k -> [ (kt lsl k) - 1; kt lsl k; (kt lsl k) + 1 ])
    (List.filter (fun k -> (kt lsl k) + 1 <= 4000) (List.init 8 Fun.id))

let kernel_tests =
  [
    qtest "qcheck: pow equals iterated mul, bases scaled by 2^k and negated"
      QCheck2.Gen.(pair (pair gen_big (int_range 0 70)) (pair bool (int_range 0 40)))
      (fun ((x, k), (negate, e)) ->
        let rec double x k = if k = 0 then x else double (B.add x x) (k - 1) in
        let b = double (if negate then B.neg x else x) k in
        let rec iter acc i = if i = 0 then acc else iter (B.mul acc b) (i - 1) in
        B.equal (B.pow b e) (iter B.one e));
    qtest ~count:60 "qcheck: pow x 2 = mul x x from 1 to 200 limbs" gen_limbs
      (fun x -> B.equal (B.pow x 2) (B.mul x x));
    test "pow refuses a shift count past the int range" (fun () ->
        match B.pow (B.of_int 4) max_int with
        | _ -> Alcotest.fail "4^max_int returned"
        | exception Invalid_argument _ -> ());
    qtest ~count:300 "qcheck: decimal_of_ratio equals the digit-string oracle"
      ~print:(fun (num, den, sig_figs) ->
        Printf.sprintf "%s/%s at %d figures" (B.to_string num)
          (B.to_string den) sig_figs)
      gen_ratio
      (fun (num, den, sig_figs) ->
        Q.decimal_of_ratio ~sig_figs ~num ~den ()
        = oracle_decimal ~sig_figs ~num ~den);
    qtest ~count:40
      "qcheck: landing rows are the decimals of the normalized all_by differences"
      ~print:print_landing_case gen_landing_case
      (fun (((latency, loss), (rto, d, retries)), m) ->
        let spec =
          RC.spec ~sync:(sync ~d ~rto ~retries) ~latency
            ~loss:(Q.of_decimal_string loss)
        in
        let landing = RC.landing ~sig_figs:9 spec ~m in
        let a = spec.RC.attempts in
        let all_by = landing.RC.all_by_attempt in
        Array.length all_by = a + 1
        && Q.is_zero all_by.(0)
        && Array.for_all Fun.id
             (Array.init a (fun k -> Q.compare all_by.(k) all_by.(k + 1) <= 0))
        && Array.for_all Fun.id
             (Array.init (a + 1) (fun k -> Q.equal all_by.(k) (RC.all_by spec ~m ~k)))
        && Array.for_all Fun.id
             (Array.mapi
                (fun i s ->
                  s = Q.to_decimal ~sig_figs:9 (Q.sub all_by.(i + 1) all_by.(i)))
                landing.RC.exactly_decimal)
        && landing.RC.residual_decimal
           = Q.to_decimal ~sig_figs:9 (Q.one_minus all_by.(a)));
    test "Report.make refuses message counts that overflow int" (fun () ->
        let sync = sync ~d:20.0 ~rto:2.5 ~retries:7 in
        match
          Report.make ~n:2790935979167403064 ~t:1 ~rounds:2 ~loss:Q.zero
            ~latency:(Net.Link.Const 1.0) ~sync ()
        with
        | _ -> Alcotest.fail "an overflowing n * (n - 1) was accepted"
        | exception Invalid_argument _ -> ());
    test "decision_time_ns is exact past the int range" (fun () ->
        let report =
          Report.make ~n:2 ~t:1 ~rounds:9_300_000_000 ~loss:Q.zero
            ~latency:(Net.Link.Const 1.0)
            ~sync:(sync ~d:20.0 ~rto:2.5 ~retries:7)
            ()
        in
        check "186 * 10^18 ns" true
          (Q.equal report.Report.decision_time_ns
             (Q.of_bigint (B.mul (B.of_int 186) (ten_to 18)))));
    qtest ~count:40 "qcheck: mul = the reference product, 1 to 4,000 limbs"
      ~print:print_operands
      (gen_operands (QCheck2.Gen.int_range 1 4000) (QCheck2.Gen.int_range 1 4000))
      mul_matches;
    qtest ~count:40 "qcheck: pow x 2 = the reference square, 1 to 4,000 limbs"
      ~print:(fun ((n, shape, negate), seed) ->
        Printf.sprintf "%d limbs %s%s, seed %d" n (shape_name shape)
          (if negate then " negated" else "")
          seed)
      QCheck2.Gen.(pair (triple (int_range 1 4000) gen_shape bool) int)
      (fun ((n, shape, negate), seed) -> square_matches ~n ~shape ~seed ~negate);
    qtest ~count:40 "qcheck: pow x e = the reference power, up to 4,000 limbs"
      ~print:(fun (((n, shape, negate), seed), e) ->
        Printf.sprintf "(%d limbs %s%s, seed %d)^%d" n (shape_name shape)
          (if negate then " negated" else "")
          seed e)
      QCheck2.Gen.(
        let* n = frequency [ (3, int_range 1 3); (1, int_range 4 400) ] in
        let* e = int_range 0 (4000 / n) in
        pair (pair (triple (return n) gen_shape bool) int) (return e))
      (fun (((n, shape, negate), seed), e) ->
        let x = operand ~n ~shape ~seed ~negate in
        Bigint_ref.equal (B.pow x e) (Bigint_ref.pow x e));
    qtest ~count:40
      "qcheck: unbalanced mul, 1 to threshold + 1 limbs against up to 4,000"
      ~print:print_operands
      (gen_operands (QCheck2.Gen.int_range 1 (kt + 1)) (QCheck2.Gen.int_range 1 4000))
      mul_matches;
    qtest ~count:40 "qcheck: mul across slice boundaries, j slices +- 1 limb"
      ~print:print_operands
      QCheck2.Gen.(
        let* lb = int_range (kt + 1) 1000 in
        let* j = int_range 2 (3999 / lb) in
        let* d = int_range (-1) 1 in
        gen_operands (return ((j * lb) + d)) (return lb))
      mul_matches;
    test "mul and square at threshold * 2^k +- 1 limbs, every limb shape"
      (fun () ->
        List.iteri
          (fun i n ->
            List.iter
              (fun shape ->
                let seed = (17 * i) + 3 in
                check (Printf.sprintf "%d limbs %s squared" n (shape_name shape))
                  true
                  (square_matches ~n ~shape ~seed ~negate:(i land 1 = 1));
                check
                  (Printf.sprintf "%d x %d limbs %s" n (n - 1) (shape_name shape))
                  true
                  (n < 2
                  || mul_matches
                       (((n, shape, false), (n - 1, Random_limbs, true)), seed)))
              shapes)
          split_sizes);
    test "two domains squaring at once each get the reference square" (fun () ->
        let values =
          Array.init 2 (fun i ->
              operand ~n:(2000 + (500 * i)) ~shape:Random_limbs ~seed:(91 + i)
                ~negate:false)
        in
        let expected = Array.map (fun x -> Bigint_ref.pow x 2) values in
        let worker i () =
          List.for_all
            (fun _ -> Bigint_ref.equal (B.pow values.(i) 2) expected.(i))
            (List.init 30 Fun.id)
        in
        let domains = Array.init 2 (fun i -> Domain.spawn (worker i)) in
        Array.iteri
          (fun i d -> check (Printf.sprintf "domain %d" i) true (Domain.join d))
          domains);
  ]

(* --- the miss products, computed once per landing --- *)

(* [attempts] transmissions on a window that ends [1 + f] rtos past the
   last one, under a uniform latency whose support covers every attempt's
   cutoff: each success probability is fractional. *)
let gen_fractional_spec =
  QCheck2.Gen.(
    map
      (fun (((attempts, rto), f), loss) ->
        let rto = float_of_int rto /. 8.0 and f = float_of_int f /. 8.0 in
        let d = (float_of_int attempts +. f) *. rto in
        let latency = Net.Link.Uniform (f *. rto /. 2.0, d +. 1.0) in
        (attempts, RC.spec ~sync:(sync ~d ~rto ~retries:(attempts - 1)) ~latency
           ~loss:(Q.of_decimal_string loss)))
      (pair
         (pair (pair (int_range 1 64) (int_range 1 16)) (int_range 1 7))
         (oneofl [ "0"; "0.05"; "0.3" ])))

(* the oracle: miss_after k as a from-scratch product over the first k
   attempts *)
let miss_oracle spec k =
  Array.fold_left
    (fun acc s -> Q.mul acc (Q.one_minus s))
    Q.one (Array.sub spec.RC.success 0 k)

let miss_tests =
  [
    qtest ~count:25
      "qcheck: landing's running miss products = the from-scratch product, 1..64 attempts"
      ~print:(fun (a, spec) -> Format.asprintf "attempts=%d %a" a RC.pp_spec spec)
      gen_fractional_spec
      (fun (attempts, spec) ->
        let landing = RC.landing ~sig_figs:9 spec ~m:2 in
        spec.RC.attempts = attempts
        && Array.length landing.RC.miss_after_attempt = attempts + 1
        && Array.for_all Fun.id
             (Array.init (attempts + 1) (fun k ->
                  let q = miss_oracle spec k in
                  Q.equal landing.RC.miss_after_attempt.(k) q
                  && Q.equal landing.RC.all_by_attempt.(k) (Q.pow (Q.one_minus q) 2))));
  ]

let suite =
  ( "prob",
    bigint_tests @ q_tests @ binomial_tests @ chain_tests @ mc_tests
    @ golden_tests @ cancel_tests @ size_tests @ kernel_tests @ miss_tests )
