(* Operational protocols: unit behaviour, specification compliance over
   exhaustive universes, and statistics plumbing. *)

module Params = Eba.Params
module Cfg = Eba.Config
module Pat = Eba.Pattern
module Val = Eba.Value
module B = Eba.Bitset
module Stats = Eba.Stats
module Runner = Eba.Runner
open Helpers

let crash_params = crash_3_1_3.params
let omission_params = omission_3_1_3.params

let run_one (module P : Eba.Protocol_intf.PROTOCOL) params config pattern =
  let module R = Runner.Make (P) in
  R.run params config pattern

let run_p0 = run_one (module Eba.P0.P0) crash_params
let run_p0opt = run_one (module Eba.P0opt) crash_params
let run_flood = run_one (module Eba.Floodset) crash_params

let decision_of trace i = trace.Runner.decisions.(i)

let unit_tests =
  [
    test "P0: zero holders decide 0 at time 0 and flood" (fun () ->
        let trace = run_p0 (Cfg.of_bits ~n:3 0b110) (Pat.failure_free crash_params) in
        (match decision_of trace 0 with
        | Some { Eba.Decision.at; value } ->
            check_int "time" 0 at;
            check "value" true (Val.equal value Val.Zero)
        | None -> Alcotest.fail "no decision");
        (* everyone else learns the zero in round 1 *)
        List.iter
          (fun i ->
            match decision_of trace i with
            | Some { Eba.Decision.at; value } ->
                check_int "time" 1 at;
                check "value" true (Val.equal value Val.Zero)
            | None -> Alcotest.fail "no decision")
          [ 1; 2 ]);
    test "P0: all-one run decides 1 at t+1" (fun () ->
        let trace = run_p0 (Cfg.constant ~n:3 Val.One) (Pat.failure_free crash_params) in
        for i = 0 to 2 do
          match decision_of trace i with
          | Some { Eba.Decision.at; value } ->
              check_int "deadline" 2 at;
              check "one" true (Val.equal value Val.One)
          | None -> Alcotest.fail "no decision"
        done);
    test "P0opt: all-one failure-free run decides 1 at time 1 (rule a)" (fun () ->
        let trace = run_p0opt (Cfg.constant ~n:3 Val.One) (Pat.failure_free crash_params) in
        for i = 0 to 2 do
          match decision_of trace i with
          | Some { Eba.Decision.at; value } ->
              check_int "fast" 1 at;
              check "one" true (Val.equal value Val.One)
          | None -> Alcotest.fail "no decision"
        done);
    test "P0opt: quiescence rule (b) fires after a silent crash" (fun () ->
        (* p0 crashes before round 1 reaching nobody: survivors hear the
           same set {each other} in rounds 1 and 2 and decide 1 at time 2 *)
        let b = Pat.crash ~horizon:3 ~proc:0 ~round:1 ~recipients:B.empty in
        let pattern = Pat.make crash_params [ b ] in
        let trace = run_p0opt (Cfg.constant ~n:3 Val.One) pattern in
        List.iter
          (fun i ->
            match decision_of trace i with
            | Some { Eba.Decision.at; value } ->
                check_int "time 2" 2 at;
                check "one" true (Val.equal value Val.One)
            | None -> Alcotest.fail "no decision")
          [ 1; 2 ]);
    test "FloodSet: everyone decides exactly at t+1" (fun () ->
        let trace = run_flood (Cfg.of_bits ~n:3 0b010) (Pat.failure_free crash_params) in
        for i = 0 to 2 do
          match decision_of trace i with
          | Some { Eba.Decision.at; value } ->
              check_int "t+1" 2 at;
              check "zero wins" true (Val.equal value Val.Zero)
          | None -> Alcotest.fail "no decision"
        done);
    test "Chain0: failure-free all-one decides 1 at time 1" (fun () ->
        let trace =
          run_one (module Eba.Chain0) omission_params (Cfg.constant ~n:3 Val.One)
            (Pat.failure_free omission_params)
        in
        for i = 0 to 2 do
          match decision_of trace i with
          | Some { Eba.Decision.at; value } ->
              check_int "f+1 = 1" 1 at;
              check "one" true (Val.equal value Val.One)
          | None -> Alcotest.fail "no decision"
        done);
    test "message accounting" (fun () ->
        let trace = run_flood (Cfg.constant ~n:3 Val.One) (Pat.failure_free crash_params) in
        (* 3 procs * 2 destinations * 3 rounds *)
        check_int "attempted" 18 trace.Runner.messages_attempted;
        check_int "delivered" 18 trace.Runner.messages_delivered);
  ]

let spec_over_universe (module P : Eba.Protocol_intf.PROTOCOL) params =
  let s = Stats.exhaustive (module P) params in
  check (P.name ^ " agreement") true (s.Stats.tally.agreement_violations = 0);
  check (P.name ^ " validity") true (s.Stats.tally.validity_violations = 0);
  check (P.name ^ " decision") true (s.Stats.tally.undecided_nonfaulty = 0)

(* Every run with f failures decides by round f + 1. *)
let within_f_plus_1 (s : Stats.summary) =
  List.iter
    (fun (f, (row : Eba.Decision.tally)) -> check "≤ f+1" true (row.round_max <= f + 1))
    s.Stats.by_failures

let universe_tests =
  [
    test "P0 meets EBA over the exhaustive crash universe" (fun () ->
        spec_over_universe (module Eba.P0.P0) crash_params);
    test "P1 meets EBA over the exhaustive crash universe" (fun () ->
        spec_over_universe (module Eba.P0.P1) crash_params);
    test "P0opt meets EBA over the exhaustive crash universe" (fun () ->
        spec_over_universe (module Eba.P0opt) crash_params;
        spec_over_universe (module Eba.P0opt) crash_4_1_3.params);
    test "FloodSet meets SBA over the exhaustive crash universe" (fun () ->
        spec_over_universe (module Eba.Floodset) crash_params;
        (* simultaneity: decisions always exactly at t+1 *)
        let s = Stats.exhaustive (module Eba.Floodset) crash_params in
        List.iter
          (fun (_, (row : Eba.Decision.tally)) ->
            check "max = t+1" true (row.round_max = 2);
            check "mean = t+1" true (Float.abs (Eba.Decision.mean_round row -. 2.0) < 1e-9))
          s.Stats.by_failures);
    test "Chain0 meets EBA over the exhaustive omission universe" (fun () ->
        spec_over_universe (module Eba.Chain0) omission_params);
    test "Chain0 respects the f+1 bound per failure count" (fun () ->
        let s = Stats.exhaustive (module Eba.Chain0) omission_params in
        within_f_plus_1 s);
    test "Chain0 at n=4 t=2 omission (sampled universe)" (fun () ->
        let params = Params.make ~n:4 ~t:2 ~horizon:3 ~mode:Params.Omission in
        let s = Stats.sampled (module Eba.Chain0) params ~seed:5 ~samples:3000 in
        check "agreement" true (s.Stats.tally.agreement_violations = 0);
        check "validity" true (s.Stats.tally.validity_violations = 0);
        check "decision" true (s.Stats.tally.undecided_nonfaulty = 0);
        within_f_plus_1 s);
  ]

let sampled_tests =
  [
    test "sampled harness is deterministic in the seed" (fun () ->
        let params = Params.make ~n:6 ~t:2 ~horizon:4 ~mode:Params.Crash in
        let a = Stats.sampled (module Eba.P0opt) params ~seed:7 ~samples:200 in
        let b = Stats.sampled (module Eba.P0opt) params ~seed:7 ~samples:200 in
        check "same mean" true
          (Eba.Decision.mean_round a.Stats.tally = Eba.Decision.mean_round b.Stats.tally);
        check_int "same msgs" a.Stats.tally.delivered b.Stats.tally.delivered;
        check_int "runs = samples" 200 a.Stats.tally.runs;
        (* the summary carries what it takes to regenerate it *)
        match a.Stats.source with
        | Stats.Sampled_universe { seed; samples; universe } ->
            check_int "source seed" 7 seed;
            check_int "source samples" 200 samples;
            let source =
              match Stats.summary_json a with
              | Eba.Json.Obj fields -> List.assoc_opt "source" fields
              | _ -> None
            in
            check "summary_json source" true
              (source
              = Some
                  (Eba.Json.Obj
                     [
                       ("kind", Eba.Json.String "sampled");
                       ("seed", Eba.Json.Int 7);
                       ("samples", Eba.Json.Int 200);
                       ("universe", Eba.Json.String universe);
                     ]))
        | _ -> Alcotest.fail "expected a sampled source");
    test "P0opt stays correct on larger sampled crash systems" (fun () ->
        let params = Params.make ~n:8 ~t:3 ~horizon:5 ~mode:Params.Crash in
        let s = Stats.sampled (module Eba.P0opt) params ~seed:11 ~samples:400 in
        check "agreement" true (s.Stats.tally.agreement_violations = 0);
        check "validity" true (s.Stats.tally.validity_violations = 0);
        check "decision" true (s.Stats.tally.undecided_nonfaulty = 0));
    test "Chain0 stays correct on larger sampled omission systems" (fun () ->
        let params = Params.make ~n:8 ~t:3 ~horizon:5 ~mode:Params.Omission in
        let s = Stats.sampled (module Eba.Chain0) params ~seed:13 ~samples:400 in
        check "agreement" true (s.Stats.tally.agreement_violations = 0);
        check "validity" true (s.Stats.tally.validity_violations = 0);
        check "decision" true (s.Stats.tally.undecided_nonfaulty = 0));
    test "P0 message complexity beats P0opt's" (fun () ->
        (* P0 sends only relays of 0; P0opt floods value vectors *)
        let params = Params.make ~n:6 ~t:2 ~horizon:4 ~mode:Params.Crash in
        let p0 = Stats.sampled (module Eba.P0.P0) params ~seed:3 ~samples:100 in
        let p0opt = Stats.sampled (module Eba.P0opt) params ~seed:3 ~samples:100 in
        check "fewer msgs" true
          (p0.Stats.tally.attempted < p0opt.Stats.tally.attempted));
  ]

let cancel_tests =
  [
    test "a pre-fired token cancels exhaustive and sampled stats" (fun () ->
        let fired () =
          let c = Eba.Cancel.create () in
          Eba.Cancel.cancel c;
          c
        in
        List.iter
          (fun jobs ->
            (match
               Stats.exhaustive ~jobs ~cancel:(fired ())
                 (module Eba.Floodset)
                 crash_params
             with
            | _ -> Alcotest.fail "cancelled exhaustive returned"
            | exception Eba.Cancel.Cancelled -> ());
            match
              Stats.sampled ~jobs ~cancel:(fired ())
                (module Eba.Floodset)
                crash_params ~seed:7 ~samples:50
            with
            | _ -> Alcotest.fail "cancelled sampled returned"
            | exception Eba.Cancel.Cancelled -> ())
          [ 1; 4 ]);
  ]

let suite =
  ("protocols", unit_tests @ universe_tests @ sampled_tests @ cancel_tests)
