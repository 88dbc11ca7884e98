(* The domain pool and the streaming sweep engine: parallel results must be
   bit-identical to sequential ones, the streamed enumerators must agree
   with the closed-form counts, and a sweep honours its cancel token. *)

module Par = Eba.Parallel
module U = Eba.Universe
module Params = Eba.Params
module Stats = Eba.Stats
open Helpers

let pool_tests =
  [
    test "jobs override and restore" (fun () ->
        let outside = Par.jobs () in
        Par.with_jobs 3 (fun () -> check_int "inside" 3 (Par.jobs ()));
        check_int "restored" outside (Par.jobs ()));
    test "map_reduce_seq sums match sequential" (fun () ->
        let seq () = Seq.init 10_000 Fun.id in
        let total jobs =
          let r =
            Par.map_reduce_seq ~jobs ~chunk:7 ~init:(fun () -> ref 0)
              ~fold:(fun acc x -> acc := !acc + x)
              ~merge:(fun acc other -> acc := !acc + !other)
              (seq ())
          in
          !r
        in
        check_int "jobs=4" (total 1) (total 4));
    test "map_reduce_seq empty sequence" (fun () ->
        let r =
          Par.map_reduce_seq ~jobs:4 ~init:(fun () -> ref 0)
            ~fold:(fun acc _ -> incr acc)
            ~merge:(fun acc other -> acc := !acc + !other)
            Seq.empty
        in
        check_int "empty" 0 !r);
    test "worker exceptions propagate" (fun () ->
        check "raises" true
          (try
             ignore
               (Par.map_reduce_seq ~jobs:4 ~chunk:3 ~init:(fun () -> ref 0)
                  ~fold:(fun acc x -> if x = 57 then failwith "boom" else acc := !acc + x)
                  ~merge:(fun acc other -> acc := !acc + !other)
                  (Seq.init 100 Fun.id));
             false
           with Failure _ -> true));
  ]

(* Universe.count / behaviour_count vs the observed lengths of the streams,
   across all three modes (skipping parameter points whose universe is too
   large to walk in a unit test). *)
let gen_params =
  QCheck2.Gen.(
    map
      (fun ((n, t_raw, horizon), mode) ->
        Params.make ~n ~t:(min t_raw (n - 1)) ~horizon ~mode)
      (pair
         (triple (int_range 2 4) (int_range 0 2) (int_range 1 2))
         (oneofl [ Params.Crash; Params.Omission; Params.General_omission ])))

let count_tests =
  [
    qtest ~count:60 "patterns_seq length = count; behaviours = behaviour_count"
      gen_params
      (fun params ->
        QCheck2.assume (U.count params <= 20_000);
        Seq.length (U.patterns_seq params) = U.count params
        && List.for_all
             (fun proc ->
               List.length (U.behaviours_for params ~proc) = U.behaviour_count params)
             (Params.procs params));
    test "patterns list agrees with stream" (fun () ->
        let params = crash_3_1_3.params in
        check_int "same length"
          (List.length (U.patterns params))
          (Seq.length (U.patterns_seq params)));
    test "workload_seq is count * 2^n long" (fun () ->
        let params = omission_3_1_2.params in
        check_int "runs" (U.count params * 8) (Seq.length (U.workload_seq params)));
  ]

(* Bit-identical summaries: the whole point of the deterministic merge.
   A summary holds only integer tallies and strings, so structural
   equality is the bitwise one. *)
let summary_eq (a : Stats.summary) (b : Stats.summary) = a = b

let sweep_determinism_tests =
  let identical name (module P : Eba.Protocol_intf.PROTOCOL) params =
    test name (fun () ->
        let seq = Stats.exhaustive ~jobs:1 (module P) params in
        let par = Stats.exhaustive ~jobs:4 (module P) params in
        check "bit-identical summary" true (summary_eq seq par))
  in
  [
    identical "exhaustive crash n=3 t=1: jobs=1 = jobs=4" (module Eba.Floodset)
      crash_3_1_3.params;
    identical "exhaustive omission n=3 t=1: jobs=1 = jobs=4" (module Eba.Chain0)
      omission_3_1_3.params;
    test "sampled is deterministic in seed across jobs" (fun () ->
        let p = crash_3_1_3.params in
        let a = Stats.sampled ~jobs:1 (module Eba.Floodset) p ~seed:7 ~samples:200 in
        let b = Stats.sampled ~jobs:4 (module Eba.Floodset) p ~seed:7 ~samples:200 in
        check "equal" true (summary_eq a b));
  ]

(* the cancel contract of [Stats.exhaustive] and [Stats.sampled] *)
let sweep_cancel_tests =
  let fired () =
    let c = Eba.Cancel.create () in
    Eba.Cancel.cancel c;
    c
  in
  let cancelled f =
    match f () with
    | (_ : Stats.summary) -> false
    | exception Eba.Cancel.Cancelled -> true
  in
  let p = crash_3_1_3.params in
  [
    test "exhaustive: a pre-fired token raises Cancelled, jobs 1 and 2" (fun () ->
        List.iter
          (fun jobs ->
            check (Printf.sprintf "jobs %d" jobs) true
              (cancelled (fun () ->
                   Stats.exhaustive ~jobs ~cancel:(fired ()) (module Eba.Floodset) p)))
          [ 1; 2 ]);
    test "sampled: a pre-fired token raises Cancelled, jobs 1 and 2" (fun () ->
        List.iter
          (fun jobs ->
            check (Printf.sprintf "jobs %d" jobs) true
              (cancelled (fun () ->
                   Stats.sampled ~jobs ~cancel:(fired ()) (module Eba.Floodset) p ~seed:7
                     ~samples:50)))
          [ 1; 2 ]);
    test "an un-fired token leaves both summaries unchanged" (fun () ->
        let cancel = Eba.Cancel.create () in
        check "exhaustive" true
          (summary_eq
             (Stats.exhaustive ~jobs:2 (module Eba.Chain0) p)
             (Stats.exhaustive ~jobs:2 ~cancel (module Eba.Chain0) p));
        check "sampled" true
          (summary_eq
             (Stats.sampled ~jobs:2 (module Eba.Chain0) p ~seed:3 ~samples:60)
             (Stats.sampled ~jobs:2 ~cancel (module Eba.Chain0) p ~seed:3 ~samples:60)));
  ]

let suite =
  ("parallel", pool_tests @ count_tests @ sweep_determinism_tests @ sweep_cancel_tests)
