(* Bechamel timings of the code behind EXPERIMENTS.md: one [Test.make] per
   reproduction table or figure (T1..T6, F1..F3: the code that regenerates
   each one) plus the engine-level benches the F3 ablation is built on
   (model construction, the two C□ implementations, knowledge closures,
   the two-step optimizer, the operational runners and the network
   simulator).  Each bench prints its OLS time per run.

   The tables and verdicts themselves are printed by `eba tables` and
   `eba experiments`.

   Flags: `--smoke` (tiny quotas, heavy groups skipped), `--quota S`
   (override the per-group time budget). *)

(* captured before [open Bechamel], which shadows the stub library's
   [Monotonic_clock] with bechamel's internal module of the same name *)
let monotonic_now = Monotonic_clock.now

open Bechamel
open Toolkit

module F = Eba.Formula
module M = Eba.Model

(* --- command line --- *)

let smoke = ref false
let quota_override = ref None

let () =
  let specs =
    [
      ("--smoke", Arg.Set smoke, "  minimal quotas, heavy groups skipped");
      ("--quota", Arg.Float (fun q -> quota_override := Some q),
       "SECONDS  per-group time budget (default 0.5/1.0, smoke 0.05)");
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "bench/main.exe [--smoke] [--quota SECONDS]"

let () = Eba.Metrics.set_clock (fun () -> Int64.to_float (monotonic_now ()) /. 1e9)

(* --- prebuilt fixtures so benches measure the operation, not setup --- *)

let crash_params = Eba.Params.make ~n:3 ~t:1 ~horizon:3 ~mode:Eba.Params.Crash
let crash4_params = Eba.Params.make ~n:4 ~t:2 ~horizon:4 ~mode:Eba.Params.Crash
let om_params = Eba.Params.make ~n:3 ~t:1 ~horizon:3 ~mode:Eba.Params.Omission

(* larger builder-only scales: deep omission universe, wide crash universe *)
let om_t4_params = Eba.Params.make ~n:3 ~t:1 ~horizon:4 ~mode:Eba.Params.Omission
let crash5_params = Eba.Params.make ~n:5 ~t:2 ~horizon:2 ~mode:Eba.Params.Crash
let crash_model = M.build crash_params
let crash4_model = M.build crash4_params
let om_model = M.build om_params
let crash4_env = F.env crash4_model
let nf = Eba.Nonrigid.nonfaulty crash4_model
let e0_pts = F.eval crash4_env (F.exists_value crash4_model Eba.Value.zero)

let big_crash = Eba.Params.make ~n:16 ~t:5 ~horizon:7 ~mode:Eba.Params.Crash
let big_om = Eba.Params.make ~n:16 ~t:5 ~horizon:7 ~mode:Eba.Params.Omission
let rng = Random.State.make [| 1234 |]
let big_config = Eba.Config.of_bits ~n:16 0xAAAA
let big_crash_pattern = Eba.Universe.random_pattern rng big_crash
let big_om_pattern = Eba.Universe.random_pattern rng big_om

let run_protocol (module P : Eba.Protocol_intf.PROTOCOL) params config pattern () =
  let module R = Eba.Runner.Make (P) in
  ignore (R.run params config pattern)

let null_fmt =
  Format.formatter_of_out_functions
    {
      Format.out_string = (fun _ _ _ -> ());
      out_flush = ignore;
      out_newline = ignore;
      out_spaces = ignore;
      out_indent = ignore;
    }

(* --- engine benches (basis of ablation F3) --- *)

let engine_tests =
  Test.make_grouped ~name:"engine"
    [
      Test.make ~name:"model-build crash n=3 t=1 T=3 shared" (Staged.stage (fun () ->
          ignore (M.build crash_params)));
      Test.make ~name:"model-build omission n=3 t=1 T=3 shared" (Staged.stage (fun () ->
          ignore (M.build om_params)));
      Test.make ~name:"model-build crash n=4 t=2 T=4 shared" (Staged.stage (fun () ->
          ignore (M.build crash4_params)));
      Test.make ~name:"cbox fast (closure+query) n=4 t=2" (Staged.stage (fun () ->
          ignore (Eba.Continual.cbox (Eba.Continual.closure crash4_model nf) e0_pts)));
      Test.make ~name:"cbox naive fixpoint n=4 t=2" (Staged.stage (fun () ->
          ignore (Eba.Continual.cbox_naive crash4_model nf e0_pts)));
      Test.make ~name:"E_N closure n=4 t=2" (Staged.stage (fun () ->
          ignore (Eba.Knowledge.everyone_knows crash4_model nf e0_pts)));
      Test.make ~name:"C_N fixpoint n=4 t=2" (Staged.stage (fun () ->
          ignore (Eba.Common.common crash4_model nf e0_pts)));
      Test.make ~name:"two-step optimize crash n=3" (Staged.stage (fun () ->
          let env = F.env crash_model in
          ignore (Eba.Construct.optimize env (Eba.Kb_protocol.never_decide crash_model))));
      Test.make ~name:"two-step optimize omission n=3" (Staged.stage (fun () ->
          let env = F.env om_model in
          ignore
            (Eba.Construct.optimize ~first:Eba.Construct.One_first env
               (Eba.Zoo.chain_zero env))));
    ]

let runner_tests =
  Test.make_grouped ~name:"runner"
    [
      Test.make ~name:"P0opt run n=16 t=5"
        (Staged.stage (run_protocol (module Eba.P0opt) big_crash big_config big_crash_pattern));
      Test.make ~name:"P0opt+ run n=16 t=5"
        (Staged.stage
           (run_protocol (module Eba.P0opt_plus) big_crash big_config big_crash_pattern));
      Test.make ~name:"FloodSet run n=16 t=5"
        (Staged.stage (run_protocol (module Eba.Floodset) big_crash big_config big_crash_pattern));
      Test.make ~name:"Chain0 run n=16 t=5"
        (Staged.stage (run_protocol (module Eba.Chain0) big_om big_config big_om_pattern));
    ]

(* --- network simulator: replay cost vs the lockstep runner, and sampled
       sweeps at scales the enumerable universes cannot reach --- *)

let net_sweep ?(latency = Eba.Net.Link.Uniform (0.2, 1.0))
    (module P : Eba.Protocol_intf.PROTOCOL) ~n ~t ~mode ~loss ~seed ~runs () =
  let params = Eba.Params.make ~n ~t ~horizon:(t + 1) ~mode in
  let topology = Eba.Net.Topology.make ~n ~link:(Eba.Net.Link.make ~latency ~loss) in
  let sync = Eba.Net.Sync.default_for topology in
  Eba.Net.Netsim.sweep ~jobs:1
    (module P)
    params ~sync ~topology
    ~dynamic:(Eba.Net.Inject.dynamic ~max_faulty:t ())
    ~seed ~runs

let net_tests =
  let module S = Eba.Net.Netsim.Make (Eba.Floodset) in
  let replay_pattern = Eba.Universe.random_pattern rng crash_params in
  let replay_config = Eba.Config.of_bits ~n:3 0b101 in
  Test.make_grouped ~name:"net"
    ([
      Test.make ~name:"netsim replay crash n=3 t=1 T=3 (FloodSet)"
        (Staged.stage (fun () ->
             ignore (S.replay crash_params replay_pattern replay_config)));
      Test.make ~name:"netsim sweep FloodSet n=16 t=5 loss=0.1 x4"
        (Staged.stage (fun () ->
             ignore
               (net_sweep
                  (module Eba.Floodset)
                  ~n:16 ~t:5 ~mode:Eba.Params.Crash ~loss:0.1 ~seed:1 ~runs:4
                  ())));
      (* a constant-latency fabric: the batched delivery path *)
      Test.make ~name:"netsim sweep FloodSet n=16 t=5 const loss=0.05 x200"
        (Staged.stage (fun () ->
             ignore
               (net_sweep ~latency:(Eba.Net.Link.Const 1.0)
                  (module Eba.Floodset)
                  ~n:16 ~t:5 ~mode:Eba.Params.Crash ~loss:0.05 ~seed:8128
                  ~runs:200 ())));
      Test.make ~name:"netsim sweep FloodSet n=64 t=8 loss=0.05 x1"
        (Staged.stage (fun () ->
             ignore
               (net_sweep
                  (module Eba.Floodset)
                  ~n:64 ~t:8 ~mode:Eba.Params.Crash ~loss:0.05 ~seed:1 ~runs:1
                  ())));
    ]
    @
    (* full vs bounded-bandwidth at the wide scale: same sweep identity,
       the timing difference is the cost/saving of delta encoding *)
    (if !smoke then []
     else
       [
         Test.make ~name:"netsim sweep P0opt n=128 t=16 loss=0.05 x1"
           (Staged.stage (fun () ->
                let params =
                  Eba.Params.make ~n:128 ~t:16 ~horizon:17 ~mode:Eba.Params.Crash
                in
                ignore
                  (net_sweep
                     (Eba.P0opt.for_params params)
                     ~n:128 ~t:16 ~mode:Eba.Params.Crash ~loss:0.05 ~seed:1
                     ~runs:1 ())));
         Test.make ~name:"netsim sweep P0opt-delta n=128 t=16 loss=0.05 x1"
           (Staged.stage (fun () ->
                let params =
                  Eba.Params.make ~n:128 ~t:16 ~horizon:17 ~mode:Eba.Params.Crash
                in
                ignore
                  (net_sweep
                     (Eba.P0opt.Compact.for_params params)
                     ~n:128 ~t:16 ~mode:Eba.Params.Crash ~loss:0.05 ~seed:1
                     ~runs:1 ())));
       ]))

(* --- the builder at scales where prefix sharing bites --- *)

let build_heavy_tests =
  Test.make_grouped ~name:"build-heavy"
    [
      Test.make ~name:"model-build omission n=3 t=1 T=4 shared" (Staged.stage (fun () ->
          ignore (M.build om_t4_params)));
      Test.make ~name:"model-build crash n=5 t=2 T=2 shared" (Staged.stage (fun () ->
          ignore (M.build crash5_params)));
    ]

(* --- 1-domain vs N-domain sweep engine (summaries are bit-identical;
       only the wall clock should differ) --- *)

let sweep_jobs =
  let avail = Eba.Parallel.available () in
  if avail >= 4 then 4 else max 2 avail

let parallel_tests =
  let sweep jobs () =
    ignore (Eba.Stats.exhaustive ~jobs (module Eba.P0opt_plus) om_params)
  in
  Test.make_grouped ~name:"parallel"
    [
      Test.make ~name:"Stats.exhaustive omission n=3 t=1 jobs=1" (Staged.stage (sweep 1));
      Test.make
        ~name:(Printf.sprintf "Stats.exhaustive omission n=3 t=1 jobs=%d" sweep_jobs)
        (Staged.stage (sweep sweep_jobs));
    ]

(* --- exact probabilities: the Bigint square kernel, and the n = 32
       report that perfbench's exact workload times (its m2_ms) --- *)

let prob_tests =
  let x = Eba.Bigint.pow (Eba.Bigint.of_int 25_599_999_999) 2479 in
  let case =
    {
      Eba.Server.Spec.Probcheck.default with
      n = 32;
      t_failures = 4;
      latency = Eba.Net.Link.Uniform (0.2, 1.0);
      loss = "0.05";
    }
  in
  Test.make_grouped ~name:"prob"
    [
      Test.make
        ~name:(Printf.sprintf "square %d limbs" (Array.length x.Eba.Bigint.mag))
        (Staged.stage (fun () -> ignore (Eba.Bigint.mul x x)));
      Test.make ~name:"Report.make n=32 t=4 loss=0.05" (Staged.stage (fun () ->
          ignore (Eba.Server.Spec.Probcheck.report case)));
    ]

(* --- one bench per table / figure --- *)

let table_tests =
  let module T = Eba_harness.Tables in
  Test.make_grouped ~name:"tables"
    [
      Test.make ~name:"T2 no-optimum" (Staged.stage (fun () -> T.t2_no_optimum null_fmt ()));
      Test.make ~name:"T3 two-step" (Staged.stage (fun () -> T.t3_two_step null_fmt ()));
      Test.make ~name:"T5 chain f+1 bound" (Staged.stage (fun () -> T.t5_chain_bound null_fmt ()));
      Test.make ~name:"T6 SBA extension" (Staged.stage (fun () -> T.t6_sba_knowledge null_fmt ()));
      Test.make ~name:"F1 decision CDF" (Staged.stage (fun () -> T.f1_decision_cdf null_fmt ()));
      Test.make ~name:"F2 SBA gap" (Staged.stage (fun () -> T.f2_sba_gap null_fmt ()));
    ]

let heavy_table_tests =
  (* T1 and T4 build four-processor t=2 models; keep them in their own
     group with a small quota so the harness stays fast *)
  let module T = Eba_harness.Tables in
  Test.make_grouped ~name:"tables-heavy"
    [
      Test.make ~name:"T1 decision times" (Staged.stage (fun () ->
          T.t1_crash_decision_times null_fmt ()));
      Test.make ~name:"T4 crash-vs-omission" (Staged.stage (fun () ->
          T.t4_crash_vs_omission null_fmt ()));
      Test.make ~name:"F3 engine scaling" (Staged.stage (fun () ->
          T.f3_engine_scaling null_fmt ()));
    ]

(* --- measurement --- *)

let benchmark ~quota tests =
  let quota = match !quota_override with Some q -> q | None -> if !smoke then 0.05 else quota in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> est
          | Some _ | None -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, ns) ->
      if ns >= 1e9 then Printf.printf "  %-52s %10.3f s/run\n" name (ns /. 1e9)
      else if ns >= 1e6 then Printf.printf "  %-52s %10.3f ms/run\n" name (ns /. 1e6)
      else Printf.printf "  %-52s %10.3f us/run\n" name (ns /. 1e3))
    rows

let () =
  print_endline "=== bechamel: engine benches ===";
  benchmark ~quota:0.5 engine_tests;
  print_endline "=== bechamel: operational runners ===";
  benchmark ~quota:0.5 runner_tests;
  print_endline "=== bechamel: network simulator ===";
  benchmark ~quota:0.5 net_tests;
  print_endline "=== bechamel: sweep engine, 1 domain vs N domains ===";
  benchmark ~quota:1.0 parallel_tests;
  print_endline "=== bechamel: exact probabilities ===";
  benchmark ~quota:0.5 prob_tests;
  if not !smoke then begin
    print_endline "=== bechamel: builder scaling ===";
    benchmark ~quota:0.5 build_heavy_tests;
    print_endline "=== bechamel: table regeneration ===";
    benchmark ~quota:1.0 table_tests;
    print_endline "=== bechamel: heavy table regeneration ===";
    benchmark ~quota:1.0 heavy_table_tests
  end;
  Eba.Metrics.report_at_exit ()
