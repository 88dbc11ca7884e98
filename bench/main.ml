(* Benchmark harness.

   Three parts:

   1. Bechamel micro/meso-benchmarks — one [Test.make] per reproduction
      table or figure (T1..T5, F1..F3: the code that regenerates each one)
      plus the engine-level benches the F3 ablation is built on (model
      construction, the two C□ implementations, knowledge closures, the
      two-step optimizer, and the operational runners).

   2. The actual tables — the series EXPERIMENTS.md records, printed after
      the timings so that `dune exec bench/main.exe` regenerates every
      number in that file.

   3. A machine-readable artifact: `--json FILE` writes every timing row,
      the model-size counters and a deterministic metrics signature in the
      schema-stable `eba-bench/1` format, so each PR can commit a
      `BENCH_<PR>.json` and diff perf against the previous one.

   Flags: `--json FILE` (emit the artifact), `--smoke` (tiny quotas, skip
   the heavy group and the table regeneration — the CI schema check),
   `--quota S` (override the per-group time budget). *)

(* captured before [open Bechamel], which shadows the stub library's
   [Monotonic_clock] with bechamel's internal module of the same name *)
let monotonic_now = Monotonic_clock.now

open Bechamel
open Toolkit

module F = Eba.Formula
module M = Eba.Model

(* --- command line --- *)

let json_path = ref None
let smoke = ref false
let quota_override = ref None

let () =
  let specs =
    [
      ("--json", Arg.String (fun p -> json_path := Some p),
       "FILE  write the eba-bench/1 JSON artifact to FILE");
      ("--smoke", Arg.Set smoke,
       "  minimal quotas, no heavy benches or table regeneration (CI)");
      ("--quota", Arg.Float (fun q -> quota_override := Some q),
       "SECONDS  per-group time budget (default 0.5/1.0, smoke 0.05)");
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "bench/main.exe [--json FILE] [--smoke] [--quota SECONDS]"

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

let fixture_models =
  [
    ("crash n=3 t=1 T=3", crash_model);
    ("crash n=4 t=2 T=4", crash4_model);
    ("omission n=3 t=1 T=3", om_model);
  ]

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

let net_topology ?(latency = Eba.Net.Link.Uniform (0.2, 1.0)) ~n ~loss () =
  Eba.Net.Topology.make ~n ~link:(Eba.Net.Link.make ~latency ~loss)

let net_sweep ?latency (module P : Eba.Protocol_intf.PROTOCOL) ~n ~t ~mode ~loss
    ~seed ~runs () =
  let params = Eba.Params.make ~n ~t ~horizon:(t + 1) ~mode in
  let topology = net_topology ?latency ~n ~loss () in
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
                     (Eba.P0opt_delta.for_params params)
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
  let kernel jobs () =
    Eba.Parallel.with_jobs jobs (fun () ->
        ignore (Eba.Knowledge.everyone_knows crash4_model nf e0_pts))
  in
  Test.make_grouped ~name:"parallel"
    [
      Test.make ~name:"Stats.exhaustive omission n=3 t=1 jobs=1" (Staged.stage (sweep 1));
      Test.make
        ~name:(Printf.sprintf "Stats.exhaustive omission n=3 t=1 jobs=%d" sweep_jobs)
        (Staged.stage (sweep sweep_jobs));
      Test.make ~name:"E_N closure n=4 t=2 jobs=1" (Staged.stage (kernel 1));
      Test.make
        ~name:(Printf.sprintf "E_N closure n=4 t=2 jobs=%d" sweep_jobs)
        (Staged.stage (kernel sweep_jobs));
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

(* Collected timing rows for the JSON artifact: (group, name, ns/run). *)
let rows_acc : (string * string * float) list ref = ref []

let benchmark ~group ~quota tests =
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
  rows_acc := !rows_acc @ List.map (fun (name, ns) -> (group, name, ns)) rows;
  List.iter
    (fun (name, ns) ->
      if ns >= 1e9 then Printf.printf "  %-52s %10.3f s/run\n" name (ns /. 1e9)
      else if ns >= 1e6 then Printf.printf "  %-52s %10.3f ms/run\n" name (ns /. 1e6)
      else Printf.printf "  %-52s %10.3f us/run\n" name (ns /. 1e3))
    rows

(* --- the eba-bench/1 JSON artifact --- *)

(* A deterministic metrics signature: run a fixed instrumented workload
   (model build, E_N closure, one exhaustive sweep) with metrics on and
   record every deterministic counter.  Independent of machine speed and
   job count, so artifact diffs surface semantic engine changes. *)
let metrics_signature () =
  let was = Eba.Metrics.enabled () in
  Eba.Metrics.reset ();
  Eba.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Eba.Metrics.set_enabled was)
    (fun () ->
      let m = M.build crash_params in
      let nf = Eba.Nonrigid.nonfaulty m in
      let env = F.env m in
      let e0 = F.eval env (F.exists_value m Eba.Value.zero) in
      ignore (Eba.Knowledge.everyone_knows m nf e0);
      ignore (Eba.Continual.cbox (Eba.Continual.closure m nf) e0);
      ignore (Eba.Stats.exhaustive (module Eba.P0opt) crash_params);
      (* the daemon's model cache: one cold build, one warm reuse — the
         promise protocol makes the hit/miss counts a pure function of
         this sequence, so they belong in the deterministic signature *)
      let cache = Eba.Server.Registry.model_cache in
      Eba.Server.Model_cache.clear cache;
      ignore
        (Eba.Server.Model_cache.find_or_build cache crash_params (fun p ->
             M.build p));
      ignore
        (Eba.Server.Model_cache.find_or_build cache crash_params (fun p ->
             M.build p));
      Eba.Metrics.deterministic_counters ())

(* Builder work accounting, one row per modelled universe: how many
   interior-view interning calls a naive per-run simulation would make
   ([runs * horizon * n]), how many the shared builder makes
   ([tree_nodes * 2^n * n], read off the deterministic
   [model.tree_nodes] / [model.prefix_hits] counters), and the sharing
   factor between them.  Pure counts — machine-independent, job-count
   independent — so the CI regression guard can diff them exactly. *)
let build_cases () =
  let small =
    [
      ("crash n=3 t=1 T=3", crash_params);
      ("omission n=3 t=1 T=3", om_params);
      ("crash n=4 t=2 T=4", crash4_params);
    ]
  in
  let large = [ ("omission n=3 t=1 T=4", om_t4_params); ("crash n=5 t=2 T=2", crash5_params) ] in
  if !smoke then small else small @ large

let build_entry_json (name, params) =
  let was = Eba.Metrics.enabled () in
  Eba.Metrics.reset ();
  Eba.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Eba.Metrics.set_enabled was;
      Eba.Metrics.reset ())
    (fun () ->
      let m = M.build params in
      let det = Eba.Metrics.deterministic_counters () in
      let get n = match List.assoc_opt n det with Some v -> v | None -> 0 in
      let naive_calls = M.nruns m * M.horizon m * M.n m in
      let hits = get "model.prefix_hits" in
      Eba.Json.Obj
        [
          ("name", Eba.Json.String name);
          ("flavour", Eba.Json.String "exhaustive");
          ("runs", Eba.Json.Int (M.nruns m));
          ("views", Eba.Json.Int (Eba.View.size m.M.store));
          ("tree_nodes", Eba.Json.Int (get "model.tree_nodes"));
          ("node_calls_naive", Eba.Json.Int naive_calls);
          ("node_calls_shared", Eba.Json.Int (naive_calls - hits));
          ("prefix_hits", Eba.Json.Int hits);
        ])

let model_size_json (name, m) =
  Eba.Json.Obj
    [
      ("name", Eba.Json.String name);
      ("runs", Eba.Json.Int (M.nruns m));
      ("points", Eba.Json.Int (M.npoints m));
      ("views", Eba.Json.Int (Eba.View.size m.M.store));
    ]

(* Deterministic netsim rows: fixed seeded sweeps whose summaries are all
   exact integers and strings (identity includes the seed, topology, sync
   and adversary), so artifact diffs surface engine changes and any row can
   be regenerated with `eba netsim` from its recorded identity. *)
let net_rows () =
  let row (module P : Eba.Protocol_intf.PROTOCOL) ~n ~t ~mode ~loss ~partitions
      ~seed ~runs =
    let params = Eba.Params.make ~n ~t ~horizon:(t + 1) ~mode in
    let topology = net_topology ~n ~loss () in
    let sync = Eba.Net.Sync.default_for topology in
    let dynamic =
      Eba.Net.Inject.dynamic ~partitions
        ~partition_span:(2.0 *. sync.Eba.Net.Sync.rto)
        ~max_faulty:t ()
    in
    Eba.Net.Net_stats.summary_json
      (Eba.Net.Netsim.sweep (module P) params ~sync ~topology ~dynamic ~seed ~runs)
  in
  let runs = if !smoke then 5 else 25 in
  (* Wide-set rows (full runs only): the optimal protocols past the word
     width, picked per-n by [for_params] — P0opt/P0opt+/Chain0 at n = 128
     and n = 256, t = 16, 5% loss.  CI asserts zero violations and no
     undecided nonfaulty on every one of these. *)
  let wide_rows =
    if !smoke then []
    else
      let wrow selector ~n ~t ~mode ~loss ~seed ~runs =
        let params = Eba.Params.make ~n ~t ~horizon:(t + 1) ~mode in
        let topology = net_topology ~n ~loss () in
        let sync = Eba.Net.Sync.default_for topology in
        let dynamic = Eba.Net.Inject.dynamic ~max_faulty:t () in
        Eba.Net.Net_stats.summary_json
          (Eba.Net.Netsim.sweep (selector params) params ~sync ~topology ~dynamic
             ~seed ~runs)
      in
      (* each full-information row is paired with its bounded-bandwidth
         variant at the SAME seed/runs/adversary: the sweeps replay the
         same schedule, so CI can assert identical decisions and strictly
         fewer data bytes as exact integer comparisons *)
      [
        wrow Eba.P0opt.for_params ~n:128 ~t:16 ~mode:Eba.Params.Crash ~loss:0.05
          ~seed:5128 ~runs:5;
        wrow Eba.P0opt_delta.for_params ~n:128 ~t:16 ~mode:Eba.Params.Crash
          ~loss:0.05 ~seed:5128 ~runs:5;
        wrow Eba.P0opt_plus.for_params ~n:128 ~t:16 ~mode:Eba.Params.Crash
          ~loss:0.05 ~seed:5129 ~runs:5;
        wrow Eba.P0opt_plus_delta.for_params ~n:128 ~t:16 ~mode:Eba.Params.Crash
          ~loss:0.05 ~seed:5129 ~runs:5;
        wrow Eba.Chain0.for_params ~n:128 ~t:16 ~mode:Eba.Params.Omission
          ~loss:0.05 ~seed:5130 ~runs:5;
        wrow Eba.Chain0_cert.for_params ~n:128 ~t:16 ~mode:Eba.Params.Omission
          ~loss:0.05 ~seed:5130 ~runs:5;
        wrow Eba.P0opt.for_params ~n:256 ~t:16 ~mode:Eba.Params.Crash ~loss:0.05
          ~seed:5256 ~runs:5;
        wrow Eba.P0opt_delta.for_params ~n:256 ~t:16 ~mode:Eba.Params.Crash
          ~loss:0.05 ~seed:5256 ~runs:5;
        wrow Eba.P0opt_plus.for_params ~n:256 ~t:16 ~mode:Eba.Params.Crash
          ~loss:0.05 ~seed:5257 ~runs:3;
        wrow Eba.P0opt_plus_delta.for_params ~n:256 ~t:16 ~mode:Eba.Params.Crash
          ~loss:0.05 ~seed:5257 ~runs:3;
        wrow Eba.Chain0.for_params ~n:256 ~t:16 ~mode:Eba.Params.Omission
          ~loss:0.05 ~seed:5258 ~runs:3;
        wrow Eba.Chain0_cert.for_params ~n:256 ~t:16 ~mode:Eba.Params.Omission
          ~loss:0.05 ~seed:5258 ~runs:3;
      ]
  in
  [
    row (module Eba.Floodset) ~n:16 ~t:5 ~mode:Eba.Params.Crash ~loss:0.1
      ~partitions:0 ~seed:42 ~runs;
    row (module Eba.P0opt) ~n:8 ~t:2 ~mode:Eba.Params.Omission ~loss:0.02
      ~partitions:1 ~seed:43 ~runs;
    row (module Eba.Floodset) ~n:64 ~t:8 ~mode:Eba.Params.Crash ~loss:0.05
      ~partitions:0 ~seed:2026 ~runs:(if !smoke then 1 else 5);
  ]
  @ wide_rows

(* Sampled lockstep sweeps, recorded with their full regeneration identity
   (seed, sample count, universe) via the library's [Stats.summary_json] —
   the superset of the fields this file used to assemble by hand, now
   including the per-failure-count breakdown and exact byte totals. *)
let sampled_rows () =
  let samples = if !smoke then 50 else 500 in
  let om8 = Eba.Params.make ~n:8 ~t:2 ~horizon:3 ~mode:Eba.Params.Omission in
  [
    Eba.Stats.summary_json
      (Eba.Stats.sampled (module Eba.P0opt) crash4_params ~seed:11 ~samples);
    Eba.Stats.summary_json
      (Eba.Stats.sampled (module Eba.Floodset) om8 ~seed:12 ~samples);
  ]

(* Exact probcheck reports for the two pinned parameter sets.  These are
   computed, not measured — every field is an exact rational (or a decimal
   rendering of one), identical in smoke and full artifacts and across
   machines, so the CI ratchet diffs them with string equality. *)
let prob_rows () =
  [
    Eba.Prob.Report.to_json (Eba_harness.Probcheck_cases.small ());
    Eba.Prob.Report.to_json (Eba_harness.Probcheck_cases.n64 ());
  ]

(* Served-request latency: an in-process daemon on an ephemeral loopback
   port, concurrent synchronous clients, wall latency per request.  These
   are measured numbers (machine-dependent), recorded for trend tracking
   like the timing entries — the ratchet only checks the section's shape.
   One contended row (more clients than workers) and one matched row. *)
let serve_rows () =
  let clients_requests = if !smoke then (4, 5) else (8, 50) in
  let clients, requests = clients_requests in
  [
    Eba.Server.Bench_load.result_json
      (Eba.Server.Bench_load.run_local ~workers:2 ~queue_cap:64 ~clients
         ~requests ~verb:"netsim-sweep"
         ~params:
           [
             ("protocol", Eba.Json.String "floodset");
             ("n", Eba.Json.Int 4);
             ("t", Eba.Json.Int 1);
             ("runs", Eba.Json.Int 10);
           ]
         ());
    Eba.Server.Bench_load.result_json
      (Eba.Server.Bench_load.run_local ~workers:clients ~queue_cap:64 ~clients
         ~requests ~verb:"status" ~params:[] ());
    (* repeat knowledge-query against one universe: the first request
       builds the model, every later one reuses the cached build, so the
       row's p50 sits far below its p99 (the one cold build) — the
       warm-cache speedup, recorded per machine like the other latency
       rows *)
    (Eba.Server.Model_cache.clear Eba.Server.Registry.model_cache;
     Eba.Server.Bench_load.result_json
       (Eba.Server.Bench_load.run_local ~workers:2 ~queue_cap:64 ~clients:2
          ~requests ~verb:"knowledge-query"
          ~params:
            [
              ("protocol", Eba.Json.String "p0");
              ("n", Eba.Json.Int 4);
              ("t", Eba.Json.Int 1);
              ("horizon", Eba.Json.Int 3);
            ]
          ()));
  ]

let write_json path =
  let entries =
    List.map
      (fun (group, name, ns) ->
        (* bechamel reports "group/test"; the group is its own field *)
        let prefix = group ^ "/" in
        let name =
          if String.starts_with ~prefix name then
            String.sub name (String.length prefix)
              (String.length name - String.length prefix)
          else name
        in
        Eba.Json.Obj
          [
            ("group", Eba.Json.String group);
            ("name", Eba.Json.String name);
            ("ns_per_run", Eba.Json.Float ns);
          ])
      !rows_acc
  in
  let metrics =
    List.map (fun (name, v) -> (name, Eba.Json.Int v)) (metrics_signature ())
  in
  let doc =
    Eba.Json.Obj
      [
        ("schema", Eba.Json.String "eba-bench/1");
        ("smoke", Eba.Json.Bool !smoke);
        ( "jobs",
          Eba.Json.Obj
            [
              ("configured", Eba.Json.Int (Eba.Parallel.jobs ()));
              ("available", Eba.Json.Int (Eba.Parallel.available ()));
            ] );
        ("entries", Eba.Json.List entries);
        ("models", Eba.Json.List (List.map model_size_json fixture_models));
        ("build", Eba.Json.List (List.map build_entry_json (build_cases ())));
        ("net", Eba.Json.List (net_rows ()));
        ("sampled", Eba.Json.List (sampled_rows ()));
        ("prob", Eba.Json.List (prob_rows ()));
        ("serve", Eba.Json.List (serve_rows ()));
        ("metrics", Eba.Json.Obj metrics);
      ]
  in
  Eba.Json.to_file path doc;
  Printf.printf "wrote %s (%d timing entries)\n%!" path (List.length !rows_acc)

let () =
  print_endline "=== bechamel: engine benches ===";
  benchmark ~group:"engine" ~quota:0.5 engine_tests;
  print_endline "=== bechamel: operational runners ===";
  benchmark ~group:"runner" ~quota:0.5 runner_tests;
  print_endline "=== bechamel: network simulator ===";
  benchmark ~group:"net" ~quota:0.5 net_tests;
  print_endline "=== bechamel: sweep engine, 1 domain vs N domains ===";
  benchmark ~group:"parallel" ~quota:1.0 parallel_tests;
  if not !smoke then begin
    print_endline "=== bechamel: builder scaling ===";
    benchmark ~group:"build-heavy" ~quota:0.5 build_heavy_tests;
    print_endline "=== bechamel: table regeneration ===";
    benchmark ~group:"tables" ~quota:1.0 table_tests;
    print_endline "=== bechamel: heavy table regeneration ===";
    benchmark ~group:"tables-heavy" ~quota:1.0 heavy_table_tests
  end;
  (match !json_path with Some path -> write_json path | None -> ());
  if not !smoke then begin
    print_endline "";
    print_endline "=== reproduction experiments (E1..E12) ===";
    Format.printf "%a@." Eba_harness.Experiments.pp_summary (Eba_harness.Experiments.all ());
    print_endline "=== reproduction tables and series ===";
    Format.printf "%a@." Eba_harness.Tables.all ()
  end;
  Eba.Metrics.report_at_exit ()
