(* The `eba` command-line tool: build models, check and optimize
   protocols, run the reproduction experiments, and print the benchmark
   tables. *)

open Cmdliner

let ( let* ) = Result.bind

module Spec = Eba.Server.Spec

(* --- shared arguments --- *)

let metrics_arg =
  Arg.(
    value
    & opt ~vopt:(Some "pretty") (some string) None
    & info [ "metrics" ] ~docv:"FORMAT"
        ~doc:
          "Enable the engine's observability layer and print a metrics \
           report (counters, gauges, span timings) to stderr on exit.  \
           $(docv) is $(b,pretty) (default) or $(b,json).  The \
           $(b,EBA_METRICS) environment variable ($(b,1)/$(b,pretty) or \
           $(b,json)) enables the same report without a flag.")

(* Evaluated before every command so the flag steers the process-wide
   metrics layer, with a usage error on a bad format. *)
let metrics_term =
  let set = function
    | None -> Ok ()
    | Some fmt -> (
        let mode =
          match String.lowercase_ascii fmt with
          | "pretty" | "1" -> Some Eba.Metrics.Pretty
          | "json" -> Some Eba.Metrics.Json_mode
          | _ -> None
        in
        match mode with
        | None -> Error (`Msg (Printf.sprintf "--metrics: unknown format %S" fmt))
        | Some mode ->
            Eba.Metrics.set_enabled true;
            Eba.Metrics.set_mode mode;
            Ok ())
  in
  Term.(term_result (const set $ metrics_arg))

(* A subcommand: [--metrics] steers the layer before [term] runs. *)
let cmd name ~doc term =
  Cmd.v (Cmd.info name ~doc) Term.(const (fun () r -> r) $ metrics_term $ term)

let jobs_arg =
  Arg.(
    value
    & opt int 0
    & info [ "jobs"; "j" ] ~docv:"JOBS"
        ~doc:
          "Worker domains for parallel sweeps and knowledge kernels; results \
           are identical for every value.  0 (the default) defers to \
           $(b,EBA_DOMAINS) (where 0 means all hardware domains), which \
           itself defaults to 1.")

(* Evaluated before each command that runs parallel sweeps, so [--jobs]
   steers the whole process-wide engine.  Validates the flag and
   [EBA_DOMAINS] eagerly so a bad value is a usage error up front, not an
   exception mid-sweep. *)
let jobs_term =
  let set j =
    if j < 0 then Error (`Msg "--jobs must be >= 0")
    else
      match Eba.Parallel.set_jobs j; Eba.Parallel.jobs () with
      | (_ : int) -> Ok ()
      | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Term.(term_result (const set $ jobs_arg))

let msg r = Result.map_error (fun m -> `Msg m) r

(* The semantic commands (model, check, optimize) build one model in the
   calling domain, so they take no [--jobs], and pack processor sets into
   one word, so they refuse more than [Bitset.max_width] processors;
   [Params.make]'s refusal (say [-t] not below [-n], or [--horizon 0]) is
   a usage error, like a bad [--jobs]. *)
let model_params_term =
  let make (k : Spec.Knowledge.t) =
    if k.n <= Eba.Bitset.max_width then msg (Spec.Knowledge.model_params k)
    else Error (`Msg (Printf.sprintf "-n %d: a bounded model has at most %d processors" k.n Eba.Bitset.max_width))
  in
  Term.(term_result (const make $ Spec.Knowledge.term))

let protocol_arg =
  Arg.(
    value
    & opt (enum (List.map (fun s -> (s, s)) Eba.Zoo.names)) Spec.Knowledge.default.protocol
    & info [ "protocol"; "p" ] ~docv:"PROTOCOL"
        ~doc:(Printf.sprintf "One of: %s." (String.concat ", " Eba.Zoo.names)))

(* [protocol_arg] only admits names from [Zoo.names]. *)
let pair_of_name env name = Option.get (Eba.Zoo.by_name name) env

(* --- commands --- *)

let model_cmd =
  let run params =
    let model = Eba.Model.build params in
    Format.printf "%a@." Eba.Model.pp_stats model;
    Format.printf "failure patterns: %d@." (Eba.Universe.count params)
  in
  cmd "model" ~doc:"Build a bounded model and print its size."
    Term.(const run $ model_params_term)

let check_cmd =
  let run params name =
    let model = Eba.Model.build params in
    let env = Eba.Formula.env model in
    let pair = pair_of_name env name in
    let d = Eba.Kb_protocol.decide model pair in
    let report = Eba.Spec.check d in
    Format.printf "%s on %a@." name Eba.Params.pp params;
    Format.printf "  %a@." Eba.Spec.pp report;
    Format.printf "  EBA: %b  NTA: %b  optimal (Thm 5.3): %b@."
      (Eba.Spec.is_eba report)
      (Eba.Spec.is_nontrivial_agreement report)
      (Eba.Characterize.is_optimal env d)
  in
  cmd "check" ~doc:"Check a protocol against the EBA specification and the optimality characterization."
    Term.(const run $ model_params_term $ protocol_arg)

let optimize_cmd =
  let run params name =
    let model = Eba.Model.build params in
    let env = Eba.Formula.env model in
    let pair = pair_of_name env name in
    let opt, steps = Eba.Construct.iterate_until_fixpoint env pair in
    let d = Eba.Kb_protocol.decide model pair in
    let dopt = Eba.Kb_protocol.decide model opt in
    Format.printf "optimizing %s on %a@." name Eba.Params.pp params;
    Format.printf "  steps to fixpoint: %d@." steps;
    Format.printf "  %a@." Eba.Dominance.pp (Eba.Dominance.compare dopt d);
    Format.printf "  result optimal: %b, spec: %a@."
      (Eba.Characterize.is_optimal env dopt)
      Eba.Spec.pp
      (Eba.Spec.check dopt)
  in
  cmd "optimize" ~doc:"Apply the paper's two-step optimization to a protocol and report the outcome."
    Term.(const run $ model_params_term $ protocol_arg)

let experiments_cmd =
  let ids = Eba_harness.Experiments.ids () in
  let id_arg =
    Arg.(
      value
      & opt (some (enum (List.map (fun s -> (s, s)) ids))) None
      & info [ "only" ] ~docv:"ID" ~doc:"Run a single experiment (E1..E12).")
  in
  let run () only =
    match only with
    | Some id ->
        (match Eba_harness.Experiments.run id with
        | Some o -> Format.printf "%a@." Eba_harness.Experiments.pp o
        | None -> prerr_endline "unknown experiment")
    | None ->
        Format.printf "%a@." Eba_harness.Experiments.pp_summary
          (Eba_harness.Experiments.all ())
  in
  cmd "experiments" ~doc:"Reproduce the paper's propositions (E1..E12) on exhaustive models."
    Term.(const run $ jobs_term $ id_arg)

let tables_cmd =
  let module T = Eba_harness.Tables in
  let tables =
    [
      ("t1", T.t1_crash_decision_times);
      ("t2", T.t2_no_optimum);
      ("t3", T.t3_two_step);
      ("t4", T.t4_crash_vs_omission);
      ("t5", T.t5_chain_bound);
      ("t6", T.t6_sba_knowledge);
      ("f1", T.f1_decision_cdf);
      ("f2", T.f2_sba_gap);
      ("f3", T.f3_engine_scaling);
    ]
  in
  let which =
    Arg.(
      value
      & opt (some (enum tables)) None
      & info [ "only" ] ~docv:"TABLE" ~doc:"One of t1..t6, f1..f3; default all.")
  in
  let run () only =
    let fmt = Format.std_formatter in
    (match only with None -> T.all fmt () | Some table -> table fmt ());
    Format.pp_print_flush fmt ()
  in
  cmd "tables" ~doc:"Print the benchmark tables and figure series (EXPERIMENTS.md)."
    Term.(const run $ jobs_term $ which)

let netsim_cmd =
  let module Net = Eba.Net in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the summary to FILE as JSON: the object a served \
                 netsim-sweep returns.")
  in
  (* Every other flag but [--jobs] is a field of [Spec]'s table, and its
     interpretation (protocol selector tables, derived sync timing,
     runs/mux defaulting) is shared verbatim with the daemon, so a served
     sweep is byte-identical to this command's JSON. *)
  let run () spec json =
    let* resolved = msg (Spec.resolve spec) in
    let t0 = Monotonic_clock.now () in
    let summary = Spec.run resolved in
    let elapsed = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9 in
    Format.printf "%a@." Net.Net_stats.pp summary;
    (match resolved.Spec.r_mux with
    | None -> ()
    | Some _ ->
        let runs = resolved.Spec.r_runs in
        let p99_round = Net.Net_stats.p99_decision_round summary in
        Format.printf
          "mux: %d instances in %.3fs (%.0f instances/sec), p99 decision \
           latency %.1fs simulated (round %d)@."
          runs elapsed
          (float_of_int runs /. Float.max elapsed 1e-9)
          (float_of_int p99_round
          *. resolved.Spec.r_sync.Net.Sync.round_duration)
          p99_round);
    Option.iter
      (fun file -> Eba.Json.to_file file (Net.Net_stats.summary_json summary))
      json;
    Ok ()
  in
  cmd "netsim"
    ~doc:
      "Run an operational protocol over the discrete-event network \
       simulator: seeded sampled workloads with message loss, latency, \
       crash/omission adversaries and transient partitions, executed \
       under the timeout-and-retransmission round synchronizer."
    Term.(term_result (const run $ jobs_term $ Spec.term $ json_arg))

let probcheck_cmd =
  let module Prob = Eba.Prob in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the report as an eba-prob/1 JSON object.")
  in
  (* Same shared interpretation as the daemon's [probcheck] verb. *)
  let run spec json =
    let* report = msg (Spec.Probcheck.report spec) in
    print_string (Prob.Report.to_text report);
    Option.iter
      (fun file -> Eba.Json.to_file file (Prob.Report.to_json report))
      json;
    Ok ()
  in
  cmd "probcheck"
    ~doc:
      "Exact failure probabilities of a lossy sweep, computed instead of \
       sampled: a Markov analysis of the retransmission schedule inside \
       one synchronizer round window yields the per-message residual-miss \
       probability, landing-attempt distribution, and whole-run \
       all-copies-delivered probability as exact rationals (the numbers \
       seeded $(b,eba netsim) sweeps fluctuate around)."
    Term.(term_result (const run $ Spec.Probcheck.term $ json_arg))

(* --- the resident agreement service --- *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Serve on a Unix-domain socket at $(docv).  A stale socket file \
           left by a killed daemon is detected (probe connect) and \
           replaced; a live one is refused.")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:"Serve on loopback TCP port $(docv) (0 picks an ephemeral one).")

let workers_arg =
  Arg.(
    value & opt int 4
    & info [ "workers" ] ~docv:"J"
        ~doc:
          "Worker domains executing requests.  Replies are bit-identical \
           for every value; 0 accepts but never executes (testing).")

let queue_cap_arg =
  Arg.(
    value & opt int 64
    & info [ "queue-cap" ] ~docv:"N"
        ~doc:
          "Bounded request-queue slots; an arriving request that finds \
           the queue full gets the typed $(b,busy) reply immediately.")

let address_of ~socket ~port =
  match (socket, port) with
  | Some path, None -> Ok (Eba.Server.Frame.Unix_socket path)
  | None, Some port -> Ok (Eba.Server.Frame.Tcp port)
  | None, None -> Error (`Msg "one of --socket PATH or --port P is required")
  | Some _, Some _ -> Error (`Msg "--socket and --port are mutually exclusive")

let serve_cmd =
  let run () socket port workers queue_cap =
    let* address = address_of ~socket ~port in
    if workers < 0 then Error (`Msg "--workers must be >= 0")
    else if queue_cap < 1 then Error (`Msg "--queue-cap must be >= 1")
    else begin
      let cfg =
        {
          Eba.Server.Daemon.default_config with
          address;
          workers;
          queue_cap;
          handle_signals = true;
        }
      in
      match
        Eba.Server.Daemon.run
          ~on_ready:(fun bound ->
            Format.printf "eba-serve/1 listening on %s (%d workers, queue %d)@."
              (Eba.Server.Frame.address_to_string bound)
              workers queue_cap;
            Format.print_flush ())
          cfg
      with
      | () -> Ok ()
      | exception Unix.Unix_error (e, _, arg) ->
          Error (`Msg (Printf.sprintf "serve: %s: %s" arg (Unix.error_message e)))
      | exception Invalid_argument msg -> Error (`Msg msg)
    end
  in
  cmd "serve"
    ~doc:
      "Run the resident agreement service: a daemon answering \
       netsim-sweep, probcheck and knowledge-query requests over \
       length-prefixed JSON frames, with a bounded queue, typed \
       backpressure, and graceful SIGINT/SIGTERM drain.  Served \
       results are byte-identical to the batch commands for the same \
       request identity."
    Term.(term_result (const run $ jobs_term $ socket_arg $ port_arg
                       $ workers_arg $ queue_cap_arg))

let bench_serve_cmd =
  let clients_arg =
    Arg.(
      value & opt int 8
      & info [ "clients" ] ~docv:"C" ~doc:"Concurrent client connections.")
  in
  let requests_arg =
    Arg.(
      value & opt int 50
      & info [ "requests" ] ~docv:"R" ~doc:"Requests per client.")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Exit nonzero unless every request succeeded — the CI smoke \
             mode.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the result to FILE as JSON.")
  in
  let run () clients requests workers queue_cap check json =
    if clients < 1 then Error (`Msg "--clients must be >= 1")
    else if requests < 1 then Error (`Msg "--requests must be >= 1")
    else begin
      let result =
        Eba.Server.Bench_load.run_local ~workers ~queue_cap ~clients ~requests
          ~verb:"netsim-sweep"
          ~params:
            [
              ("protocol", Eba.Json.String "floodset");
              ("n", Eba.Json.Int 4);
              ("t", Eba.Json.Int 1);
              ("runs", Eba.Json.Int 10);
            ]
          ()
      in
      Format.printf "%a@." Eba.Server.Bench_load.pp result;
      Option.iter
        (fun file ->
          Eba.Json.to_file file (Eba.Server.Bench_load.result_json result))
        json;
      if check && result.Eba.Server.Bench_load.ok < result.Eba.Server.Bench_load.requests
      then
        Error
          (`Msg
             (Printf.sprintf "bench-serve --check: %d of %d requests failed"
                (result.Eba.Server.Bench_load.requests
                - result.Eba.Server.Bench_load.ok)
                result.Eba.Server.Bench_load.requests))
      else Ok ()
    end
  in
  cmd "bench-serve"
    ~doc:
      "Load-test an in-process agreement daemon: concurrent clients \
       issuing netsim-sweep requests, reporting p50/p99 latency and \
       requests/sec."
    Term.(
      term_result
        (const run $ jobs_term $ clients_arg $ requests_arg $ workers_arg
        $ queue_cap_arg $ check_arg $ json_arg))

let () =
  (* Spans get bechamel's CLOCK_MONOTONIC stub; the library default is
     wall-clock [Unix.gettimeofday]. *)
  Eba.Metrics.set_clock (fun () -> Int64.to_float (Monotonic_clock.now ()) /. 1e9);
  Eba.Metrics.report_at_exit ();
  let doc = "eventual Byzantine agreement via continual common knowledge" in
  let info = Cmd.info "eba" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ model_cmd; check_cmd; optimize_cmd; experiments_cmd; tables_cmd; netsim_cmd; probcheck_cmd; serve_cmd; bench_serve_cmd ]))
