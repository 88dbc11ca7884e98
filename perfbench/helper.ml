(* The in-process half of the benchmark.  perfbench/run.py drives it:

     helper sim SEED SECONDS TRACE    the batch network-simulation workload
     helper exact SEED SECONDS TRACE  the exact-answers workload
     helper refs FILE                 reference replies for served requests
     helper replay FILE               layer-by-layer replay of served requests

   Every mode prints one JSON object on stdout.  Only public entry points
   of the library are called: [Server.Spec.resolve]/[run], [Model.build],
   the [Zoo]/[Kb_protocol]/[Spec]/[Characterize] pipeline, [Prob.Report]
   (through [Server.Spec.Probcheck]) and, for served requests, the exact
   chain the daemon runs — [Frame], [Json], [Protocol], [Registry]. *)

module Json = Eba.Json
module Metrics = Eba.Metrics
module Server = Eba.Server
module Spec = Server.Spec
module Net = Eba.Net

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* --- outcome accounting: every checked output counts as attempted --- *)

let attempted = ref 0
let errors = ref []

let check what ok =
  incr attempted;
  if not ok then errors := what :: !errors

(* --- named samples, reported as means --- *)

let samples : (string, float list) Hashtbl.t = Hashtbl.create 64

let sample name v =
  Hashtbl.replace samples name
    (v :: Option.value (Hashtbl.find_opt samples name) ~default:[])

let mean_of name =
  match Hashtbl.find_opt samples name with
  | None | Some [] -> 0.0
  | Some xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let median_of name =
  median (Option.value (Hashtbl.find_opt samples name) ~default:[])

(* The fastest sample.  The batch workloads report it instead of the
   median: the host is a shared VM whose contention slows stretches of about
   a second at a time by up to 2x and only ever adds time, so the fastest of
   many short samples is the steady estimate of the code's own cost. *)
let fast_of name =
  match Hashtbl.find_opt samples name with
  | None | Some [] -> 0.0
  | Some xs -> List.fold_left Float.min Float.infinity xs

(* --- metrics-layer snapshots, summed over the traced operations --- *)

let traced : (string, int * float) Hashtbl.t = Hashtbl.create 64

let with_metrics f =
  Metrics.reset ();
  let v = f () in
  List.iter
    (fun (e : Metrics.entry) ->
      let c, s =
        Option.value (Hashtbl.find_opt traced e.e_name) ~default:(0, 0.0)
      in
      Hashtbl.replace traced e.e_name (c + e.e_count, s +. e.e_seconds))
    (Metrics.snapshot ());
  v

let count name = float_of_int (fst (Option.value (Hashtbl.find_opt traced name) ~default:(0, 0.0)))
let span_s name = snd (Option.value (Hashtbl.find_opt traced name) ~default:(0, 0.0))

(* --- the protocol-step wrapper: times P.send / P.receive / P.wire_size --- *)

let step_calls = Array.make 3 0
let step_secs = Float.Array.make 3 0.0

let step i f =
  let t0 = now () in
  let v = f () in
  step_calls.(i) <- step_calls.(i) + 1;
  Float.Array.set step_secs i (Float.Array.get step_secs i +. (now () -. t0));
  v

let reset_steps () =
  Array.fill step_calls 0 3 0;
  Float.Array.fill step_secs 0 3 0.0

module Timed (P : Eba.Protocol_intf.PROTOCOL) : Eba.Protocol_intf.PROTOCOL =
struct
  let name = P.name

  type state = P.state
  type msg = P.msg

  let init = P.init
  let send params st ~round = step 0 (fun () -> P.send params st ~round)

  let receive params st ~round arrived =
    step 1 (fun () -> P.receive params st ~round arrived)

  let output = P.output
  let wire_size params m = step 2 (fun () -> P.wire_size params m)
end

(* [Spec.run] with the protocol wrapped; same arguments, same summary. *)
let timed_sweep (r : Spec.resolved) =
  let module P = (val r.Spec.r_protocol) in
  Net.Netsim.sweep ?jobs:r.Spec.r_spec.Spec.jobs ?mux:r.Spec.r_mux
    (module Timed (P))
    r.Spec.r_params ~sync:r.Spec.r_sync ~topology:r.Spec.r_topology
    ~dynamic:r.Spec.r_dynamic ~seed:r.Spec.r_spec.Spec.seed ~runs:r.Spec.r_runs

let resolve spec =
  match Spec.resolve spec with Ok r -> r | Error m -> failwith ("resolve: " ^ m)

let summary_string s = Json.to_string (Net.Net_stats.summary_json s)

let proto_layers ~wall ~runs =
  let proto = Float.Array.fold_left ( +. ) 0.0 step_secs in
  let per i = ratio (Float.Array.get step_secs i *. 1e6) (float_of_int step_calls.(i)) in
  [
    ("proto.send_us", per 0);
    ("proto.receive_us", per 1);
    ("proto.wire_size_us", per 2);
    ("proto.share", ratio proto wall);
    ("engine.ms_per_run", ratio ((wall -. proto) *. 1e3) (float_of_int runs));
  ]

(* --- output --- *)

let emit ~e2e ~layers ~detail =
  let num (k, v) = (k, Json.Float v) in
  print_string
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (!errors = []));
            ("errors", Json.List (List.rev_map (fun e -> Json.String e) !errors));
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int (List.length !errors));
            ("e2e", Json.Obj (List.map num e2e));
            ("layers", Json.Obj (List.map num layers));
            ("detail", Json.Obj (List.map num detail));
          ]))

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

let setup_samples = 11

(* Runs [round] until [seconds] have passed, at least [min_rounds] times.
   With [setup], also times it [setup_samples] times at even intervals over
   the same period, the first before round 0, and returns those times: the
   host's speed drifts over seconds, so set-ups timed back to back would
   all catch the same moment of it. *)
let repeat ?setup ~seconds ~min_rounds round =
  let start = now () in
  let times = ref [] in
  let setup_due () =
    let k = List.length !times in
    Option.is_some setup && k < setup_samples
    && now () >= start +. (seconds *. float_of_int k /. float_of_int setup_samples)
  in
  let time_setup () = times := snd (timed (Option.get setup)) :: !times in
  let rec go i =
    if setup_due () then time_setup ();
    if i < min_rounds || now () < start +. seconds then begin
      round i;
      go (i + 1)
    end
  in
  go 0;
  while Option.is_some setup && List.length !times < setup_samples do
    time_setup ()
  done;
  !times

(* ------------------------------------------------------------------ *)
(* sim: four sweeps through the [eba netsim] path, no daemon, jobs=1   *)
(* ------------------------------------------------------------------ *)

type sweep_kind = Const | Const_seq | Uniform | Wide

let kind_name = function
  | Const -> "const"
  | Const_seq -> "const_seq"
  | Uniform -> "uniform"
  | Wide -> "wide"

let sim_spec ?runs kind ~seed =
  let floodset = { Spec.default with protocol = "floodset"; n = 16; t_failures = 5; seed } in
  let const =
    { floodset with latency = Net.Link.Const 1.0; loss = 0.05; runs = Some 50; mux = Spec.Mux_auto }
  in
  let spec =
    match kind with
    | Const -> const
    | Const_seq -> { const with mux = Spec.Mux_off }
    | Uniform -> { floodset with latency = Net.Link.Uniform (0.2, 1.0); loss = 0.1; runs = Some 20 }
    | Wide ->
        {
          floodset with
          protocol = "p0opt";
          compact = true;
          n = 128;
          t_failures = 16;
          latency = Net.Link.Uniform (0.2, 1.0);
          loss = 0.05;
          runs = Some 1;
        }
  in
  match runs with None -> spec | Some r -> { spec with runs = Some r }

(* Canonical sweeps run during set-up: the pinned seeds at small run
   counts.  [data_bytes] is the wire total today; a codec change may lower
   it, never raise it. *)
let canonical = [ (Const, 8128, 32); (Const_seq, 8128, 32); (Uniform, 42, 16); (Wide, 5128, 1) ]

let pinned_data_bytes = function
  | Const | Const_seq -> 200_616
  | Uniform -> 104_394
  | Wide -> 1_167_961

let sound what (s : Net.Net_stats.summary) ~runs =
  check (what ^ ": run count") (s.Net.Net_stats.ns_runs = runs);
  check (what ^ ": agreement") (s.Net.Net_stats.ns_agreement_violations = 0);
  check (what ^ ": validity") (s.Net.Net_stats.ns_validity_violations = 0)

let sim_setup () =
  let summaries =
    List.map
      (fun (kind, seed, runs) ->
        let r = resolve (sim_spec kind ~seed ~runs) in
        let s = Spec.run r in
        sound ("setup " ^ kind_name kind) s ~runs;
        check
          (Printf.sprintf "setup %s: data bytes %d above the pinned %d" (kind_name kind)
             s.Net.Net_stats.ns_wire.Net.Net_stats.w_data_bytes (pinned_data_bytes kind))
          (s.Net.Net_stats.ns_wire.Net.Net_stats.w_data_bytes <= pinned_data_bytes kind);
        (kind, summary_string s))
      canonical
  in
  check "setup: mux summary differs from the sequential engine's"
    (List.assoc Const summaries = List.assoc Const_seq summaries)

let short_sweeps = 3

let sweep_seed ~seed i = Random.State.bits (Random.State.make [| seed; i |])

let sim ~seed ~seconds ~trace =
  Eba.Parallel.set_jobs 1;
  let kinds = [ Const; Const_seq; Uniform; Wide ] in
  let timed_sweep_of ~sweep kind ~seed =
    let r = resolve (sim_spec kind ~seed) in
    let s, wall = timed (fun () -> sweep kind r) in
    sound (kind_name kind) s ~runs:r.Spec.r_runs;
    sample (kind_name kind ^ ".ms_per_run") (wall *. 1e3 /. float_of_int r.Spec.r_runs);
    summary_string s
  in
  (* one round: [short_sweeps] triples of the short sweeps, each triple at
     a seed of its own, then the wide sweep on a collected heap.  Short
     sweeps give many samples per run, so their fastest is steady; the mux
     sweep must reproduce the sequential engine's summary at the same
     seed. *)
  let round ~sweep i =
    for j = 0 to short_sweeps - 1 do
      let seed = sweep_seed ~seed ((i * short_sweeps) + j) in
      let const = timed_sweep_of ~sweep Const ~seed in
      let const_seq = timed_sweep_of ~sweep Const_seq ~seed in
      ignore (timed_sweep_of ~sweep Uniform ~seed);
      check
        (Printf.sprintf "seed %d: mux summary differs from the sequential engine's" seed)
        (const = const_seq)
    done;
    Gc.full_major ();
    ignore (timed_sweep_of ~sweep Wide ~seed:(sweep_seed ~seed i));
    Gc.full_major ()
  in
  let phase = if trace then seconds /. 2.0 else seconds in
  let runs_done = ref 0 and minor = ref 0.0 in
  let setups =
    repeat ~setup:sim_setup ~seconds:phase ~min_rounds:2
      (round ~sweep:(fun _ r ->
           runs_done := !runs_done + r.Spec.r_runs;
           let w0 = minor_words () in
           let s = Spec.run r in
           minor := !minor +. (minor_words () -. w0);
           s))
  in
  let minor_per_run = !minor /. float_of_int !runs_done in
  let e2e =
    [
      ("m1_ms", fast_of "const.ms_per_run");
      ("m2_ms", fast_of "uniform.ms_per_run");
      ("m3_ms", fast_of "wide.ms_per_run");
      ("setup_s", median setups);
    ]
  in
  let detail =
    List.map
      (fun k -> (k ^ ".runs_per_s", 1e3 /. fast_of (k ^ ".ms_per_run")))
      [ "const"; "uniform"; "wide"; "const_seq" ]
  in
  if not trace then emit ~e2e ~layers:[] ~detail
  else begin
    (* traced phase: metrics layer on, protocol wrapped; counters are
       read per sweep kind so each ratio has its own base *)
    Metrics.set_enabled true;
    let per_kind = Hashtbl.create 4 in
    let untraced_m1 = fast_of "const.ms_per_run" in
    let seq_ms = fast_of "const_seq.ms_per_run" in
    Hashtbl.reset samples;
    ignore
    @@ repeat ~seconds:phase ~min_rounds:1
      (round ~sweep:(fun kind r ->
           reset_steps ();
           Hashtbl.reset traced;
           let s, wall = timed (fun () -> with_metrics (fun () -> timed_sweep r)) in
           let get k = Option.value (Hashtbl.find_opt per_kind k) ~default:[] in
           let runs = float_of_int r.Spec.r_runs in
           let add name v = Hashtbl.replace per_kind (kind, name) (v :: get (kind, name)) in
           List.iter (fun (name, v) -> add name v) (proto_layers ~wall ~runs:r.Spec.r_runs);
           add "events" (count "net.events_processed" /. runs);
           add "retrans" (count "net.retransmissions" /. runs);
           add "bytes" (count "net.data_bytes" /. runs);
           add "batched" (ratio (count "mux.batched_deliveries") (count "net.messages_delivered"));
           add "ticks" (count "mux.timer_ticks" /. runs);
           add "arena" (count "mux.arena_reuses" /. runs);
           s));
    let m kind name = median (Option.value (Hashtbl.find_opt per_kind (kind, name)) ~default:[]) in
    let all name = median (List.concat_map (fun k -> Option.value (Hashtbl.find_opt per_kind (k, name)) ~default:[]) kinds) in
    let traced_m1 = fast_of "const.ms_per_run" in
    let layers =
      [
        ("proto.send_us", m Wide "proto.send_us");
        ("proto.receive_us", m Wide "proto.receive_us");
        ("proto.wire_size_us", m Wide "proto.wire_size_us");
        ("proto.share", m Wide "proto.share");
        ("proto.share_floodset", m Uniform "proto.share");
        ("engine.ms_per_run", m Const_seq "engine.ms_per_run");
        ("engine.ms_per_run_uniform", m Uniform "engine.ms_per_run");
        ("engine.seq_ms_per_run", seq_ms);
        ("net.events_per_run", all "events");
        ("net.retransmissions_per_run", all "retrans");
        ("net.data_bytes_per_run", m Wide "bytes");
        ("mux.batched_share", m Const "batched");
        ("mux.batched_share_uniform", m Uniform "batched");
        ("mux.timer_ticks_per_run", m Const "ticks");
        ("mux.arena_reuses_per_run", m Const "arena");
        ("gc.minor_words_per_run", minor_per_run);
        ("trace.overhead_ratio", ratio traced_m1 untraced_m1);
      ]
    in
    emit ~e2e ~layers ~detail
  end

(* ------------------------------------------------------------------ *)
(* exact: the [eba check] pipeline on the sharded builder, then an     *)
(* exact probcheck                                                      *)
(* ------------------------------------------------------------------ *)

(* crash n=4 t=1 T=4: 1872 runs, 9360 points.  Each operation takes about
   0.05 s, so a run holds over a hundred rounds and their fastest is steady;
   at n=4 t=2 T=4 (413,040 points) an operation takes 1-3 s and a run holds
   too few rounds to outlast the host's slow periods. *)
let exact_params = Eba.Params.make ~n:4 ~t:1 ~horizon:4 ~mode:Eba.Params.Crash

(* [Model.build] shards only with more than one job. *)
let exact_jobs = max 2 (Eba.Parallel.available ())

(* [eba check -p f-lambda-2] step by step, each public call timed *)
let check_pipeline ?(prefix = "") ~jobs params =
  let model, build = timed (fun () -> Eba.Model.build ~jobs params) in
  let env, env_s = timed (fun () -> Eba.Formula.env model) in
  let pair, pair_s = timed (fun () -> Eba.Zoo.f_lambda_2 env) in
  let d, decide_s = timed (fun () -> Eba.Kb_protocol.decide model pair) in
  let report, check_s = timed (fun () -> Eba.Spec.check d) in
  let optimal, opt_s = timed (fun () -> Eba.Characterize.is_optimal env d) in
  List.iter
    (fun (k, v) -> sample (prefix ^ k) (v *. 1e3))
    [
      ("model.build_ms", build);
      ("formula.env_ms", env_s);
      ("zoo.pair_ms", pair_s);
      ("kb.decide_ms", decide_s);
      ("spec.check_ms", check_s);
      ("characterize.optimal_ms", opt_s);
      ("eval_ms", env_s +. pair_s +. decide_s +. check_s +. opt_s);
      ("check_ms", build +. env_s +. pair_s +. decide_s +. check_s +. opt_s);
    ];
  (model, report, optimal)

(* The per-message miss probability depends on the loss and the retries
   only: 0.05^8 at any n.  n=32 keeps the report near 0.05 s. *)
let prob_case =
  {
    Spec.Probcheck.default with
    n = 32;
    t_failures = 4;
    latency = Net.Link.Uniform (0.2, 1.0);
    loss = "0.05";
  }

let probcheck spec =
  match Spec.Probcheck.report spec with
  | Ok r -> r
  | Error m -> failwith ("probcheck: " ^ m)

(* The same pipeline and report on one job, as [eba check] and
   [eba probcheck] run by default. *)
let exact_setup () =
  let _, report, optimal = check_pipeline ~prefix:"setup." ~jobs:1 exact_params in
  check "setup: jobs=1 check" (Eba.Spec.is_eba report && optimal);
  ignore (probcheck prob_case)

let exact ~seed ~seconds ~trace =
  let op = function
    | `Check ->
        let model, report, optimal = check_pipeline ~jobs:exact_jobs exact_params in
        check "check: 1872 runs" (Eba.Model.nruns model = 1872);
        check "check: 9360 points" (Eba.Model.npoints model = 9360);
        check "check: EBA" (Eba.Spec.is_eba report);
        check "check: NTA" (Eba.Spec.is_nontrivial_agreement report);
        check "check: optimal (Thm 5.3)" optimal
    | `Build_seq ->
        let model, s = timed (fun () -> Eba.Model.build ~jobs:1 exact_params) in
        sample "model.build_seq_ms" (s *. 1e3);
        check "build jobs=1: 9360 points" (Eba.Model.npoints model = 9360)
    | `Prob ->
        let r, s = timed (fun () -> probcheck prob_case) in
        sample "prob.report_ms" (s *. 1e3);
        check "probcheck n=32: miss probability 1/25600000000"
          (Eba.Prob.Q.equal r.Eba.Prob.Report.per_message_miss
             (Eba.Prob.Q.of_ints 1 25_600_000_000))
  in
  (* One round: the check and the probcheck (plus, traced, the jobs=1
     build) in a seeded order.  Each starts on a collected heap, so no
     operation pays for its predecessor's garbage and the peak RSS is one
     operation's, not two overlapping ones'. *)
  let round ops i =
    let ops = if Random.State.bool (Random.State.make [| seed; i |]) then List.rev ops else ops in
    List.iter
      (fun o ->
        Gc.full_major ();
        op o)
      ops
  in
  let phase = if trace then seconds /. 2.0 else seconds in
  let ops_done = ref 0 and minor = ref 0.0 in
  let setups =
    repeat ~setup:exact_setup ~seconds:phase ~min_rounds:1 (fun i ->
        let w0 = minor_words () in
        round [ `Check; `Prob ] i;
        minor := !minor +. (minor_words () -. w0);
        ops_done := !ops_done + 2)
  in
  let minor_per_op = !minor /. float_of_int !ops_done in
  let e2e =
    [
      ("m1_ms", fast_of "check_ms");
      ("m2_ms", fast_of "prob.report_ms");
      ("m3_ms", fast_of "eval_ms");
      ("setup_s", median setups);
    ]
  in
  let detail =
    [ ("check_s", fast_of "check_ms" /. 1e3); ("probcheck_s", fast_of "prob.report_ms" /. 1e3) ]
  in
  if not trace then emit ~e2e ~layers:[] ~detail
  else begin
    let untraced_m1 = fast_of "check_ms" in
    Hashtbl.reset samples;
    Metrics.set_enabled true;
    let checks = ref 0 and builds = ref 0 in
    ignore
    @@ repeat ~seconds:phase ~min_rounds:1 (fun i ->
        with_metrics (fun () -> round [ `Check; `Build_seq; `Prob ] i);
        incr checks;
        builds := !builds + 2);
    let per_check name = count name /. float_of_int !checks in
    let per_build name = count name /. float_of_int !builds in
    let layers =
      [
        ("model.build_ms", mean_of "model.build_ms");
        ("model.build_seq_ms", mean_of "model.build_seq_ms");
        ("model.views", per_build "model.views");
        ("model.points", per_build "model.points");
        ("model.tree_nodes", per_build "model.tree_nodes");
        ("model.prefix_hits", per_build "model.prefix_hits");
        ("parallel.chunks", per_check "parallel.chunks");
        ("formula.env_ms", mean_of "formula.env_ms");
        ("zoo.pair_ms", mean_of "zoo.pair_ms");
        ("kb.decide_ms", mean_of "kb.decide_ms");
        ("spec.check_ms", mean_of "spec.check_ms");
        ("characterize.optimal_ms", mean_of "characterize.optimal_ms");
        ("knowledge.known_per_view_ms", span_s "knowledge.known_per_view" *. 1e3 /. float_of_int !checks);
        ("continual.closure_ms", span_s "continual.closure" *. 1e3 /. float_of_int !checks);
        ("knowledge.cell_points_probed", per_check "knowledge.cell_points_probed");
        ("continual.uf_unions", per_check "continual.uf_unions");
        ("prob.report_ms", mean_of "prob.report_ms");
        ("gc.minor_words_per_run", minor_per_op);
        ("trace.overhead_ratio", ratio (fast_of "check_ms") untraced_m1);
      ]
    in
    emit ~e2e ~layers ~detail
  end

(* ------------------------------------------------------------------ *)
(* served requests: references and the layer-by-layer replay           *)
(* ------------------------------------------------------------------ *)

let read_json file =
  let text = In_channel.with_open_bin file In_channel.input_all in
  match Json.parse text with
  | Ok j -> j
  | Error e -> failwith (file ^ ": " ^ Json.error_to_string e)

let field name = function
  | Json.Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> v
      | None -> failwith ("missing field " ^ name))
  | _ -> failwith ("not an object, looking for " ^ name)

let list = function Json.List xs -> xs | _ -> failwith "expected a list"
let string = function Json.String s -> s | _ -> failwith "expected a string"

(* The daemon's reply to request [id] with [result], byte for byte. *)
let reply ~id result = Json.to_string (Server.Protocol.ok ~id result)

(* The result the daemon's worker computes for one request. *)
let reference ~verb ~params =
  match Server.Registry.prepare ~verb ~params with
  | Error _ -> failwith ("bad request: " ^ verb)
  | Ok thunk -> (
      match thunk Server.Registry.no_ctx with
      | Ok result -> result
      | Error m -> failwith ("thunk: " ^ m))

let refs file =
  let reqs = list (read_json file) in
  print_string
    (Json.to_string
       (Json.List
          (List.map
             (fun r ->
               let verb = string (field "verb" r) in
               Json.String (reply ~id:(Json.Int 0) (reference ~verb ~params:(field "params" r))))
             reqs)))

(* The knowledge-query [spec] thunk's own steps, each timed, rebuilding
   the same result object ([Registry.knowledge]). *)
let pair_of_name env = function
  | "never" -> Eba.Kb_protocol.never_decide (Eba.Formula.model env)
  | "p0" -> Eba.Zoo.p0 env
  | "p1" -> Eba.Zoo.p1 env
  | "p0opt" | "f-lambda-2" -> Eba.Zoo.f_lambda_2 env
  | "chain0" -> Eba.Zoo.chain_zero env
  | "f-star" -> Eba.Zoo.f_star env
  | other -> invalid_arg ("unknown protocol " ^ other)

let spec_report_json (r : Eba.Spec.report) =
  Json.Obj
    [
      ("weak_agreement", Json.Bool r.weak_agreement);
      ("agreement", Json.Bool r.agreement);
      ("weak_validity", Json.Bool r.weak_validity);
      ("validity", Json.Bool r.validity);
      ("decision", Json.Bool r.decision);
      ("simultaneity", Json.Bool r.simultaneity);
      ("unambiguous", Json.Bool r.unambiguous);
      ( "max_decision_time",
        match r.max_decision_time with Some t -> Json.Int t | None -> Json.Null );
    ]

let ok_or_fail = function Ok v -> v | Error m -> failwith m

let kq_steps cache params =
  let module P = Server.Protocol in
  let n = ok_or_fail (P.get_int ~default:3 params "n") in
  let t = ok_or_fail (P.get_int ~default:1 params "t") in
  let horizon = ok_or_fail (P.get_int ~default:3 params "horizon") in
  let mode_s = ok_or_fail (P.get_string ~default:"crash" params "mode") in
  let name = ok_or_fail (P.get_string ~default:"f-lambda-2" params "protocol") in
  let mode = Option.get (Spec.mode_of_string mode_s) in
  let mp = Eba.Params.make ~n ~t ~horizon ~mode in
  let build_s = ref 0.0 in
  let model, lookup =
    timed (fun () ->
        Server.Model_cache.find_or_build cache mp (fun p ->
            let m, s = timed (fun () -> Eba.Model.build p) in
            build_s := s;
            m))
  in
  if !build_s > 0.0 then sample "model.build_ms" (!build_s *. 1e3);
  sample "cache.lookup_us" ((lookup -. !build_s) *. 1e6);
  let env, env_s = timed (fun () -> Eba.Formula.env model) in
  let pair, pair_s = timed (fun () -> pair_of_name env name) in
  let d, decide_s = timed (fun () -> Eba.Kb_protocol.decide model pair) in
  let report, check_s = timed (fun () -> Eba.Spec.check d) in
  let optimal, opt_s = timed (fun () -> Eba.Characterize.is_optimal env d) in
  List.iter
    (fun (k, v) -> sample k (v *. 1e3))
    [
      ("formula.env_ms", env_s);
      ("zoo.pair_ms", pair_s);
      ("kb.decide_ms", decide_s);
      ("spec.check_ms", check_s);
      ("characterize.optimal_ms", opt_s);
      ("replay.kq_ms", lookup +. env_s +. pair_s +. decide_s +. check_s +. opt_s);
    ];
  Json.Obj
    [
      ("protocol", Json.String name);
      ("query", Json.String "spec");
      ("n", Json.Int n);
      ("t", Json.Int t);
      ("horizon", Json.Int horizon);
      ("mode", Json.String mode_s);
      ("eba", Json.Bool (Eba.Spec.is_eba report));
      ("nta", Json.Bool (Eba.Spec.is_nontrivial_agreement report));
      ("optimal", Json.Bool optimal);
      ("report", spec_report_json report);
    ]

let replay file =
  let input = read_json file in
  let cache = Server.Model_cache.create ~capacity:8 () in
  List.iter
    (fun params -> ignore (kq_steps cache params))
    (list (field "prefill" input));
  Hashtbl.reset samples;
  let expected = Hashtbl.create 16 in
  let reference_bytes ~verb ~params =
    let key = verb ^ Json.to_string params in
    match Hashtbl.find_opt expected key with
    | Some s -> s
    | None ->
        let s = Json.to_string (reference ~verb ~params) in
        Hashtbl.replace expected key s;
        s
  in
  let sweep_wall = ref 0.0 and sweep_runs = ref 0 in
  reset_steps ();
  List.iteri
    (fun i r ->
      let verb = string (field "verb" r) and params = field "params" r in
      let id = Json.Int (i + 1) in
      let wire =
        Server.Frame.encode
          (Json.to_string
             (Json.Obj [ ("id", id); ("verb", Json.String verb); ("params", params) ]))
      in
      let payload, decode =
        timed (fun () ->
            let d = Server.Frame.decoder () in
            Server.Frame.feed d (Bytes.of_string wire) ~len:(String.length wire);
            match Server.Frame.next d with Ok (Some p) -> p | _ -> failwith "frame")
      in
      let req, parse =
        timed (fun () ->
            match Json.parse payload with
            | Ok j -> ok_or_fail (Server.Protocol.request_of_json j)
            | Error e -> failwith (Json.error_to_string e))
      in
      let prepare () =
        timed (fun () ->
            match Server.Registry.prepare ~verb:req.Server.Protocol.verb ~params:req.Server.Protocol.params with
            | Ok thunk -> thunk
            | Error _ -> failwith ("prepare " ^ verb))
      in
      let result =
        match verb with
        | "knowledge-query" ->
            let _thunk, prep = prepare () in
            sample "registry.prepare_kq_us" (prep *. 1e6);
            Some (kq_steps cache req.Server.Protocol.params)
        | "netsim-sweep" ->
            let thunk, prep = prepare () in
            sample "registry.prepare_sweep_us" (prep *. 1e6);
            let result, s = timed (fun () -> ok_or_fail (thunk Server.Registry.no_ctx)) in
            sample "netsim.sweep_us" (s *. 1e6);
            (* the same sweep once more with the protocol wrapped *)
            let spec = ok_or_fail (Spec.of_json params) in
            let r = resolve spec in
            let summary, wall = timed (fun () -> timed_sweep r) in
            sweep_wall := !sweep_wall +. wall;
            sweep_runs := !sweep_runs + r.Spec.r_runs;
            check "replay: wrapped sweep differs from the served one"
              (Json.to_string (Net.Net_stats.summary_json summary) = Json.to_string result);
            Some result
        | "probcheck" ->
            let thunk, prep = prepare () in
            sample "registry.prepare_prob_us" (prep *. 1e6);
            let result, s = timed (fun () -> ok_or_fail (thunk Server.Registry.no_ctx)) in
            sample "prob.report_ms" (s *. 1e3);
            Some result
        | _ -> None (* status is answered inline by the daemon's loop *)
      in
      Option.iter
        (fun result ->
          sample "frame.decode_us" (decode *. 1e6);
          sample "json.parse_us" (parse *. 1e6);
          let bytes, emit_s = timed (fun () -> reply ~id result) in
          let _, encode = timed (fun () -> Server.Frame.encode bytes) in
          sample "json.emit_us" (emit_s *. 1e6);
          sample "json.reply_bytes" (float_of_int (String.length bytes));
          sample "frame.encode_us" (encode *. 1e6);
          check
            (Printf.sprintf "replay: request %d (%s) differs from the worker's result" (i + 1) verb)
            (Json.to_string result = reference_bytes ~verb ~params))
        result)
    (list (field "requests" input));
  let names =
    [
      "frame.decode_us"; "frame.encode_us"; "json.parse_us"; "json.emit_us";
      "json.reply_bytes"; "registry.prepare_kq_us"; "registry.prepare_sweep_us";
      "registry.prepare_prob_us"; "netsim.sweep_us"; "cache.lookup_us";
      "model.build_ms"; "formula.env_ms"; "zoo.pair_ms"; "kb.decide_ms";
      "spec.check_ms"; "characterize.optimal_ms"; "replay.kq_ms"; "prob.report_ms";
    ]
  in
  emit ~e2e:[]
    ~layers:(List.map (fun k -> (k, mean_of k)) names @ proto_layers ~wall:!sweep_wall ~runs:!sweep_runs)
    ~detail:[ ("replay.kq_p50_ms", median_of "replay.kq_ms") ]

let () =
  Metrics.set_clock now;
  match Array.to_list Sys.argv with
  | [ _; "sim"; seed; seconds; trace ] ->
      sim ~seed:(int_of_string seed) ~seconds:(float_of_string seconds) ~trace:(trace = "1")
  | [ _; "exact"; seed; seconds; trace ] ->
      exact ~seed:(int_of_string seed) ~seconds:(float_of_string seconds) ~trace:(trace = "1")
  | [ _; "refs"; file ] -> refs file
  | [ _; "replay"; file ] -> replay file
  | _ ->
      prerr_endline "usage: helper (sim|exact) SEED SECONDS TRACE | helper (refs|replay) FILE";
      exit 2
