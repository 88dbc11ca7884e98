(* The network simulator: event-queue determinism, the fabric and timing
   validation, and the two load-bearing properties of the subsystem —

   1. Differential equivalence: replaying every exhaustive crash and
      omission pattern (n=3 t=1, loss-free fabric) through the round
      synchronizer produces decisions and per-run message counts identical
      to the lockstep Runner, for all five operational protocols.

   2. Determinism: a sampled netsim sweep is a pure function of its seed —
      bit-identical across --jobs values and across repeated runs — which
      is what makes the differential suite and the committed benchmark
      numbers meaningful.

   Plus the large-n acceptance workload: n=64 t=8 under nonzero loss with
   retransmission, zero spec violations, everyone nonfaulty decided. *)

module Net = Eba.Net
module EQ = Net.Event_queue
module Runner = Eba.Runner
module Val = Eba.Value
open Helpers

(* --- event queue --- *)

let eq_tests =
  [
    test "take order is (time, seqno)" (fun () ->
        (* payloads are indices into [names] *)
        let names = [| "c"; "a"; "b"; "z" |] in
        let q = EQ.create () in
        EQ.push q ~time:2.0 0;
        EQ.push q ~time:1.0 1;
        EQ.push q ~time:1.0 2;
        EQ.push q ~time:0.5 3;
        let order = List.init 4 (fun _ -> names.(EQ.take q)) in
        Alcotest.(check (list string)) "order" [ "z"; "a"; "b"; "c" ] order;
        check "drained" true (EQ.is_empty q);
        check "take on empty raises" true
          (try
             ignore (EQ.take q);
             false
           with Invalid_argument _ -> true));
    test "push rejects bad times" (fun () ->
        let q = EQ.create () in
        check "neg" true
          (try
             EQ.push q ~time:(-1.0) 0;
             false
           with Invalid_argument _ -> true);
        check "nan" true
          (try
             EQ.push q ~time:Float.nan 0;
             false
           with Invalid_argument _ -> true));
    qtest ~count:200 "qcheck: take is a stable sort by time"
      QCheck2.Gen.(list_size (int_bound 40) (int_bound 5))
      (fun times ->
        (* payload i stands for the pair (times.(i), i) *)
        let q = EQ.create () in
        List.iteri (fun i t -> EQ.push q ~time:(float_of_int t) i) times;
        let pairs = Array.of_list (List.mapi (fun i t -> (t, i)) times) in
        let popped = List.map (fun i -> pairs.(i)) (drain_events q) in
        let expected =
          List.stable_sort
            (fun (t1, i1) (t2, i2) -> if t1 <> t2 then compare t1 t2 else compare i1 i2)
            (List.mapi (fun i t -> (t, i)) times)
        in
        popped = expected);
  ]

(* --- links and timing --- *)

let link_tests =
  [
    test "latency spec round-trips" (fun () ->
        List.iter
          (fun s ->
            Alcotest.(check string)
              s s
              (Net.Link.latency_to_string (Net.Link.latency_of_string s)))
          [
            "const:1";
            "uniform:0.5,2";
            "spike:1,0.01,50";
            "const:0.1234567";
            "uniform:0.2,1.234567";
          ]);
    test "malformed latency specs raise" (fun () ->
        List.iter
          (fun s ->
            check s true
              (try
                 ignore (Net.Link.latency_of_string s);
                 false
               with Invalid_argument _ -> true))
          [ "1.0"; "const:"; "uniform:2,1"; "spike:1,2,3"; "gauss:1,2" ]);
    test "sync rejects a window smaller than the latency bound" (fun () ->
        let top =
          Net.Topology.make ~n:3
            ~link:(Net.Link.make ~latency:(Net.Link.Const 10.0) ~loss:0.0)
        in
        let sync = Net.Sync.make ~round_duration:5.0 ~rto:1.0 ~max_retries:2 in
        check "check raises" true
          (try
             Net.Sync.check sync top;
             false
           with Invalid_argument _ -> true);
        (* and the default timing always fits *)
        Net.Sync.check (Net.Sync.default_for top) top);
    test "sync needs the latency bound strictly below the window" (fun () ->
        let top latency =
          Net.Topology.make ~n:3 ~link:(Net.Link.make ~latency ~loss:0.0)
        in
        let sync = Net.Sync.make ~round_duration:4.0 ~rto:1.0 ~max_retries:2 in
        check "bound = window raises" true
          (try
             Net.Sync.check sync (top (Net.Link.Const 4.0));
             false
           with Invalid_argument _ -> true);
        check "uniform upper bound = window raises" true
          (try
             Net.Sync.check sync (top (Net.Link.Uniform (0.5, 4.0)));
             false
           with Invalid_argument _ -> true);
        Net.Sync.check sync (top (Net.Link.Const (Float.pred 4.0))));
    test "a fabric's latency bound is its one link's bound" (fun () ->
        List.iter
          (fun latency ->
            let link = Net.Link.make ~latency ~loss:0.2 in
            let top = Net.Topology.make ~n:5 ~link in
            check_int "width" 5 (Net.Topology.n top);
            check "the shared link" true (Net.Topology.link top = link);
            check
              (Net.Link.latency_to_string latency)
              true
              (Net.Topology.latency_bound top = Net.Link.latency_bound latency))
          [
            Net.Link.Const 1.5;
            Net.Link.Uniform (0.25, 3.0);
            Net.Link.latency_of_string "spike:1,0.01,50";
          ]);
    test "a fabric needs at least two processors" (fun () ->
        List.iter
          (fun n ->
            check (Printf.sprintf "n = %d raises" n) true
              (try
                 ignore
                   (Net.Topology.make ~n
                      ~link:(Net.Link.make ~latency:(Net.Link.Const 1.0) ~loss:0.0));
                 false
               with Invalid_argument _ -> true))
          [ 1; 0; -2 ]);
    test "topology pp prints the width and the shared link" (fun () ->
        Alcotest.(check string)
          "text" "mesh n=4 default=uniform:0.5,2 loss=0.05"
          (Format.asprintf "%a" Net.Topology.pp
             (Net.Topology.make ~n:4
                ~link:(Net.Link.make ~latency:(Net.Link.Uniform (0.5, 2.0)) ~loss:0.05))));
  ]

(* --- differential equivalence against the lockstep runner --- *)

let operational_protocols : (string * (module Eba.Protocol_intf.PROTOCOL)) list =
  [
    ("P0", (module Eba.P0.P0));
    ("P0opt", (module Eba.P0opt));
    ("P0opt+", (module Eba.P0opt_plus));
    ("FloodSet", (module Eba.Floodset));
    ("Chain0", (module Eba.Chain0));
  ]

let replay_disagreements (module P : Eba.Protocol_intf.PROTOCOL) params =
  let module R = Runner.Make (P) in
  let module S = Net.Netsim.Make (P) in
  let bad = ref [] in
  Seq.iter
    (fun (config, pattern) ->
      let lock = R.run params config pattern in
      let net = S.replay params pattern config in
      let show = function
        | None -> "undecided"
        | Some { Runner.at; value } -> Format.asprintf "%a@%d" Val.pp value at
      in
      for i = 0 to params.Eba.Params.n - 1 do
        let same =
          match (lock.Runner.decisions.(i), net.Net.Net_stats.o_decisions.(i)) with
          | None, None -> true
          | Some a, Some b -> a.Runner.at = b.Runner.at && Val.equal a.Runner.value b.Runner.value
          | None, Some _ | Some _, None -> false
        in
        if not same then
          bad :=
            Format.asprintf "%a / %a proc %d: runner %s vs netsim %s" Eba.Config.pp
              config Eba.Pattern.pp pattern i
              (show lock.Runner.decisions.(i))
              (show net.Net.Net_stats.o_decisions.(i))
            :: !bad
      done;
      if
        lock.Runner.messages_attempted <> net.Net.Net_stats.o_attempted
        || lock.Runner.messages_delivered <> net.Net.Net_stats.o_delivered
      then
        bad :=
          Format.asprintf "%a / %a: runner msgs %d/%d vs netsim %d/%d" Eba.Config.pp
            config Eba.Pattern.pp pattern lock.Runner.messages_delivered
            lock.Runner.messages_attempted net.Net.Net_stats.o_delivered
            net.Net.Net_stats.o_attempted
          :: !bad)
    (Eba.Universe.workload_seq params);
  !bad

let replay_agrees name p params () =
  match replay_disagreements p params with
  | [] -> ()
  | first :: _ as all ->
      Alcotest.failf "%s: %d replay entries disagree with Runner; first: %s" name
        (List.length all) first

let differential_tests =
  List.concat_map
    (fun (name, p) ->
      [
        test
          (Printf.sprintf "%s netsim replay = Runner, exhaustive crash n=3 t=1" name)
          (replay_agrees name p crash_3_1_3.params);
        test
          (Printf.sprintf "%s netsim replay = Runner, exhaustive omission n=3 t=1"
             name)
          (replay_agrees name p omission_3_1_3.params);
      ])
    operational_protocols

(* --- determinism of sampled sweeps --- *)

let sweep_of ~jobs ~seed ~runs ~loss ~n ~t =
  let params = Eba.Params.make ~n ~t ~horizon:(t + 1) ~mode:Eba.Params.Crash in
  let topology =
    Net.Topology.make ~n
      ~link:(Net.Link.make ~latency:(Net.Link.Uniform (0.2, 1.0)) ~loss)
  in
  let sync = Net.Sync.default_for topology in
  Net.Netsim.sweep ~jobs
    (module Eba.Floodset)
    params ~sync ~topology
    ~dynamic:(Net.Inject.dynamic ~max_faulty:t ())
    ~seed ~runs

let determinism_tests =
  [
    qtest ~count:8 "qcheck: sweep summary is bit-identical for jobs=1 and jobs=4"
      QCheck2.Gen.(pair (int_bound 10_000) (int_range 2 5))
      (fun (seed, t) ->
        let s1 = sweep_of ~jobs:1 ~seed ~runs:12 ~loss:0.1 ~n:8 ~t in
        let s4 = sweep_of ~jobs:4 ~seed ~runs:12 ~loss:0.1 ~n:8 ~t in
        compare s1 s4 = 0);
    qtest ~count:8 "qcheck: sweep summary is bit-identical across repeated runs"
      QCheck2.Gen.(int_bound 10_000)
      (fun seed ->
        let s1 = sweep_of ~jobs:2 ~seed ~runs:10 ~loss:0.05 ~n:6 ~t:2 in
        let s2 = sweep_of ~jobs:2 ~seed ~runs:10 ~loss:0.05 ~n:6 ~t:2 in
        compare s1 s2 = 0);
    test "different seeds give different traffic" (fun () ->
        let s1 = sweep_of ~jobs:1 ~seed:1 ~runs:10 ~loss:0.1 ~n:8 ~t:3 in
        let s2 = sweep_of ~jobs:1 ~seed:2 ~runs:10 ~loss:0.1 ~n:8 ~t:3 in
        check "distinct" true (compare s1 s2 <> 0));
  ]

(* --- dynamic adversaries and the large-n acceptance workload --- *)

let acceptance_tests =
  [
    test "dynamic crash compile: crash times exactly on the chosen faulty" (fun () ->
        let params = Eba.Params.make ~n:16 ~t:5 ~horizon:6 ~mode:Eba.Params.Crash in
        let rng = Net.Netsim.run_seed ~seed:42 ~run:0 in
        let inj =
          Net.Inject.compile rng params ~total_time:100.0
            (Net.Inject.Dynamic (Net.Inject.dynamic ~max_faulty:5 ()))
        in
        let faulty = Net.Inject.faulty inj in
        Array.iteri
          (fun p f ->
            check "crash time iff faulty" true
              (Option.is_some (Net.Inject.crash_time inj ~proc:p) = f))
          faulty);
    slow "n=64 t=8, loss 5%, retransmission: zero violations, all decide" (fun () ->
        let n = 64 and t = 8 in
        let params = Eba.Params.make ~n ~t ~horizon:(t + 1) ~mode:Eba.Params.Crash in
        let topology =
          Net.Topology.make ~n
            ~link:(Net.Link.make ~latency:(Net.Link.Uniform (0.2, 1.0)) ~loss:0.05)
        in
        let sync = Net.Sync.default_for topology in
        let s =
          Net.Netsim.sweep ~jobs:1
            (module Eba.Floodset)
            params ~sync ~topology
            ~dynamic:(Net.Inject.dynamic ~max_faulty:t ())
            ~seed:2026 ~runs:3
        in
        check_int "agreement violations" 0 s.Net.Net_stats.ns_agreement_violations;
        check_int "validity violations" 0 s.Net.Net_stats.ns_validity_violations;
        check_int "undecided nonfaulty" 0 s.Net.Net_stats.ns_undecided_nonfaulty;
        check "everyone nonfaulty decided" true
          (s.Net.Net_stats.ns_decided_nonfaulty > 0);
        check "loss actually happened" true
          (s.Net.Net_stats.ns_wire.Net.Net_stats.w_dropped_loss > 0);
        check "retransmission actually masked it" true
          (s.Net.Net_stats.ns_wire.Net.Net_stats.w_retransmissions > 0));
    test "transient partitions sever copies but retransmission masks them" (fun () ->
        let n = 8 in
        let params = Eba.Params.make ~n ~t:2 ~horizon:3 ~mode:Eba.Params.Omission in
        let topology =
          Net.Topology.make ~n
            ~link:(Net.Link.make ~latency:(Net.Link.Const 1.0) ~loss:0.0)
        in
        let sync = Net.Sync.default_for topology in
        let s =
          Net.Netsim.sweep ~jobs:1
            (module Eba.Floodset)
            params ~sync ~topology
            ~dynamic:
              (Net.Inject.dynamic ~max_faulty:2 ~omit_prob:0.3 ~partitions:2
                 ~partition_span:(2.0 *. sync.Net.Sync.rto) ())
            ~seed:7 ~runs:20
        in
        check "partition cut some copies" true
          (s.Net.Net_stats.ns_wire.Net.Net_stats.w_dropped_cut > 0);
        check_int "agreement violations" 0 s.Net.Net_stats.ns_agreement_violations;
        check_int "undecided nonfaulty" 0 s.Net.Net_stats.ns_undecided_nonfaulty);
  ]

(* --- cooperative cancellation and progress --- *)

let sweep_cancellable ?cancel ?progress ?mux ~jobs ~runs () =
  let n = 4 and t = 1 in
  let params = Eba.Params.make ~n ~t ~horizon:(t + 1) ~mode:Eba.Params.Crash in
  let topology =
    Net.Topology.make ~n
      ~link:(Net.Link.make ~latency:(Net.Link.Const 1.0) ~loss:0.0)
  in
  let sync = Net.Sync.default_for topology in
  Net.Netsim.sweep ~jobs ?mux ?cancel ?progress
    (module Eba.Floodset)
    params ~sync ~topology
    ~dynamic:(Net.Inject.dynamic ~max_faulty:t ())
    ~seed:11 ~runs

let cancel_tests =
  [
    test "a pre-fired token cancels the sweep before any run" (fun () ->
        List.iter
          (fun (jobs, mux) ->
            let cancel = Eba.Cancel.create () in
            Eba.Cancel.cancel cancel;
            match sweep_cancellable ~cancel ?mux ~jobs ~runs:50 () with
            | _ -> Alcotest.fail "cancelled sweep returned a summary"
            | exception Eba.Cancel.Cancelled -> ())
          [ (1, None); (4, None); (1, Some 8); (4, Some 8) ]);
    test "a token fired from mid-sweep progress stops within the sweep"
      (fun () ->
        (* fire the token the moment the third run completes: the sweep
           must raise instead of running all 10_000 remaining runs, which
           is exactly the per-run poll the daemon's cancel verb relies on *)
        let cancel = Eba.Cancel.create () in
        let seen = ref 0 in
        let progress ~done_ ~total:_ =
          seen := max !seen done_;
          if done_ >= 3 then Eba.Cancel.cancel cancel
        in
        (match sweep_cancellable ~cancel ~progress ~jobs:1 ~runs:10_000 () with
        | _ -> Alcotest.fail "cancelled sweep returned a summary"
        | exception Eba.Cancel.Cancelled -> ());
        check "stopped promptly" true (!seen < 100));
    test "progress reports every run exactly once, jobs 1 and 4, mux on \
          and off"
      (fun () ->
        List.iter
          (fun (jobs, mux) ->
            let ticks = ref 0 and peak = ref 0 and totals_ok = ref true in
            let lock = Mutex.create () in
            let progress ~done_ ~total =
              Mutex.lock lock;
              incr ticks;
              peak := max !peak done_;
              if total <> 40 then totals_ok := false;
              Mutex.unlock lock
            in
            let runs = 40 in
            ignore (sweep_cancellable ~progress ?mux ~jobs ~runs ());
            check "total is always the run count" true !totals_ok;
            check_int "cumulative done reaches runs" runs !peak;
            (* non-mux ticks once per run; mux ticks once per completed
               wave batch, so at most once per run either way *)
            check "no overcounting" true (!ticks <= runs))
          [ (1, None); (4, None); (1, Some 8); (4, Some 8) ]);
    test "a cancelled sweep with progress never reports beyond the stop"
      (fun () ->
        let cancel = Eba.Cancel.create () in
        Eba.Cancel.cancel cancel;
        let called = ref false in
        let progress ~done_:_ ~total:_ = called := true in
        (match
           sweep_cancellable ~cancel ~progress ~jobs:1 ~runs:50 ()
         with
        | _ -> Alcotest.fail "cancelled sweep returned a summary"
        | exception Eba.Cancel.Cancelled -> ());
        check "no progress after a pre-fired token" false !called);
  ]

let lossy_sweep_tests =
  [
    test "lossy sweeps at n=16 and n=8 (one partition): no violations, bytes on the wire"
      (fun () ->
        let sweep (module P : Eba.Protocol_intf.PROTOCOL) ~n ~t ~mode ~loss
            ~partitions ~seed =
          let params = Eba.Params.make ~n ~t ~horizon:(t + 1) ~mode in
          let topology =
            Net.Topology.make ~n
              ~link:(Net.Link.make ~latency:(Net.Link.Uniform (0.2, 1.0)) ~loss)
          in
          let sync = Net.Sync.default_for topology in
          Net.Netsim.sweep
            (module P)
            params ~sync ~topology
            ~dynamic:
              (Net.Inject.dynamic ~partitions
                 ~partition_span:(2.0 *. sync.Net.Sync.rto)
                 ~max_faulty:t ())
            ~seed ~runs:5
        in
        List.iter
          (fun s ->
            let w = s.Net.Net_stats.ns_wire in
            check_int "agreement violations" 0 s.Net.Net_stats.ns_agreement_violations;
            check_int "validity violations" 0 s.Net.Net_stats.ns_validity_violations;
            check_int "undecided nonfaulty" 0 s.Net.Net_stats.ns_undecided_nonfaulty;
            check "copies" true (w.Net.Net_stats.w_copies > 0);
            check "data bytes" true (w.Net.Net_stats.w_data_bytes > 0);
            check "delivered bytes" true (w.Net.Net_stats.w_delivered_bytes > 0))
          [
            sweep (module Eba.Floodset) ~n:16 ~t:5 ~mode:Eba.Params.Crash ~loss:0.1
              ~partitions:0 ~seed:42;
            sweep (module Eba.P0opt) ~n:8 ~t:2 ~mode:Eba.Params.Omission ~loss:0.02
              ~partitions:1 ~seed:43;
          ]);
    test "text summary: a lossy const-latency sweep's mean copy latency is the constant"
      (fun () ->
        (* the drop counters count lost acks too; the mean must divide by
           the copies whose latency was recorded *)
        let topology =
          Net.Topology.make ~n:8
            ~link:(Net.Link.make ~latency:(Net.Link.Const 1.25) ~loss:0.2)
        in
        let s =
          Net.Netsim.sweep ~jobs:1
            (module Eba.Floodset)
            (Eba.Params.make ~n:8 ~t:2 ~horizon:3 ~mode:Eba.Params.Crash)
            ~sync:(Net.Sync.make ~round_duration:20.0 ~rto:2.5 ~max_retries:7)
            ~topology
            ~dynamic:(Net.Inject.dynamic ~max_faulty:2 ())
            ~seed:2 ~runs:40
        in
        check "copies were lost" true
          (s.Net.Net_stats.ns_wire.Net.Net_stats.w_dropped_loss > 0);
        let text = Format.asprintf "%a" Net.Net_stats.pp s in
        let line = "copy latency: mean 1.25 s, max 1.25 s" in
        check line true
          (List.mem line (List.map String.trim (String.split_on_char '\n' text))));
  ]

let tests =
  eq_tests @ link_tests @ differential_tests @ determinism_tests
  @ acceptance_tests @ cancel_tests @ lossy_sweep_tests

let suite = ("netsim", tests)
