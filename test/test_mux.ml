(* The simulation engine's load-bearing property: the timer wheel,
   batched delivery and the engine recycled across runs are invisible.
   Per-run outcomes — decisions, decision instants, wire counters,
   rng-driven drop/latency draws — are bit-identical to the reference
   engine (Netsim_ref, a plain event heap with every event its own cell)
   run with the same (seed, run) generators, across every operational
   protocol and its compact variants, on both the batched
   (constant-latency) and heap (randomized-latency, zero-latency) paths,
   at synchronizer timings on and off the binary grid, and independent
   of the parallel job count.

   Plus the component regressions: event-queue push/take order pinned
   across growth boundaries and clear, and against the reference heap
   (Event_queue_ref) deep into ties; timer-wheel slot semantics; the
   engine's refusals at create; the mux.* metrics counters (only a
   constant-latency link batches); the decision-round quantiles feeding
   the p99 headline number; and the engine's allocation per event. *)

module Net = Eba.Net
module EQ = Net.Event_queue
module TW = Net.Timer_wheel
module Metrics = Eba.Metrics
open Helpers

let all_protocols : (string * (module Eba.Protocol_intf.PROTOCOL)) list =
  [
    ("P0", (module Eba.P0.P0));
    ("P0opt", (module Eba.P0opt));
    ("P0opt+", (module Eba.P0opt_plus));
    ("FloodSet", (module Eba.Floodset));
    ("Chain0", (module Eba.Chain0));
    ("P0opt-delta", (module Eba.P0opt.Compact));
    ("P0opt+delta", (module Eba.P0opt_plus.Compact));
    ("Chain0-cert", (module Eba.Chain0.Compact));
  ]

(* --- event queue: growth boundaries, clear --- *)

let eq_growth_tests =
  [
    test "push/take order pinned across growth boundaries" (fun () ->
        (* interleave duplicate and descending times so every growth
           boundary (16, 32, 64, 128) happens mid-tie; stable (time,
           seqno) order must survive the reallocation *)
        let q = EQ.create () in
        let items = List.init 200 (fun i -> (float_of_int ((i * 7) mod 13), i)) in
        (* payload i stands for item i *)
        List.iter (fun (t, i) -> EQ.push q ~time:t i) items;
        let expected =
          List.stable_sort (fun (t1, _) (t2, _) -> compare t1 t2) items
        in
        let by_index = Array.of_list items in
        check "stable across growth" true
          (List.map (fun i -> by_index.(i)) (drain_events q) = expected));
    test "clear rewinds the shared sequence counter" (fun () ->
        let q = EQ.create () in
        EQ.push q ~time:1.0 0;
        ignore (EQ.alloc_seq q);
        EQ.clear q;
        check_int "seq restarts" 0 (EQ.alloc_seq q);
        check "emptied" true (EQ.is_empty q));
    test "the top's fields agree with take" (fun () ->
        (* payloads are indices into [names] *)
        let names = [| "b"; "a" |] in
        let q = EQ.create () in
        EQ.push q ~time:2.0 0;
        EQ.push q ~time:1.0 1;
        check_int "two scheduled" 2 q.EQ.eq_len;
        check "top time" true (q.EQ.eq_times.(0) = 1.0);
        check_int "top seq" 1 q.EQ.eq_seqs.(0);
        Alcotest.(check string) "take the top" "a" names.(EQ.take q);
        check "next time" true (q.EQ.eq_times.(0) = 2.0);
        check_int "next seq" 0 q.EQ.eq_seqs.(0);
        Alcotest.(check string) "take the next" "b" names.(EQ.take q);
        check "empty" true (EQ.is_empty q));
  ]

(* --- timer wheel --- *)

(* the cursor slot's head as (time, seqno), read in place the way Mux's
   merge loop reads it; None when the cursor slot is drained *)
let wheel_head w =
  let c = w.TW.tw_cursor in
  if c < Array.length w.TW.tw_times && w.TW.tw_next.(c) < w.TW.tw_len.(c) then
    Some (w.TW.tw_times.(c), w.TW.tw_seqs.(c).(w.TW.tw_next.(c)))
  else None

let wheel_tests =
  [
    test "create validates the tick schedule" (fun () ->
        List.iter
          (fun times ->
            check "reject" true
              (try
                 ignore (TW.create ~times);
                 false
               with Invalid_argument _ -> true))
          [ [| 1.0; 1.0 |]; [| 2.0; 1.0 |]; [| -1.0 |]; [| Float.nan |] ]);
    test "slots drain in append order and merge keys are exact" (fun () ->
        (* payloads are indices into [names] *)
        let names = [| "a"; "b"; "late" |] in
        let w = TW.create ~times:[| 0.0; 1.5; 3.0 |] in
        check_int "exact hit" 1 (TW.index_of_time w 1.5);
        check_int "miss" (-1) (TW.index_of_time w 1.4999);
        TW.schedule w ~tick:1 ~seq:7 0;
        TW.schedule w ~tick:1 ~seq:9 1;
        check "cursor slot empty" true (wheel_head w = None);
        TW.advance w;
        check "head" true (wheel_head w = Some (1.5, 7));
        Alcotest.(check string) "take order" "a" names.(TW.take w);
        Alcotest.(check string) "take order" "b" names.(TW.take w);
        check "drained" true (wheel_head w = None);
        check "advance requires drained" true
          (try
             TW.schedule w ~tick:0 ~seq:1 2;
             false
           with Invalid_argument _ -> true);
        TW.advance w;
        TW.advance w;
        check_int "exhausted" 3 w.TW.tw_cursor);
    test "reset rewinds and keeps capacity" (fun () ->
        let w = TW.create ~times:[| 0.0; 1.0 |] in
        for i = 0 to 20 do
          TW.schedule w ~tick:1 ~seq:i i
        done;
        TW.reset w;
        check_int "rewound" 0 w.TW.tw_cursor;
        TW.advance w;
        check "slots emptied" true (wheel_head w = None));
  ]

(* --- per-run bit-identity against the reference engine --- *)

let crash_params ~n ~t = Eba.Params.make ~n ~t ~horizon:(t + 1) ~mode:Eba.Params.Crash

(* one engine recycled over [runs] sweep runs, each compared with the
   reference engine's run of the same (seed, run) generator *)
let mux_matches (module P : Eba.Protocol_intf.PROTOCOL) params ?sync ~topology
    ~dynamic ~seed ~runs () =
  let sync =
    match sync with Some s -> s | None -> Net.Sync.default_for topology
  in
  let plan = Net.Inject.Dynamic dynamic in
  let module S = Netsim_ref.Make (P) in
  let module M = Net.Mux.Make (P) in
  let eng = M.create params ~sync ~topology ~plan in
  for run = 0 to runs - 1 do
    let rng = Net.Netsim.run_seed ~seed ~run in
    let config = Netsim_ref.random_config ~n:params.Eba.Params.n rng in
    let o = M.run_one eng ~rng config in
    if compare (S.sweep_run params ~sync ~topology ~plan ~seed run) o <> 0 then
      Alcotest.failf "run %d: mux outcome differs from the reference" run
  done

let const_topology ~n ~loss =
  Net.Topology.make ~n ~link:(Net.Link.make ~latency:(Net.Link.Const 1.0) ~loss)

let uniform_topology ~n ~loss =
  Net.Topology.make ~n
    ~link:(Net.Link.make ~latency:(Net.Link.Uniform (0.2, 1.0)) ~loss)

let identity_tests =
  List.concat_map
    (fun (name, p) ->
      let params = crash_params ~n:6 ~t:2 in
      [
        test
          (Printf.sprintf "%s: mux = sequential, const latency (batched path)" name)
          (mux_matches p params
             ~topology:(const_topology ~n:6 ~loss:0.1)
             ~dynamic:(Net.Inject.dynamic ~max_faulty:2 ())
             ~seed:42 ~runs:7);
        test
          (Printf.sprintf "%s: mux = sequential, uniform latency (heap path)" name)
          (mux_matches p params
             ~topology:(uniform_topology ~n:6 ~loss:0.1)
             ~dynamic:(Net.Inject.dynamic ~max_faulty:2 ())
             ~seed:1729 ~runs:7);
      ])
    all_protocols

let corner_tests =
  [
    qtest ~count:12
      "qcheck: mux = sequential per run, any protocol, fabric and seed"
      QCheck2.Gen.(
        triple (int_bound (List.length all_protocols - 1)) (int_bound 10_000) bool)
      (fun (which, seed, batched) ->
        let topology =
          if batched then const_topology ~n:5 ~loss:0.1
          else uniform_topology ~n:5 ~loss:0.1
        in
        mux_matches
          (snd (List.nth all_protocols which))
          (crash_params ~n:5 ~t:2) ~topology
          ~dynamic:(Net.Inject.dynamic ~max_faulty:2 ())
          ~seed ~runs:6 ();
        true);
    test "tie corner: rto = link latency, deliveries land exactly on ticks"
      (* every arrival instant is also a retry tick, so nothing batches
         and the wheel-vs-heap merge resolves every collision by seqno *)
      (mux_matches
         (module Eba.Floodset)
         (crash_params ~n:5 ~t:2)
         ~sync:(Net.Sync.make ~round_duration:8.0 ~rto:1.0 ~max_retries:7)
         ~topology:(const_topology ~n:5 ~loss:0.3)
         ~dynamic:(Net.Inject.dynamic ~max_faulty:2 ())
         ~seed:7 ~runs:6);
    test "tie corner: rto = 2 x link latency, acks land on ticks armed before them"
      (fun () ->
        (* a copy sent at a boundary or a retry tick is acknowledged at
           exactly the next retry tick, whose timer was armed before the
           ack was sent: the timer's smaller seqno wins the tie, so it
           retransmits *)
        List.iter
          (fun mode ->
            mux_matches
              (module Eba.Floodset)
              (Eba.Params.make ~n:8 ~t:2 ~horizon:3 ~mode)
              ~sync:(Net.Sync.make ~round_duration:20.0 ~rto:2.5 ~max_retries:7)
              ~topology:
                (Net.Topology.make ~n:8
                   ~link:(Net.Link.make ~latency:(Net.Link.Const 1.25) ~loss:0.2))
              ~dynamic:(Net.Inject.dynamic ~max_faulty:2 ())
              ~seed:2 ~runs:40 ())
          [ Eba.Params.Crash; Eba.Params.Omission ]);
    test "zero-latency links: arrival = now falls back to the heap"
      (mux_matches
         (module Eba.Floodset)
         (crash_params ~n:4 ~t:1)
         ~sync:(Net.Sync.make ~round_duration:4.0 ~rto:1.0 ~max_retries:3)
         ~topology:
           (Net.Topology.make ~n:4
              ~link:(Net.Link.make ~latency:(Net.Link.Const 0.0) ~loss:0.2))
         ~dynamic:(Net.Inject.dynamic ~max_faulty:1 ())
         ~seed:11 ~runs:5);
    test "omissions and partitions under mux"
      (mux_matches
         (module Eba.Floodset)
         (Eba.Params.make ~n:6 ~t:2 ~horizon:3 ~mode:Eba.Params.Omission)
         ~topology:(const_topology ~n:6 ~loss:0.0)
         ~dynamic:
           (Net.Inject.dynamic ~max_faulty:2 ~omit_prob:0.3 ~partitions:2
              ~partition_span:2.0 ())
         ~seed:99 ~runs:8);
    test "create refuses a fabric of another width or a bound past the window"
      (fun () ->
        let module M = Net.Mux.Make (Eba.Floodset) in
        let params = crash_params ~n:4 ~t:1 in
        let plan = Net.Inject.Dynamic (Net.Inject.dynamic ~max_faulty:1 ()) in
        let sync = Net.Sync.make ~round_duration:4.0 ~rto:1.0 ~max_retries:3 in
        let refused topology =
          try
            ignore (M.create params ~sync ~topology ~plan);
            false
          with Invalid_argument _ -> true
        in
        check "n = 3 fabric" true (refused (const_topology ~n:3 ~loss:0.0));
        check "n = 5 fabric" true (refused (const_topology ~n:5 ~loss:0.0));
        check "latency 5 in a window of 4" true
          (refused
             (Net.Topology.make ~n:4
                ~link:(Net.Link.make ~latency:(Net.Link.Const 5.0) ~loss:0.0)));
        check "a fitting fabric is accepted" false
          (refused (const_topology ~n:4 ~loss:0.0)));
    test "a recycled engine = a fresh engine per run, over every configuration"
      (fun () ->
        (* the caller's configuration, not a drawn one, seats the run:
           every n = 4 configuration in turn on one engine, each against
           the reference and the fresh engine [Netsim.Make.run_one]
           builds *)
        let module P = Eba.Chain0 in
        let module S = Netsim_ref.Make (P) in
        let module M = Net.Mux.Make (P) in
        let module F = Net.Netsim.Make (P) in
        let params = crash_params ~n:4 ~t:1 in
        let topology = uniform_topology ~n:4 ~loss:0.05 in
        let sync = Net.Sync.default_for topology in
        let plan = Net.Inject.Dynamic (Net.Inject.dynamic ~max_faulty:1 ()) in
        let eng = M.create params ~sync ~topology ~plan in
        for bits = 0 to 15 do
          let config = Eba.Config.of_bits ~n:4 bits in
          let rng () = Net.Netsim.run_seed ~seed:5 ~run:bits in
          let reference =
            S.run_one params ~sync ~topology ~plan ~rng:(rng ()) config
          in
          let fresh = F.run_one params ~sync ~topology ~plan ~rng:(rng ()) config in
          check "fresh = reference" true (compare reference fresh = 0);
          check "recycled = reference" true
            (compare reference (M.run_one eng ~rng:(rng ()) config) = 0)
        done);
  ]

(* --- sweep-level equality and jobs-independence --- *)

let sweep_of ~jobs ?mux ~seed ~runs ~n ~t topology =
  let params = crash_params ~n ~t in
  let sync = Net.Sync.default_for topology in
  Net.Netsim.sweep ~jobs ?mux
    (module Eba.Floodset)
    params ~sync ~topology
    ~dynamic:(Net.Inject.dynamic ~max_faulty:t ())
    ~seed ~runs

(* the same sweep on the reference engine, one run after another *)
let reference_sweep ~seed ~runs ~n ~t topology =
  let module S = Netsim_ref.Make (Eba.Floodset) in
  S.sweep (crash_params ~n ~t)
    ~sync:(Net.Sync.default_for topology)
    ~topology
    ~dynamic:(Net.Inject.dynamic ~max_faulty:t ())
    ~seed ~runs

let sweep_tests =
  [
    qtest ~count:6 "qcheck: sweep summary = reference sweep, jobs 1 and 4"
      QCheck2.Gen.(pair (int_bound 10_000) (int_range 1 3))
      (fun (seed, t) ->
        let topology = uniform_topology ~n:8 ~loss:0.1 in
        let s = reference_sweep ~seed ~runs:11 ~n:8 ~t topology in
        List.for_all
          (fun jobs ->
            compare s (sweep_of ~jobs ~seed ~runs:11 ~n:8 ~t topology) = 0)
          [ 1; 4 ]);
    test "batched path: sweep summary = reference at every mux value, jobs 1 and 4"
      (fun () ->
        let topology = const_topology ~n:8 ~loss:0.05 in
        let s = reference_sweep ~seed:2026 ~runs:10 ~n:8 ~t:2 topology in
        List.iter
          (fun jobs ->
            List.iter
              (fun mux ->
                check
                  (Printf.sprintf "jobs %d, mux %s" jobs
                     (match mux with None -> "off" | Some k -> string_of_int k))
                  true
                  (compare s
                     (sweep_of ~jobs ?mux ~seed:2026 ~runs:10 ~n:8 ~t:2 topology)
                  = 0))
              [ None; Some 1; Some 3; Some 64 ])
          [ 1; 4 ]);
  ]

(* --- off-grid synchronizer timings --- *)

(* Every retransmission timer rides the wheel: [Mux.arm] refuses an
   instant off the tick schedule.  Timeouts that are not binary fractions
   and windows that are no multiple of the timeout make the schedule's
   float sums differ from products, so the engine's fire instants hit the
   schedule only if both compute them the same way. *)
let gen_offgrid =
  let open QCheck2.Gen in
  let* rto = oneofl [ 0.1; 0.3; 1.0 /. 3.0; 3.14159 ] in
  let* k = int_range 1 12 in
  let* frac = float_range 0.05 0.95 in
  let round_duration = (float_of_int k +. frac) *. rto in
  let* retries = int_range 0 9 in
  let* latency =
    oneof
      [
        map (fun u -> Net.Link.Const (u *. round_duration)) (float_range 0.0 0.99);
        (* a multiple of the timeout: copies land on or next to retry ticks *)
        map (fun j -> Net.Link.Const (float_of_int j *. rto)) (int_range 0 k);
        map2
          (fun a b ->
            Net.Link.Uniform (Float.min a b *. round_duration, Float.max a b *. round_duration))
          (float_range 0.0 0.99) (float_range 0.0 0.99);
      ]
  in
  let* n = int_range 3 6 in
  let* t = int_range 1 (n - 2) in
  let* omission = bool in
  let* loss = float_range 0.0 0.4 in
  let+ seed = int_bound 10_000 in
  (rto, round_duration, retries, latency, n, t, omission, loss, seed)

let print_offgrid (rto, round_duration, retries, latency, n, t, omission, loss, seed) =
  Printf.sprintf "rto=%h window=%h retries=%d latency=%s n=%d t=%d %s loss=%g seed=%d" rto
    round_duration retries
    (Net.Link.latency_to_string latency)
    n t
    (if omission then "omission" else "crash")
    loss seed

let offgrid_tests =
  [
    qtest ~count:40 ~print:print_offgrid
      "qcheck: off-grid rto and round window, sweep = reference, no timer off the wheel"
      gen_offgrid
      (fun (rto, round_duration, retries, latency, n, t, omission, loss, seed) ->
        let params =
          Eba.Params.make ~n ~t ~horizon:(t + 1)
            ~mode:(if omission then Eba.Params.Omission else Eba.Params.Crash)
        in
        let topology = Net.Topology.make ~n ~link:(Net.Link.make ~latency ~loss) in
        let sync = Net.Sync.make ~round_duration ~rto ~max_retries:retries in
        Net.Sync.check sync topology;
        let dynamic = Net.Inject.dynamic ~max_faulty:t () in
        let module S = Netsim_ref.Make (Eba.Floodset) in
        compare
          (S.sweep params ~sync ~topology ~dynamic ~seed ~runs:4)
          (Net.Netsim.sweep ~jobs:1 (module Eba.Floodset) params ~sync ~topology ~dynamic
             ~seed ~runs:4)
        = 0);
  ]

(* --- decision-round quantiles (the p99 headline) --- *)

let quantile_tests =
  [
    test "decision-round histogram sums to decided and quantiles are monotone"
      (fun () ->
        let s =
          sweep_of ~jobs:1 ~seed:1 ~runs:12 ~n:8 ~t:3
            (uniform_topology ~n:8 ~loss:0.1)
        in
        let hist_sum = Array.fold_left ( + ) 0 s.Net.Net_stats.ns_round_hist in
        check_int "hist mass" s.Net.Net_stats.ns_decided_nonfaulty hist_sum;
        let q p = Net.Net_stats.quantile_decision_round s ~permille:p in
        check "monotone" true (q 500 <= q 990 && q 990 <= q 1000);
        check_int "p99 = permille 990" (q 990) (Net.Net_stats.p99_decision_round s);
        check "p99 within horizon" true (q 990 >= 1 && q 990 <= 4));
  ]

(* --- mux metrics --- *)

let metrics_tests =
  [
    test "mux.* counters fire and match across job counts" (fun () ->
        let was = Metrics.enabled () in
        Fun.protect
          ~finally:(fun () -> Metrics.set_enabled was)
          (fun () ->
            Metrics.set_enabled true;
            let run ~jobs =
              Metrics.reset ();
              ignore
                (sweep_of ~jobs ~seed:3 ~runs:10 ~n:8 ~t:2
                   (const_topology ~n:8 ~loss:0.05));
              Metrics.deterministic_counters ()
            in
            let c1 = run ~jobs:1 in
            let value name =
              match List.assoc_opt name c1 with Some v -> v | None -> 0
            in
            check "timer ticks" true (value "mux.timer_ticks" > 0);
            check "batched deliveries" true (value "mux.batched_deliveries" > 0);
            check "arena reuses" true (value "mux.arena_reuses" > 0);
            check_int "runs counted once" 10 (value "net.runs_simulated");
            check "jobs-independent" true (run ~jobs:4 = c1)));
    test "only a constant-latency link batches" (fun () ->
        let was = Metrics.enabled () in
        Fun.protect
          ~finally:(fun () -> Metrics.set_enabled was)
          (fun () ->
            Metrics.set_enabled true;
            let batched topology =
              Metrics.reset ();
              ignore (sweep_of ~jobs:1 ~seed:5 ~runs:8 ~n:8 ~t:2 topology);
              match
                List.assoc_opt "mux.batched_deliveries" (Metrics.deterministic_counters ())
              with
              | Some v -> v
              | None -> 0
            in
            check "const batches" true (batched (const_topology ~n:8 ~loss:0.05) > 0);
            check_int "uniform never does" 0 (batched (uniform_topology ~n:8 ~loss:0.05))));
    test "net.* counters equal the reference engine's"
      (fun () ->
        let was = Metrics.enabled () in
        Fun.protect
          ~finally:(fun () -> Metrics.set_enabled was)
          (fun () ->
            Metrics.set_enabled true;
            let net_counters f =
              Metrics.reset ();
              ignore (f ());
              List.filter
                (fun (name, _) -> String.starts_with ~prefix:"net." name)
                (Metrics.deterministic_counters ())
            in
            let topology = uniform_topology ~n:8 ~loss:0.1 in
            let reference =
              net_counters (fun () -> reference_sweep ~seed:4 ~runs:9 ~n:8 ~t:2 topology)
            in
            check "events counted" true
              (List.assoc_opt "net.events_processed" reference <> None);
            check "net.* totals" true
              (net_counters (fun () ->
                   sweep_of ~jobs:1 ~seed:4 ~runs:9 ~n:8 ~t:2 topology)
              = reference)));
  ]

(* --- the legacy wave size --- *)

let mux_arg_tests =
  [
    test "sweep refuses a mux value below 1" (fun () ->
        List.iter
          (fun mux ->
            check (Printf.sprintf "mux %d raises" mux) true
              (try
                 ignore
                   (sweep_of ~jobs:1 ~mux ~seed:1 ~runs:2 ~n:4 ~t:1
                      (const_topology ~n:4 ~loss:0.0));
                 false
               with Invalid_argument _ -> true))
          [ 0; -3 ]);
  ]

(* --- the heap against its reference, deep; the engine at n = 32 --- *)

module EQR = Event_queue_ref

(* One round of random pushes and takes on both heaps, growing to [peak]
   live events and draining back to [floor], every take checked against
   the reference's pop.  Times come from [ties] values, so thousands of
   events share an instant and only the seqno orders them; an occasional
   [alloc_seq] skips a seqno on both sides. *)
let heap_round rng q r ~ties ~peak ~floor ~next_id =
  let same what a b = if a <> b then Alcotest.failf "%s differs" what in
  let push () =
    let time = 0.25 *. float_of_int (Random.State.int rng ties) in
    EQ.push q ~time !next_id;
    EQR.push r ~time !next_id;
    incr next_id
  in
  let take () =
    match EQR.pop r with
    | None -> check "both empty" true (EQ.is_empty q)
    | Some (time, id) ->
        check "top time" true (q.EQ.eq_times.(0) = time);
        same "payload" (EQ.take q) id
  in
  let step ~push_share =
    let u = Random.State.float rng 1.0 in
    if u < 0.02 then same "alloc_seq" (EQ.alloc_seq q) (EQR.alloc_seq r)
    else if u < push_share then push ()
    else take ();
    same "size" q.EQ.eq_len r.EQR.len
  in
  while q.EQ.eq_len < peak do
    step ~push_share:0.75
  done;
  while q.EQ.eq_len > floor do
    step ~push_share:0.25
  done

let deep_tests =
  [
    qtest ~count:10
      "qcheck: the heap drains like the reference, tied times, 40,000+ live, across clear"
      QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 1 8) (int_range 1 2_000))
      (fun (seed, ties, small) ->
        let rng = Random.State.make [| seed |] in
        let q = EQ.create () and r = EQR.create () in
        let next_id = ref 0 in
        (* a small round left half full, cleared with events still live,
           then a deep one drained to empty on the recycled arrays *)
        heap_round rng q r ~ties ~peak:small ~floor:(small / 2) ~next_id;
        EQ.clear q;
        EQR.clear r;
        heap_round rng q r ~ties ~peak:(40_000 + small) ~floor:0 ~next_id;
        EQ.is_empty q && EQR.is_empty r);
    test "mux = sequential per run at n = 32, uniform lossy fabric" (fun () ->
        let params = crash_params ~n:32 ~t:4 in
        let topology = uniform_topology ~n:32 ~loss:0.1 in
        let dynamic = Net.Inject.dynamic ~max_faulty:4 () in
        mux_matches (module Eba.Floodset) params ~topology ~dynamic ~seed:3232
          ~runs:3 ();
        mux_matches (module Eba.P0opt.Compact) params ~topology ~dynamic ~seed:3233
          ~runs:2 ());
  ]

(* --- allocation per event --- *)

(* sim's uniform sweep: FloodSet n=16 t=5, uniform 0.2-1.0 latency, loss
   0.1, 20 runs, one domain *)
let uniform_sweep () =
  let module Spec = Eba.Server.Spec in
  let spec =
    {
      Spec.default with
      protocol = "floodset";
      n = 16;
      t_failures = 5;
      latency = Net.Link.Uniform (0.2, 1.0);
      loss = 0.1;
      seed = 22;
      runs = Some 20;
      jobs = Some 1;
    }
  in
  match Spec.resolve spec with
  | Ok r -> fun () -> ignore (Spec.run r)
  | Error m -> Alcotest.fail m

let alloc_tests =
  [
    test "a warm sweep allocates at most 13 minor words per event" (fun () ->
        let sweep = uniform_sweep () in
        (* the warm-up sweep counts the events; the measured one runs
           with the metrics layer off, as a plain sweep does *)
        let events =
          with_metrics (fun () ->
              sweep ();
              counter_value "net.events_processed")
        in
        let was = Metrics.enabled () in
        Metrics.set_enabled false;
        let words =
          Fun.protect
            ~finally:(fun () -> Metrics.set_enabled was)
            (fun () ->
              let w0 = Gc.minor_words () in
              sweep ();
              Gc.minor_words () -. w0)
        in
        check "events counted" true (events > 0);
        let per_event = words /. float_of_int events in
        if per_event > 13.0 then
          Alcotest.failf "%.1f minor words per event (%.0f words, %d events)"
            per_event words events);
  ]

let tests =
  eq_growth_tests @ wheel_tests @ identity_tests @ corner_tests @ sweep_tests
  @ offgrid_tests @ quantile_tests @ metrics_tests @ mux_arg_tests @ deep_tests @ alloc_tests

let suite = ("mux", tests)
