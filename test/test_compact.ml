(* Bounded-bandwidth protocol variants and the boundary-condition bugfix
   batch.

   1. Exhaustive differentials: each compact variant (P0opt-delta,
      P0opt+delta, Chain0-cert) decides identically — value AND round — to
      its full-information protocol on every run of the exhaustive crash
      and omission n=3 t=1 universes, with identical message presence and
      never more bytes on the wire.

   2. A qcheck property: delta-encoding followed by merge reconstructs the
      full known-vector state whatever subset of copies survives and in
      whatever order entries ride them.

   3. Netsim: replaying the exhaustive universes through the round
      synchronizer matches the lockstep runner for the compact variants
      too, with the delivered-bytes counters agreeing exactly; a lossy
      same-seed full-vs-compact sweep pair, at n=16 and at n=64 (two
      Procset.Wide limbs), has identical decision statistics, copies,
      retransmissions and acks, zero violations and strictly fewer data
      bytes; byte counters are bit-identical across --jobs.

   4. The attempt-count boundary: an exact-multiple window excludes the
      retry that would fire at the window's close.

   5. The Stats / Net_stats empty-mean convention: all-undecided sweeps
      summarize to finite means and RFC 8259-valid JSON.

   6. P0opt-delta's slot-set codec against the per-slot reference codec
      (P0opt_delta_ref): lockstep rounds under random delivery masks
      across the Word/Wide switch agree message by message, and netsim
      sweep summaries agree byte for byte.

   7. The same for P0opt+delta's shared-table codec against the
      entry-window reference codec (P0opt_plus_delta_ref), message sizes
      and decisions round by round, plus an allocation ratchet on its
      send. *)

module Net = Eba.Net
module Runner = Eba.Runner
module Val = Eba.Value
open Helpers

let pairs :
    (string
    * (module Eba.Protocol_intf.PROTOCOL)
    * (module Eba.Protocol_intf.PROTOCOL))
    list =
  [
    ("P0opt", (module Eba.P0opt), (module Eba.P0opt.Compact));
    ("P0opt+", (module Eba.P0opt_plus), (module Eba.P0opt_plus.Compact));
    ("Chain0", (module Eba.Chain0), (module Eba.Chain0.Compact));
  ]

(* --- exhaustive decision/time/byte differentials --- *)

let universe_bytes (module F : Eba.Protocol_intf.PROTOCOL)
    (module C : Eba.Protocol_intf.PROTOCOL) params =
  let module RF = Runner.Make (F) in
  let module RC = Runner.Make (C) in
  let full = ref 0 and compact = ref 0 and bad = ref [] in
  let blame fmt = Format.kasprintf (fun s -> bad := s :: !bad) fmt in
  Seq.iter
    (fun (config, pattern) ->
      let tf = RF.run params config pattern in
      let tc = RC.run params config pattern in
      for i = 0 to params.Eba.Params.n - 1 do
        let same =
          match (tf.Runner.decisions.(i), tc.Runner.decisions.(i)) with
          | None, None -> true
          | Some a, Some b ->
              a.Eba.Decision.at = b.Eba.Decision.at && Val.equal a.Eba.Decision.value b.Eba.Decision.value
          | None, Some _ | Some _, None -> false
        in
        if not same then
          blame "%a / %a proc %d: decisions differ" Eba.Config.pp config
            Eba.Pattern.pp pattern i
      done;
      if
        tf.Runner.messages_attempted <> tc.Runner.messages_attempted
        || tf.Runner.messages_delivered <> tc.Runner.messages_delivered
      then
        blame "%a / %a: message presence differs" Eba.Config.pp config
          Eba.Pattern.pp pattern;
      if tc.Runner.bytes_attempted > tf.Runner.bytes_attempted then
        blame "%a / %a: compact run costs %d bytes > full %d" Eba.Config.pp
          config Eba.Pattern.pp pattern tc.Runner.bytes_attempted
          tf.Runner.bytes_attempted;
      full := !full + tf.Runner.bytes_attempted;
      compact := !compact + tc.Runner.bytes_attempted)
    (Eba.Universe.workload_seq params);
  (!full, !compact, List.rev !bad)

let differential name f c ~strict params () =
  let full, compact, bad = universe_bytes f c params in
  (match bad with
  | [] -> ()
  | first :: _ ->
      Alcotest.failf "%s: %d differential entries disagree; first: %s" name
        (List.length bad) first);
  if strict then
    check
      (Printf.sprintf "compact bytes %d strictly under full %d" compact full)
      true (compact < full)
  else
    check
      (Printf.sprintf "compact bytes %d at most full %d" compact full)
      true (compact <= full)

let differential_tests =
  List.concat_map
    (fun (name, f, c) ->
      (* at n=3 a one-entry delta already costs the min-cap, so P0opt's
         savings only appear past the tiny universe; the strict inequality
         for it is pinned by the netsim pair test at n=16 below *)
      let strict = name <> "P0opt" in
      [
        test
          (Printf.sprintf "%s compact = full, exhaustive crash n=3 t=1" name)
          (differential name f c ~strict crash_3_1_3.params);
        test
          (Printf.sprintf "%s compact = full, exhaustive omission n=3 t=1" name)
          (differential name f c ~strict omission_3_1_3.params);
      ])
    pairs

let jobs_tests =
  List.map
    (fun (name, _, (module C : Eba.Protocol_intf.PROTOCOL)) ->
      test
        (Printf.sprintf "%s compact exhaustive summary identical for jobs=1/4"
           name) (fun () ->
          let s1 = Eba.Stats.exhaustive ~jobs:1 (module C) omission_3_1_3.params in
          let s4 = Eba.Stats.exhaustive ~jobs:4 (module C) omission_3_1_3.params in
          check "bit-identical (bytes included)" true (compare s1 s4 = 0)))
    pairs

(* --- qcheck: delta-encode then merge reconstructs the known vector --- *)

let reconstruction_tests =
  let n = 6 in
  let params = Eba.Params.make ~n ~t:1 ~horizon:3 ~mode:Eba.Params.Crash in
  [
    qtest ~count:300
      "qcheck: delta merge reconstructs known vector under loss/reorder"
      (* truth per slot 1..5; per-sender inclusion mask over those slots
         (bit 6 reverses the entry order); loss bitmap over senders *)
      QCheck2.Gen.(
        triple
          (array_size (return (n - 1)) (option bool))
          (array_size (return (n - 1)) (int_bound 127))
          (int_bound 31))
      (fun (truth, masks, lost) ->
        let value b = if b then Val.One else Val.Zero in
        let entries_of mask =
          let picked = ref [] in
          Array.iteri
            (fun i t ->
              match t with
              | Some b when mask land (1 lsl i) <> 0 ->
                  picked := (i + 1, value b) :: !picked
              | Some _ | None -> ())
            truth;
          if mask land 64 <> 0 then !picked else List.rev !picked
        in
        let inbox =
          Array.init n (fun j ->
              if j = 0 || lost land (1 lsl (j - 1)) <> 0 then None
              else
                Some (Eba.P0opt.Compact.message ~round:1 (entries_of masks.(j - 1))))
        in
        let st = Eba.P0opt.Compact.init params ~me:0 Val.One in
        let st = Eba.P0opt.Compact.receive params st ~round:1 inbox in
        let got = Eba.P0opt.Compact.known st in
        let arrived p =
          (* some sender both included slot p and was not lost *)
          let rec go j =
            j < n - 1
            && ((masks.(j) land (1 lsl (p - 1)) <> 0
                && lost land (1 lsl j) = 0)
               || go (j + 1))
          in
          go 0
        in
        let expected =
          Array.init n (fun p ->
              if p = 0 then Some Val.One
              else
                match truth.(p - 1) with
                | Some b when arrived p -> Some (value b)
                | Some _ | None -> None)
        in
        Array.for_all2
          (fun a b ->
            match (a, b) with
            | None, None -> true
            | Some x, Some y -> Val.equal x y
            | _ -> false)
          got expected);
  ]

(* --- netsim: replay differential and byte identities --- *)

let replay_bytes_agree name (module C : Eba.Protocol_intf.PROTOCOL) params () =
  let module R = Runner.Make (C) in
  let module S = Net.Netsim.Make (C) in
  let bad = ref [] in
  Seq.iter
    (fun (config, pattern) ->
      let lock = R.run params config pattern in
      let net = S.replay params pattern config in
      for i = 0 to params.Eba.Params.n - 1 do
        let same =
          match (lock.Runner.decisions.(i), net.Net.Net_stats.o_decisions.(i)) with
          | None, None -> true
          | Some a, Some b ->
              a.Eba.Decision.at = b.Eba.Decision.at && Val.equal a.Eba.Decision.value b.Eba.Decision.value
          | None, Some _ | Some _, None -> false
        in
        if not same then
          bad :=
            Format.asprintf "%a / %a proc %d: decisions differ" Eba.Config.pp
              config Eba.Pattern.pp pattern i
            :: !bad
      done;
      (* every fresh delivery carries its message's wire size, so the
         netsim delivered-bytes counter must equal the lockstep runner's
         exactly, pattern by pattern *)
      if
        net.Net.Net_stats.o_wire.Net.Net_stats.w_delivered_bytes
        <> lock.Runner.bytes_delivered
      then
        bad :=
          Format.asprintf "%a / %a: netsim delivered %d bytes vs runner %d"
            Eba.Config.pp config Eba.Pattern.pp pattern
            net.Net.Net_stats.o_wire.Net.Net_stats.w_delivered_bytes
            lock.Runner.bytes_delivered
          :: !bad)
    (Eba.Universe.workload_seq params);
  match !bad with
  | [] -> ()
  | first :: _ ->
      Alcotest.failf "%s: %d replay entries disagree; first: %s" name
        (List.length !bad) first

let pair_sweep for_params ~jobs ~n ~t ~mode ~seed ~runs =
  let params = Eba.Params.make ~n ~t ~horizon:(t + 1) ~mode in
  let topology =
    Net.Topology.make ~n
      ~link:(Net.Link.make ~latency:(Net.Link.Uniform (0.2, 1.0)) ~loss:0.05)
  in
  let sync = Net.Sync.default_for topology in
  Net.Netsim.sweep ~jobs (for_params params) params ~sync ~topology
    ~dynamic:(Net.Inject.dynamic ~max_faulty:t ())
    ~seed ~runs

(* [for_params] picks each protocol's set representation, so at n = 64
   both sides of a pair run on two-limb [Procset.Wide] sets *)
let lossy_pair name f c ~mode ~n ~runs () =
  let sweep for_params ~jobs = pair_sweep for_params ~jobs ~n ~t:4 ~mode ~seed:99 ~runs in
  let sf = sweep f ~jobs:1 in
  let sc = sweep c ~jobs:1 in
  (* message presence is identical, so the two sweeps replay the same
     event schedule from the same seed: every decision statistic and
     every copy count must agree exactly; only the byte totals differ *)
  let eq what a b = check_int (name ^ " " ^ what) a b in
  eq "runs" sf.Net.Net_stats.ns_runs sc.Net.Net_stats.ns_runs;
  eq "agreement" sf.Net.Net_stats.ns_agreement_violations
    sc.Net.Net_stats.ns_agreement_violations;
  eq "validity" sf.Net.Net_stats.ns_validity_violations
    sc.Net.Net_stats.ns_validity_violations;
  eq "undecided" sf.Net.Net_stats.ns_undecided_nonfaulty
    sc.Net.Net_stats.ns_undecided_nonfaulty;
  eq "decided" sf.Net.Net_stats.ns_decided_nonfaulty
    sc.Net.Net_stats.ns_decided_nonfaulty;
  eq "round sum" sf.Net.Net_stats.ns_decision_round_sum
    sc.Net.Net_stats.ns_decision_round_sum;
  eq "max round" sf.Net.Net_stats.ns_max_decision_round
    sc.Net.Net_stats.ns_max_decision_round;
  eq "ns sum" sf.Net.Net_stats.ns_decision_ns_sum
    sc.Net.Net_stats.ns_decision_ns_sum;
  eq "attempted" sf.Net.Net_stats.ns_attempted sc.Net.Net_stats.ns_attempted;
  eq "delivered" sf.Net.Net_stats.ns_delivered sc.Net.Net_stats.ns_delivered;
  eq "copies" sf.Net.Net_stats.ns_wire.Net.Net_stats.w_copies
    sc.Net.Net_stats.ns_wire.Net.Net_stats.w_copies;
  eq "retransmissions" sf.Net.Net_stats.ns_wire.Net.Net_stats.w_retransmissions
    sc.Net.Net_stats.ns_wire.Net.Net_stats.w_retransmissions;
  eq "acks" sf.Net.Net_stats.ns_wire.Net.Net_stats.w_acks
    sc.Net.Net_stats.ns_wire.Net.Net_stats.w_acks;
  eq "ack bytes" sf.Net.Net_stats.ns_wire.Net.Net_stats.w_ack_bytes
    sc.Net.Net_stats.ns_wire.Net.Net_stats.w_ack_bytes;
  check_int (name ^ " zero violations") 0
    (sf.Net.Net_stats.ns_agreement_violations
    + sf.Net.Net_stats.ns_validity_violations);
  check_int (name ^ " every nonfaulty processor decided") 0
    sf.Net.Net_stats.ns_undecided_nonfaulty;
  check (name ^ " some nonfaulty processor decided") true
    (sf.Net.Net_stats.ns_decided_nonfaulty > 0);
  check
    (Printf.sprintf "%s compact data bytes %d strictly under full %d" name
       sc.Net.Net_stats.ns_wire.Net.Net_stats.w_data_bytes
       sf.Net.Net_stats.ns_wire.Net.Net_stats.w_data_bytes)
    true
    (sc.Net.Net_stats.ns_wire.Net.Net_stats.w_data_bytes
    < sf.Net.Net_stats.ns_wire.Net.Net_stats.w_data_bytes);
  (* and the byte counters obey the same determinism discipline as every
     other accumulator: bit-identical across --jobs *)
  let sc4 = sweep c ~jobs:4 in
  check (name ^ " compact sweep bit-identical for jobs=1/4") true
    (compare sc sc4 = 0)

let netsim_tests =
  List.concat_map
    (fun (name, _, c) ->
      [
        test
          (Printf.sprintf
             "%s compact netsim replay = Runner + bytes, crash n=3 t=1" name)
          (replay_bytes_agree name c crash_3_1_3.params);
        test
          (Printf.sprintf
             "%s compact netsim replay = Runner + bytes, omission n=3 t=1" name)
          (replay_bytes_agree name c omission_3_1_3.params);
      ])
    pairs
  @ [
      slow "P0opt vs P0opt-delta lossy sweep: same decisions, fewer bytes"
        (lossy_pair "P0opt" Eba.P0opt.for_params Eba.P0opt.Compact.for_params
           ~mode:Eba.Params.Crash ~n:16 ~runs:6);
      slow "P0opt+ vs P0opt+delta lossy sweep: same decisions, fewer bytes"
        (lossy_pair "P0opt+" Eba.P0opt_plus.for_params
           Eba.P0opt_plus.Compact.for_params ~mode:Eba.Params.Crash ~n:16 ~runs:6);
      slow "Chain0 vs Chain0-cert lossy sweep: same decisions, fewer bytes"
        (lossy_pair "Chain0" Eba.Chain0.for_params Eba.Chain0.Compact.for_params
           ~mode:Eba.Params.Omission ~n:16 ~runs:6);
    ]

(* the same pairs past one word *)
let wide_pair_tests =
  [
    slow "P0opt vs P0opt-delta lossy sweep at n=64: same decisions, fewer bytes"
      (lossy_pair "P0opt" Eba.P0opt.for_params Eba.P0opt.Compact.for_params
         ~mode:Eba.Params.Crash ~n:64 ~runs:2);
    slow "P0opt+ vs P0opt+delta lossy sweep at n=64: same decisions, fewer bytes"
      (lossy_pair "P0opt+" Eba.P0opt_plus.for_params
         Eba.P0opt_plus.Compact.for_params ~mode:Eba.Params.Crash ~n:64 ~runs:2);
    slow "Chain0 vs Chain0-cert lossy sweep at n=64: same decisions, fewer bytes"
      (lossy_pair "Chain0" Eba.Chain0.for_params Eba.Chain0.Compact.for_params
         ~mode:Eba.Params.Omission ~n:64 ~runs:2);
  ]

(* --- the attempt-count boundary --- *)

let sync_tests =
  let attempts ~d ~rto ~retries =
    Array.length
      (Net.Sync.attempt_times (Net.Sync.make ~round_duration:d ~rto ~max_retries:retries))
  in
  [
    test "attempts: exact-multiple window excludes the boundary retry" (fun () ->
        (* retries would fire at 1,2,3,4 — but 4.0 is the window close, and
           a copy launched there is dead on arrival *)
        check_int "D=4 rto=1" 4 (attempts ~d:4.0 ~rto:1.0 ~retries:7);
        (* the instants are repeated additions of rto, as the event loop
           makes them: ten of 0.1 reach 0.99999999999999989, strictly
           inside a window of 1.0, so its boundary retry fits *)
        check_int "D=1 rto=0.1" 11 (attempts ~d:1.0 ~rto:0.1 ~retries:20));
    test "attempts: a fractional window keeps the last interior retry" (fun () ->
        check_int "D=4.5 rto=1" 5 (attempts ~d:4.5 ~rto:1.0 ~retries:7));
    test "attempts: the retry budget still caps the count" (fun () ->
        check_int "retries=2" 3 (attempts ~d:4.0 ~rto:1.0 ~retries:2));
    test "attempts: window of one rto means a single transmission" (fun () ->
        check_int "D=rto" 1 (attempts ~d:1.0 ~rto:1.0 ~retries:7));
    test "attempts: the default timing is unchanged at 8" (fun () ->
        (* default: window 8 rto, 7 retries at 1..7 rto, all interior *)
        check_int "default" 8
          (Array.length
             (Net.Sync.attempt_times
                (Net.Sync.default_for (Net.Netsim.lossless_topology ~n:3)))));
  ]

(* --- all-undecided summaries stay finite and JSON-valid --- *)

module Never : Eba.Protocol_intf.PROTOCOL = struct
  let name = "NeverTest"

  type state = unit
  type msg = unit

  let init _ ~me:_ _ = ()
  let send (params : Eba.Params.t) () ~round:_ = Array.make params.Eba.Params.n None
  let receive _ () ~round:_ _ = ()
  let output () = None
  let wire_size _ () = Eba.Protocol_intf.Wire.header
end

let json_is_finite s =
  let lowered = String.lowercase_ascii s in
  let contains needle =
    let nl = String.length needle and l = String.length lowered in
    let rec at i = i + nl <= l && (String.sub lowered i nl = needle || at (i + 1)) in
    at 0
  in
  (not (contains "nan")) && not (contains "inf")

let empty_mean_tests =
  [
    test "all-undecided Stats summary: means are 0.0, JSON finite" (fun () ->
        let s = Eba.Stats.exhaustive ~jobs:1 (module Never) crash_3_1_3.params in
        check "undecided everywhere" true (s.Eba.Stats.tally.undecided_nonfaulty > 0);
        check "mean_time is exactly 0.0" true (Eba.Decision.mean_round s.Eba.Stats.tally = 0.0);
        List.iter
          (fun (_, row) ->
            check "per-failure mean finite" true (Float.is_finite (Eba.Decision.mean_round row)))
          s.Eba.Stats.by_failures;
        let json = Eba.Json.to_string (Eba.Stats.summary_json s) in
        check "JSON has no NaN/Inf tokens" true (json_is_finite json));
    test "empty Net_stats summary: means are 0.0, JSON finite" (fun () ->
        let s =
          Net.Net_stats.summary_of_state ~protocol:"none" ~params:"-" ~seed:0
            ~plan:"-" ~topology:"-" ~sync:"-"
            (Net.Net_stats.fresh_state ())
        in
        check "round mean" true (s.Net.Net_stats.ns_mean_decision_round = 0.0);
        check "ns mean" true (s.Net.Net_stats.ns_mean_decision_ns = 0.0);
        let json = Eba.Json.to_string (Net.Net_stats.summary_json s) in
        check "JSON has no NaN/Inf tokens" true (json_is_finite json));
  ]

(* --- the slot-set codec against the per-slot reference codec --- *)

module Ref = P0opt_delta_ref

(* the library's codec and the reference at the representation
   [for_params] picks for n *)
let codecs n : (module Eba.P0opt.COMPACT) * (module Eba.P0opt.COMPACT) =
  if n <= Eba.Bitset.max_width then ((module Eba.P0opt.Compact.Word), (module Ref.Word))
  else ((module Eba.P0opt.Compact.Wide), (module Ref.Wide))

let delta_protocols n :
    (module Eba.Protocol_intf.PROTOCOL) * (module Eba.Protocol_intf.PROTOCOL) =
  let (module C), (module R) = codecs n in
  ((module C), (module R))

(* Lockstep rounds of every processor under a codec [C] and its
   reference [R], each message delivered or not by a seeded per-message
   mask: every message's presence and size, every decision, and what
   [same_msg] / [same_state] compare must agree round by round. *)
module Lockstep (C : Eba.Protocol_intf.PROTOCOL) (R : Eba.Protocol_intf.PROTOCOL) = struct
  let agrees ~same_msg ~same_state ~n ~horizon ~seed =
    let rng = Random.State.make [| seed |] in
    let params = Eba.Params.make ~n ~t:1 ~horizon ~mode:Eba.Params.Crash in
    let zeros = Random.State.bool rng in
    let values =
      Array.init n (fun _ ->
          if zeros && Random.State.int rng 8 = 0 then Val.Zero else Val.One)
    in
    let loss = Random.State.float rng 0.6 in
    let cs = Array.init n (fun me -> C.init params ~me values.(me)) in
    let rs = Array.init n (fun me -> R.init params ~me values.(me)) in
    let ok = ref true in
    for round = 1 to horizon do
      let cout = Array.map (fun st -> C.send params st ~round) cs in
      let rout = Array.map (fun st -> R.send params st ~round) rs in
      for i = 0 to n - 1 do
        for d = 0 to n - 1 do
          if d <> i then
            match (cout.(i).(d), rout.(i).(d)) with
            | Some c, Some r ->
                if
                  (not (same_msg c r))
                  || C.wire_size params c <> R.wire_size params r
                then ok := false
            | None, None -> ()
            | Some _, None | None, Some _ -> ok := false
        done
      done;
      let delivered =
        Array.init n (fun _ -> Array.init n (fun _ -> Random.State.float rng 1.0 >= loss))
      in
      let inbox out d =
        Array.init n (fun j -> if j <> d && delivered.(j).(d) then out.(j).(d) else None)
      in
      Array.iteri (fun d st -> cs.(d) <- C.receive params st ~round (inbox cout d)) cs;
      Array.iteri (fun d st -> rs.(d) <- R.receive params st ~round (inbox rout d)) rs;
      Array.iteri
        (fun d c ->
          if
            (not (same_state c rs.(d)))
            || not (Option.equal Val.equal (C.output c) (R.output rs.(d)))
          then ok := false)
        cs
    done;
    !ok
end

(* three rounds; entries and known vectors agree too *)
let lockstep_agrees ~n ~seed =
  let (module C), (module R) = codecs n in
  let module L = Lockstep (C) (R) in
  L.agrees ~n ~horizon:3 ~seed
    ~same_msg:(fun c r -> C.entries c = R.entries r)
    ~same_state:(fun c r ->
      Array.for_all2 (Option.equal Val.equal) (C.known c) (R.known r))

let sweep_matches_ref codecs ~n ~t ~mode ~runs () =
  let c, r = codecs n in
  let sweep p = pair_sweep (fun _ -> p) ~jobs:1 ~n ~t ~mode ~seed:17 ~runs in
  let got = sweep c in
  let want = sweep r in
  let json s = Eba.Json.to_string (Net.Net_stats.summary_json s) in
  Alcotest.(check string) "summary JSON" (json want) (json got);
  check "summary identical, delivered bytes included" true (compare got want = 0)

(* a hand-built delta may name slots no processor has; the merge ignores
   them and they never ride a later delta *)
let stray_slots_ignored () =
  let n = 6 in
  let params = Eba.Params.make ~n ~t:1 ~horizon:3 ~mode:Eba.Params.Crash in
  let run (module C : Eba.P0opt.COMPACT) =
    let m =
      C.message ~round:1 [ (-1, Val.Zero); (2, Val.One); (6, Val.Zero); (100, Val.Zero) ]
    in
    let inbox = Array.init n (fun j -> if j = 1 then Some m else None) in
    let st = C.receive params (C.init params ~me:0 Val.One) ~round:1 inbox in
    (C.known st, C.output st, Array.map (Option.map C.entries) (C.send params st ~round:2))
  in
  let want = run (module Ref.Word) in
  check "Word: as the reference" true (run (module Eba.P0opt.Compact.Word) = want);
  check "Wide: as the reference" true (run (module Eba.P0opt.Compact.Wide) = want)

let ref_codec_tests =
  [
    qtest ~count:40 "qcheck: slot-set codec = per-slot reference, lockstep rounds"
      QCheck2.Gen.(pair (oneof [ int_range 3 8; int_range 60 70 ]) nat)
      (fun (n, seed) -> lockstep_agrees ~n ~seed);
    test "hand-built delta: slots outside 0..n-1 are ignored, as by the reference"
      stray_slots_ignored;
    test "P0opt-delta sweep = reference codec, crash n=6"
      (sweep_matches_ref delta_protocols ~n:6 ~t:2 ~mode:Eba.Params.Crash ~runs:20);
    test "P0opt-delta sweep = reference codec, omission n=6"
      (sweep_matches_ref delta_protocols ~n:6 ~t:2 ~mode:Eba.Params.Omission ~runs:20);
    slow "P0opt-delta sweep = reference codec, crash n=70"
      (sweep_matches_ref delta_protocols ~n:70 ~t:4 ~mode:Eba.Params.Crash ~runs:2);
    slow "P0opt-delta sweep = reference codec, omission n=70"
      (sweep_matches_ref delta_protocols ~n:70 ~t:4 ~mode:Eba.Params.Omission ~runs:2);
  ]

(* --- P0opt+delta's shared-table codec against the entry-window
   reference codec --- *)

module Plus_ref = P0opt_plus_delta_ref

let plus_codecs n :
    (module Eba.Protocol_intf.PROTOCOL) * (module Eba.Protocol_intf.PROTOCOL) =
  if n <= Eba.Bitset.max_width then
    ((module Eba.P0opt_plus.Compact.Word), (module Plus_ref.Word))
  else ((module Eba.P0opt_plus.Compact.Wide), (module Plus_ref.Wide))

(* four rounds, so rows grow past their first windows *)
let plus_lockstep_agrees ~n ~seed =
  let module C = (val fst (plus_codecs n)) in
  let module R = (val snd (plus_codecs n)) in
  let module L = Lockstep (C) (R) in
  L.agrees ~n ~horizon:4 ~seed
    ~same_msg:(fun _ _ -> true)
    ~same_state:(fun _ _ -> true)

(* A send shares the sender's table and its coverage rows: one record and
   one option per destination (6 words).  At n = 128, with every row two
   rounds long, the entry-window reference allocates 1,407 words per
   destination: an entry record, a list cell and a window copy per row. *)
let plus_send_allocation () =
  let n = 128 in
  let params = Eba.Params.make ~n ~t:16 ~horizon:4 ~mode:Eba.Params.Crash in
  let module C = (val Eba.P0opt_plus.Compact.for_params params) in
  let sts = Array.init n (fun me -> C.init params ~me Val.One) in
  for round = 1 to 2 do
    let out = Array.map (fun st -> C.send params st ~round) sts in
    Array.iteri
      (fun d st ->
        sts.(d) <- C.receive params st ~round (Array.init n (fun j -> out.(j).(d))))
      sts
  done;
  let before = Gc.minor_words () in
  let out = C.send params sts.(0) ~round:3 in
  let per_dest = (Gc.minor_words () -. before) /. float_of_int (n - 1) in
  check_int "one message per destination" (n - 1)
    (Array.fold_left (fun k m -> if Option.is_some m then k + 1 else k) 0 out);
  check (Printf.sprintf "%.1f minor words per destination, at most 8" per_dest) true
    (per_dest <= 8.0)

let plus_ref_codec_tests =
  [
    qtest ~count:40
      "qcheck: P0opt+delta shared table = entry-window reference, lockstep rounds"
      QCheck2.Gen.(pair (oneof [ int_range 3 8; int_range 60 70 ]) nat)
      (fun (n, seed) -> plus_lockstep_agrees ~n ~seed);
    test "P0opt+delta sweep = reference codec, crash n=6"
      (sweep_matches_ref plus_codecs ~n:6 ~t:2 ~mode:Eba.Params.Crash ~runs:20);
    slow "P0opt+delta sweep = reference codec, crash n=70"
      (sweep_matches_ref plus_codecs ~n:70 ~t:4 ~mode:Eba.Params.Crash ~runs:2);
    test "P0opt+delta send at n=128 allocates a few words per destination"
      plus_send_allocation;
  ]

let tests =
  differential_tests @ jobs_tests @ reconstruction_tests @ netsim_tests
  @ sync_tests @ empty_mean_tests @ wide_pair_tests @ ref_codec_tests
  @ plus_ref_codec_tests

let suite = ("compact", tests)
