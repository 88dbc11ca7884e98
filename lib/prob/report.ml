module Bigint = Eba_util.Bigint
module Json = Eba_util.Json
module Metrics = Eba_util.Metrics
module Link = Eba_net.Link
module Sync = Eba_net.Sync

type t = {
  n : int;
  t_faults : int;
  rounds : int;
  loss : Q.t;
  latency : Link.latency;
  sync : Sync.t;
  spec : Round_chain.spec;
  messages_per_round : int;
  messages_per_run : int;
  per_message_miss : Q.t;
  expected_misses_per_run : Q.t;
  window_clean : Q.t;
  run_all_delivered : Q.t;
  landing : Round_chain.landing;
  decision_time_ns : Q.t;
}

let sig_figs = 9
let s_landing = Metrics.span "prob.landing"
let s_run_all_power = Metrics.span "prob.run_all_power"

(* [make]'s argument checks, in its order, then its chain spec and its
   per-round and per-run message counts. *)
let validate ~n ~t ~rounds ~loss ~latency ~sync =
  if n < 2 then invalid_arg "Prob.Report.make: n must be >= 2";
  if t < 0 then invalid_arg "Prob.Report.make: t must be >= 0";
  if rounds < 1 then invalid_arg "Prob.Report.make: rounds must be >= 1";
  let m, mr =
    let module C = Eba_util.Combi in
    try
      let m = C.mul_exn n (n - 1) in
      (m, C.mul_exn m rounds)
    with C.Overflow ->
      invalid_arg "Prob.Report.make: n * (n - 1) * rounds messages overflow int"
  in
  (Round_chain.spec ~sync ~latency ~loss, m, mr)

let power_bits ~n ~t ~rounds ~loss ~latency ~sync =
  let spec, m, mr = validate ~n ~t ~rounds ~loss ~latency ~sync in
  match Round_chain.base_bits spec with
  | 0 -> 0
  | b ->
      let module C = Eba_util.Combi in
      let landing = C.mul_exn m ((3 * spec.Round_chain.attempts) + 4) in
      C.mul_exn b (C.add_exn landing (C.mul_exn 2 mr))

let make ?cancel ~n ~t ~rounds ~loss ~latency ~sync () =
  let spec, m, mr = validate ~n ~t ~rounds ~loss ~latency ~sync in
  let check () = Eba_util.Cancel.check_opt cancel in
  check ();
  let landing =
    Metrics.time s_landing (fun () -> Round_chain.landing ~sig_figs ?cancel spec ~m)
  in
  check ();
  let q = landing.Round_chain.miss_after_attempt.(spec.Round_chain.attempts) in
  let run_all_delivered =
    Metrics.time s_run_all_power (fun () -> Q.pow (Q.one_minus q) mr)
  in
  {
    n;
    t_faults = t;
    rounds;
    loss;
    latency;
    sync;
    spec;
    messages_per_round = m;
    messages_per_run = mr;
    per_message_miss = q;
    expected_misses_per_run = Q.mul (Q.of_int mr) q;
    window_clean = landing.Round_chain.all_by_attempt.(spec.Round_chain.attempts);
    run_all_delivered;
    landing;
    decision_time_ns =
      Q.mul (Q.of_int rounds)
        (Q.mul (Q.of_int 1_000_000_000) (Q.of_float sync.Sync.round_duration));
  }

let rat q =
  Json.Obj
    [
      ("num", Json.String (Bigint.to_string (Q.num q)));
      ("den", Json.String (Bigint.to_string (Q.den q)));
      ("decimal", Json.String (Q.to_decimal ~sig_figs q));
    ]

(* [power] is [base^exp] already computed exactly; emit the factored exact
   form plus the decimal of the full power. *)
let pow_rat ~base ~exp ~power =
  Json.Obj
    [
      ("base_num", Json.String (Bigint.to_string (Q.num base)));
      ("base_den", Json.String (Bigint.to_string (Q.den base)));
      ("exp", Json.Int exp);
      ("decimal", Json.String (Q.to_decimal ~sig_figs power));
    ]

let to_json r =
  let spec = r.spec in
  let landing_json =
    Json.Obj
      [
        ( "all_by",
          Json.List
            (List.init (spec.Round_chain.attempts + 1) (fun k ->
                 pow_rat
                   ~base:(Q.one_minus r.landing.Round_chain.miss_after_attempt.(k))
                   ~exp:r.messages_per_round
                   ~power:r.landing.Round_chain.all_by_attempt.(k))) );
        ( "exactly",
          Json.List
            (Array.to_list
               (Array.map
                  (fun s -> Json.String s)
                  r.landing.Round_chain.exactly_decimal)) );
        ("residual", Json.String r.landing.Round_chain.residual_decimal);
      ]
  in
  Json.Obj
    [
      ("schema", Json.String "eba-prob/1");
      ("protocol", Json.String "FloodSet");
      ("n", Json.Int r.n);
      ("t", Json.Int r.t_faults);
      ("rounds", Json.Int r.rounds);
      ("loss", rat r.loss);
      ("latency", Json.String (Link.latency_to_string r.latency));
      ( "sync",
        Json.Obj
          [
            ("round_duration", Json.Float r.sync.Sync.round_duration);
            ("rto", Json.Float r.sync.Sync.rto);
            ("max_retries", Json.Int r.sync.Sync.max_retries);
            ("attempts", Json.Int spec.Round_chain.attempts);
          ] );
      ( "per_attempt_success",
        Json.List
          (Array.to_list (Array.map rat spec.Round_chain.success)) );
      ("per_message_miss", rat r.per_message_miss);
      ("messages_per_round", Json.Int r.messages_per_round);
      ("messages_per_run", Json.Int r.messages_per_run);
      ("expected_misses_per_run", rat r.expected_misses_per_run);
      ( "window_clean",
        pow_rat
          ~base:(Q.one_minus r.per_message_miss)
          ~exp:r.messages_per_round ~power:r.window_clean );
      ( "run_all_delivered",
        pow_rat
          ~base:(Q.one_minus r.per_message_miss)
          ~exp:r.messages_per_run ~power:r.run_all_delivered );
      ("landing", landing_json);
      ("decision_time_ns", rat r.decision_time_ns);
    ]

let to_text r =
  let spec = r.spec in
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let show q = Printf.sprintf "%s = %s" (Q.to_string q) (Q.to_decimal ~sig_figs q) in
  line "probcheck: FloodSet n=%d t=%d rounds=%d loss=%s latency=%s" r.n
    r.t_faults r.rounds (Q.to_string r.loss)
    (Link.latency_to_string r.latency);
  line "sync: %s -> attempts=%d"
    (Format.asprintf "%a" Sync.pp r.sync)
    spec.Round_chain.attempts;
  Array.iteri
    (fun i s -> line "attempt %d: success %s" (i + 1) (show s))
    spec.Round_chain.success;
  line "per-message residual miss: %s" (show r.per_message_miss);
  line "messages: %d per round, %d per run" r.messages_per_round
    r.messages_per_run;
  line "expected misses per run: %s" (show r.expected_misses_per_run);
  line "window clean (all %d copies land): (%s)^%d = %s" r.messages_per_round
    (Q.to_string (Q.one_minus r.per_message_miss))
    r.messages_per_round
    (Q.to_decimal ~sig_figs r.window_clean);
  line "run all-delivered: (%s)^%d = %s"
    (Q.to_string (Q.one_minus r.per_message_miss))
    r.messages_per_run
    (Q.to_decimal ~sig_figs r.run_all_delivered);
  line "landing of the window's last copy:";
  Array.iteri
    (fun i d ->
      line "  attempt %d: %s (all by: %s)" (i + 1) d
        (Q.to_decimal ~sig_figs r.landing.Round_chain.all_by_attempt.(i + 1)))
    r.landing.Round_chain.exactly_decimal;
  line "  misses window: %s" r.landing.Round_chain.residual_decimal;
  line "decision time: %s ns (deterministic, close of round %d)"
    (Q.to_decimal ~sig_figs:18 r.decision_time_ns)
    r.rounds;
  Buffer.contents buf
