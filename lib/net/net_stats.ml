module Value = Eba_sim.Value
module Decision = Eba_sim.Decision
module Json = Eba_util.Json

let hist_buckets = 16
let ns_of_seconds s = int_of_float ((s *. 1e9) +. 0.5)

type wire = {
  mutable w_copies : int;
  mutable w_retransmissions : int;
  mutable w_acks : int;
  mutable w_dropped_fault : int;
  mutable w_dropped_loss : int;
  mutable w_dropped_cut : int;
  mutable w_late : int;
  mutable w_duplicates : int;
  mutable w_to_dead : int;
  mutable w_data_bytes : int;
  mutable w_ack_bytes : int;
  mutable w_delivered_bytes : int;
  mutable w_latency_ns_sum : int;
  mutable w_latency_ns_max : int;
  w_latency_hist : int array;
}

let fresh_wire () =
  {
    w_copies = 0;
    w_retransmissions = 0;
    w_acks = 0;
    w_dropped_fault = 0;
    w_dropped_loss = 0;
    w_dropped_cut = 0;
    w_late = 0;
    w_duplicates = 0;
    w_to_dead = 0;
    w_data_bytes = 0;
    w_ack_bytes = 0;
    w_delivered_bytes = 0;
    w_latency_ns_sum = 0;
    w_latency_ns_max = 0;
    w_latency_hist = Array.make hist_buckets 0;
  }

let wire_reset w =
  w.w_copies <- 0;
  w.w_retransmissions <- 0;
  w.w_acks <- 0;
  w.w_dropped_fault <- 0;
  w.w_dropped_loss <- 0;
  w.w_dropped_cut <- 0;
  w.w_late <- 0;
  w.w_duplicates <- 0;
  w.w_to_dead <- 0;
  w.w_data_bytes <- 0;
  w.w_ack_bytes <- 0;
  w.w_delivered_bytes <- 0;
  w.w_latency_ns_sum <- 0;
  w.w_latency_ns_max <- 0;
  Array.fill w.w_latency_hist 0 hist_buckets 0

let wire_merge into from =
  into.w_copies <- into.w_copies + from.w_copies;
  into.w_retransmissions <- into.w_retransmissions + from.w_retransmissions;
  into.w_acks <- into.w_acks + from.w_acks;
  into.w_dropped_fault <- into.w_dropped_fault + from.w_dropped_fault;
  into.w_dropped_loss <- into.w_dropped_loss + from.w_dropped_loss;
  into.w_dropped_cut <- into.w_dropped_cut + from.w_dropped_cut;
  into.w_late <- into.w_late + from.w_late;
  into.w_duplicates <- into.w_duplicates + from.w_duplicates;
  into.w_to_dead <- into.w_to_dead + from.w_to_dead;
  into.w_data_bytes <- into.w_data_bytes + from.w_data_bytes;
  into.w_ack_bytes <- into.w_ack_bytes + from.w_ack_bytes;
  into.w_delivered_bytes <- into.w_delivered_bytes + from.w_delivered_bytes;
  into.w_latency_ns_sum <- into.w_latency_ns_sum + from.w_latency_ns_sum;
  into.w_latency_ns_max <- max into.w_latency_ns_max from.w_latency_ns_max;
  Array.iteri
    (fun i v -> into.w_latency_hist.(i) <- into.w_latency_hist.(i) + v)
    from.w_latency_hist

type outcome = {
  o_decisions : Decision.t option array;
  o_decision_sim_ns : int option array;
  o_faulty : bool array;
  o_unanimous : Value.t option;
  o_attempted : int;
  o_delivered : int;
  o_wire : wire;
}

(* The spec counts and protocol messages in [tally]; the simulated times,
   faulty runs, decision-round histogram and wire counts beside it. *)
type state = {
  tally : Decision.tally;
  mutable s_sim_ns_sum : int;
  mutable s_sim_ns_max : int;
  mutable s_faulty_runs : int;
  mutable s_round_hist : int array;
      (* s_round_hist.(r) = nonfaulty decisions at round r; grown on
         demand, trailing zeros allowed until summarized *)
  s_wire : wire;
}

let fresh_state () =
  {
    tally = Decision.tally ();
    s_sim_ns_sum = 0;
    s_sim_ns_max = 0;
    s_faulty_runs = 0;
    s_round_hist = [||];
    s_wire = fresh_wire ();
  }

let hist_incr st r =
  let len = Array.length st.s_round_hist in
  if r >= len then begin
    let a = Array.make (max (r + 1) (2 * len)) 0 in
    Array.blit st.s_round_hist 0 a 0 len;
    st.s_round_hist <- a
  end;
  st.s_round_hist.(r) <- st.s_round_hist.(r) + 1

let consume st o =
  let n = Array.length o.o_faulty in
  Decision.add st.tally
    (Decision.judge ~faulty:(Array.get o.o_faulty) ~unanimous:o.o_unanimous
       o.o_decisions ~pos:0 ~n);
  st.tally.attempted <- st.tally.attempted + o.o_attempted;
  st.tally.delivered <- st.tally.delivered + o.o_delivered;
  if Array.exists Fun.id o.o_faulty then st.s_faulty_runs <- st.s_faulty_runs + 1;
  wire_merge st.s_wire o.o_wire;
  for i = 0 to n - 1 do
    match o.o_decisions.(i) with
    | Some { Decision.at; _ } when not o.o_faulty.(i) -> (
        hist_incr st at;
        match o.o_decision_sim_ns.(i) with
        | Some ns ->
            st.s_sim_ns_sum <- st.s_sim_ns_sum + ns;
            if ns > st.s_sim_ns_max then st.s_sim_ns_max <- ns
        | None -> ())
    | Some _ | None -> ()
  done

let merge into from =
  Decision.merge into.tally from.tally;
  into.s_sim_ns_sum <- into.s_sim_ns_sum + from.s_sim_ns_sum;
  into.s_sim_ns_max <- max into.s_sim_ns_max from.s_sim_ns_max;
  into.s_faulty_runs <- into.s_faulty_runs + from.s_faulty_runs;
  (let flen = Array.length from.s_round_hist in
   if flen > Array.length into.s_round_hist then begin
     let a = Array.make flen 0 in
     Array.blit into.s_round_hist 0 a 0 (Array.length into.s_round_hist);
     into.s_round_hist <- a
   end;
   Array.iteri
     (fun r v -> into.s_round_hist.(r) <- into.s_round_hist.(r) + v)
     from.s_round_hist);
  wire_merge into.s_wire from.s_wire

type summary = {
  ns_protocol : string;
  ns_params : string;
  ns_seed : int;
  ns_plan : string;
  ns_topology : string;
  ns_sync : string;
  ns_runs : int;
  ns_agreement_violations : int;
  ns_validity_violations : int;
  ns_undecided_nonfaulty : int;
  ns_decided_nonfaulty : int;
  ns_decision_round_sum : int;
  ns_mean_decision_round : float;
  ns_max_decision_round : int;
  ns_decision_ns_sum : int;
  ns_mean_decision_ns : float;
  ns_max_decision_ns : int;
  ns_attempted : int;
  ns_delivered : int;
  ns_wire : wire;
  ns_faulty_runs : int;
  ns_round_hist : int array;
}

let summary_of_state ~protocol ~params ~seed ~plan ~topology ~sync st =
  (* canonical histogram: trimmed to the last nonzero bucket, so the
     summary is bit-identical whatever growth pattern the merges took *)
  let hist =
    let len = ref (Array.length st.s_round_hist) in
    while !len > 0 && st.s_round_hist.(!len - 1) = 0 do
      decr len
    done;
    Array.sub st.s_round_hist 0 !len
  in
  let t = st.tally in
  {
    ns_protocol = protocol;
    ns_params = params;
    ns_seed = seed;
    ns_plan = plan;
    ns_topology = topology;
    ns_sync = sync;
    ns_runs = t.runs;
    ns_agreement_violations = t.agreement_violations;
    ns_validity_violations = t.validity_violations;
    ns_undecided_nonfaulty = t.undecided_nonfaulty;
    ns_decided_nonfaulty = t.decided_nonfaulty;
    ns_decision_round_sum = t.round_sum;
    ns_mean_decision_round = Decision.mean_round t;
    ns_max_decision_round = t.round_max;
    ns_decision_ns_sum = st.s_sim_ns_sum;
    (* the empty-mean convention of [Decision.mean_round] *)
    ns_mean_decision_ns =
      (if t.decided_nonfaulty = 0 then 0.0
       else float_of_int st.s_sim_ns_sum /. float_of_int t.decided_nonfaulty);
    ns_max_decision_ns = st.s_sim_ns_max;
    ns_attempted = t.attempted;
    ns_delivered = t.delivered;
    ns_wire = st.s_wire;
    ns_faulty_runs = st.s_faulty_runs;
    ns_round_hist = hist;
  }

let quantile_decision_round s ~permille =
  if permille < 0 || permille > 1000 then
    invalid_arg "Net_stats.quantile_decision_round: permille outside [0, 1000]";
  if s.ns_decided_nonfaulty = 0 then 0
  else begin
    (* smallest round r with 1000 * cumulative(r) >= permille * decided —
       exact integer arithmetic, no float rounding *)
    let target = permille * s.ns_decided_nonfaulty in
    let cum = ref 0 and r = ref 0 in
    while !r < Array.length s.ns_round_hist && 1000 * !cum < target do
      cum := !cum + s.ns_round_hist.(!r);
      if 1000 * !cum < target then incr r
    done;
    !r
  end

let p99_decision_round s = quantile_decision_round s ~permille:990

let pp fmt s =
  let w = s.ns_wire in
  Format.fprintf fmt
    "%s over %d runs (%s, seed=%d)@\n\
    \  plan: %s@\n\
    \  net:  %s, sync %s@\n\
    \  spec: agreement-violations=%d validity-violations=%d undecided=%d \
     decided=%d (%d faulty runs)@\n\
    \  decision: mean round %.2f, max round %d; mean sim %.3g s, max %.3g s@\n\
    \  protocol msgs: %d/%d delivered/attempted@\n\
    \  wire: %d copies (%d retransmissions), %d acks; dropped %d fault / %d \
     loss / %d cut; %d late, %d duplicates, %d to-dead@\n\
    \  bytes: %d data + %d acks on the wire, %d delivered fresh@\n\
    \  copy latency: mean %.3g s, max %.3g s"
    s.ns_protocol s.ns_runs s.ns_params s.ns_seed s.ns_plan s.ns_topology
    s.ns_sync s.ns_agreement_violations s.ns_validity_violations
    s.ns_undecided_nonfaulty s.ns_decided_nonfaulty s.ns_faulty_runs
    s.ns_mean_decision_round s.ns_max_decision_round
    (s.ns_mean_decision_ns /. 1e9)
    (float_of_int s.ns_max_decision_ns /. 1e9)
    s.ns_delivered s.ns_attempted w.w_copies w.w_retransmissions w.w_acks
    w.w_dropped_fault w.w_dropped_loss w.w_dropped_cut w.w_late w.w_duplicates
    w.w_to_dead w.w_data_bytes w.w_ack_bytes w.w_delivered_bytes
    (* the histogram counts exactly the copies whose latency the sum
       holds; the drop counters also count acks *)
    (let flights = Array.fold_left ( + ) 0 w.w_latency_hist in
     if flights = 0 then 0.0
     else float_of_int w.w_latency_ns_sum /. float_of_int flights /. 1e9)
    (float_of_int w.w_latency_ns_max /. 1e9)

let summary_json s =
  let w = s.ns_wire in
  Json.Obj
    [
      ("protocol", Json.String s.ns_protocol);
      ("params", Json.String s.ns_params);
      ("seed", Json.Int s.ns_seed);
      ("plan", Json.String s.ns_plan);
      ("topology", Json.String s.ns_topology);
      ("sync", Json.String s.ns_sync);
      ("runs", Json.Int s.ns_runs);
      ("agreement_violations", Json.Int s.ns_agreement_violations);
      ("validity_violations", Json.Int s.ns_validity_violations);
      ("undecided_nonfaulty", Json.Int s.ns_undecided_nonfaulty);
      ("decided_nonfaulty", Json.Int s.ns_decided_nonfaulty);
      ("decision_round_sum", Json.Int s.ns_decision_round_sum);
      ("max_decision_round", Json.Int s.ns_max_decision_round);
      ("decision_ns_sum", Json.Int s.ns_decision_ns_sum);
      ("max_decision_ns", Json.Int s.ns_max_decision_ns);
      ("faulty_runs", Json.Int s.ns_faulty_runs);
      ("messages_attempted", Json.Int s.ns_attempted);
      ("messages_delivered", Json.Int s.ns_delivered);
      ("copies", Json.Int w.w_copies);
      ("retransmissions", Json.Int w.w_retransmissions);
      ("acks", Json.Int w.w_acks);
      ("dropped_fault", Json.Int w.w_dropped_fault);
      ("dropped_loss", Json.Int w.w_dropped_loss);
      ("dropped_cut", Json.Int w.w_dropped_cut);
      ("late", Json.Int w.w_late);
      ("duplicates", Json.Int w.w_duplicates);
      ("to_dead", Json.Int w.w_to_dead);
      ("data_bytes", Json.Int w.w_data_bytes);
      ("ack_bytes", Json.Int w.w_ack_bytes);
      ("delivered_bytes", Json.Int w.w_delivered_bytes);
      ("latency_ns_sum", Json.Int w.w_latency_ns_sum);
      ("latency_ns_max", Json.Int w.w_latency_ns_max);
      ("latency_hist", Json.List (Array.to_list (Array.map (fun v -> Json.Int v) w.w_latency_hist)));
      ( "decision_round_hist",
        Json.List (Array.to_list (Array.map (fun v -> Json.Int v) s.ns_round_hist)) );
      ("p99_decision_round", Json.Int (p99_decision_round s));
    ]
