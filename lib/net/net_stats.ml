module Value = Eba_sim.Value
module Runner = Eba_protocols.Runner
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
  o_decisions : Runner.decision option array;
  o_decision_sim_ns : int option array;
  o_faulty : bool array;
  o_unanimous : Value.t option;
  o_attempted : int;
  o_delivered : int;
  o_wire : wire;
}

type state = {
  mutable s_runs : int;
  mutable s_agreement : int;
  mutable s_validity : int;
  mutable s_undecided : int;
  mutable s_decided : int;
  mutable s_round_sum : int;
  mutable s_round_max : int;
  mutable s_sim_ns_sum : int;
  mutable s_sim_ns_max : int;
  mutable s_attempted : int;
  mutable s_delivered : int;
  mutable s_faulty_runs : int;
  mutable s_round_hist : int array;
      (* s_round_hist.(r) = nonfaulty decisions at round r; grown on
         demand, trailing zeros allowed until summarized *)
  s_wire : wire;
}

let fresh_state () =
  {
    s_runs = 0;
    s_agreement = 0;
    s_validity = 0;
    s_undecided = 0;
    s_decided = 0;
    s_round_sum = 0;
    s_round_max = 0;
    s_sim_ns_sum = 0;
    s_sim_ns_max = 0;
    s_attempted = 0;
    s_delivered = 0;
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
  st.s_runs <- st.s_runs + 1;
  st.s_attempted <- st.s_attempted + o.o_attempted;
  st.s_delivered <- st.s_delivered + o.o_delivered;
  if Array.exists Fun.id o.o_faulty then st.s_faulty_runs <- st.s_faulty_runs + 1;
  wire_merge st.s_wire o.o_wire;
  let seen = ref None and agreement_bad = ref false and validity_bad = ref false in
  Array.iteri
    (fun i faulty ->
      if not faulty then
        match o.o_decisions.(i) with
        | None -> st.s_undecided <- st.s_undecided + 1
        | Some { Runner.at; value } ->
            st.s_decided <- st.s_decided + 1;
            st.s_round_sum <- st.s_round_sum + at;
            hist_incr st at;
            if at > st.s_round_max then st.s_round_max <- at;
            (match o.o_decision_sim_ns.(i) with
            | Some ns ->
                st.s_sim_ns_sum <- st.s_sim_ns_sum + ns;
                if ns > st.s_sim_ns_max then st.s_sim_ns_max <- ns
            | None -> ());
            (match !seen with
            | None -> seen := Some value
            | Some v -> if not (Value.equal v value) then agreement_bad := true);
            (match o.o_unanimous with
            | Some v when not (Value.equal v value) -> validity_bad := true
            | Some _ | None -> ()))
    o.o_faulty;
  if !agreement_bad then st.s_agreement <- st.s_agreement + 1;
  if !validity_bad then st.s_validity <- st.s_validity + 1

let merge into from =
  into.s_runs <- into.s_runs + from.s_runs;
  into.s_agreement <- into.s_agreement + from.s_agreement;
  into.s_validity <- into.s_validity + from.s_validity;
  into.s_undecided <- into.s_undecided + from.s_undecided;
  into.s_decided <- into.s_decided + from.s_decided;
  into.s_round_sum <- into.s_round_sum + from.s_round_sum;
  into.s_round_max <- max into.s_round_max from.s_round_max;
  into.s_sim_ns_sum <- into.s_sim_ns_sum + from.s_sim_ns_sum;
  into.s_sim_ns_max <- max into.s_sim_ns_max from.s_sim_ns_max;
  into.s_attempted <- into.s_attempted + from.s_attempted;
  into.s_delivered <- into.s_delivered + from.s_delivered;
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
  {
    ns_protocol = protocol;
    ns_params = params;
    ns_seed = seed;
    ns_plan = plan;
    ns_topology = topology;
    ns_sync = sync;
    ns_runs = st.s_runs;
    ns_agreement_violations = st.s_agreement;
    ns_validity_violations = st.s_validity;
    ns_undecided_nonfaulty = st.s_undecided;
    ns_decided_nonfaulty = st.s_decided;
    ns_decision_round_sum = st.s_round_sum;
    (* empty-mean convention (see {!Eba_protocols.Stats}): 0.0 when no
       nonfaulty processor decided, so the summary and its JSON stay
       finite on all-undecided sweeps *)
    ns_mean_decision_round =
      (if st.s_decided = 0 then 0.0
       else float_of_int st.s_round_sum /. float_of_int st.s_decided);
    ns_max_decision_round = st.s_round_max;
    ns_decision_ns_sum = st.s_sim_ns_sum;
    ns_mean_decision_ns =
      (if st.s_decided = 0 then 0.0
       else float_of_int st.s_sim_ns_sum /. float_of_int st.s_decided);
    ns_max_decision_ns = st.s_sim_ns_max;
    ns_attempted = st.s_attempted;
    ns_delivered = st.s_delivered;
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
