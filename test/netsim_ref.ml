(* The reference network simulation engine: one run at a time over a
   plain event heap (Event_queue_ref), where every event — round
   boundaries, deliveries, acknowledgements, retransmission timers — is
   its own heap cell.  The library simulates on Mux (its own
   struct-of-arrays heap, a shared tick wheel, batched arrivals, recycled
   arenas); this engine shares none of that machinery, which is what
   makes it an independent oracle for test_mux's per-instance
   bit-identity checks and for the sweep-level summaries built from it.

   A run is a pure function of (params, config, sync, topology, plan,
   rng): random choices are drawn from [rng] in event order and
   simultaneous events resolve by scheduling order. *)

open Eba.Net
module Params = Eba.Params
module Config = Eba.Config
module Value = Eba.Value
module Metrics = Eba.Metrics

let m_runs = Metrics.counter "net.runs_simulated"
let m_events = Metrics.counter "net.events_processed"
let m_copies = Metrics.counter "net.copies_sent"
let m_retrans = Metrics.counter "net.retransmissions"
let m_acks = Metrics.counter "net.acks_sent"
let m_delivered = Metrics.counter "net.messages_delivered"
let m_dropped = Metrics.counter "net.copies_dropped"
let m_bytes = Metrics.counter "net.data_bytes"

let ns_of_seconds = Net_stats.ns_of_seconds

(* A sweep run's initial configuration: one fair bit per processor, the
   first draws from the run's generator. *)
let random_config ~n rng =
  Config.make
    (Array.init n (fun _ -> if Random.State.bool rng then Value.One else Value.Zero))

module Make (P : Eba.Protocol_intf.PROTOCOL) = struct
  module N = Node.Make (P)

  type event =
    | Boundary of int
        (* time k·D: close round k (k >= 1), then open round k+1 (k < horizon) *)
    | Deliver of {
        d_round : int;
        d_sender : int;
        d_dest : int;
        d_bytes : int;  (* wire size, computed once at first transmit *)
        d_msg : P.msg;
      }
    | Ack of { a_round : int; a_from : int; a_to : int }
        (* a_from acknowledged a_to's round message *)
    | Timer of {
        t_round : int;
        t_sender : int;
        t_dest : int;
        t_copy : int;
        t_bytes : int;  (* retransmits reuse the original size, no re-measuring *)
        t_msg : P.msg;
      }

  (* the run itself; [run_one] validates the (sync, topology) pair first *)
  let run_prepared (params : Params.t) ~(sync : Sync.t) ~topology ~plan ~rng
      config =
    let n = params.Params.n and horizon = params.Params.horizon in
    let d = sync.Sync.round_duration in
    let inj = Inject.compile rng params ~total_time:(float_of_int horizon *. d) plan in
    let wire = Net_stats.fresh_wire () in
    let attempted = ref 0 and delivered = ref 0 in
    let q : event Event_queue_ref.t = Event_queue_ref.create () in
    let nodes =
      Array.init n (fun i -> N.create params ~me:i (Config.value config i) ~sim_time:0.0)
    in
    (* acked.(i).(j): has j acknowledged i's message of i's current
       round?  Cleared whenever i enters a round. *)
    let acked = Array.make_matrix n n false in
    for k = 0 to horizon do
      Event_queue_ref.push q ~time:(float_of_int k *. d) (Boundary k)
    done;
    (* Put one copy of a data message on the wire.  Bytes are charged here,
       before any drop decision: a lost copy was still transmitted. *)
    let transmit ~now ~round ~sender ~dest ~copy ~bytes msg =
      wire.Net_stats.w_copies <- wire.Net_stats.w_copies + 1;
      wire.Net_stats.w_data_bytes <- wire.Net_stats.w_data_bytes + bytes;
      if copy > 0 then
        wire.Net_stats.w_retransmissions <- wire.Net_stats.w_retransmissions + 1;
      if Inject.blocks_send inj rng ~round ~sender ~receiver:dest then
        wire.Net_stats.w_dropped_fault <- wire.Net_stats.w_dropped_fault + 1
      else if Inject.cut inj ~now ~src:sender ~dst:dest then
        wire.Net_stats.w_dropped_cut <- wire.Net_stats.w_dropped_cut + 1
      else
        let link = Topology.link topology in
        if link.Link.loss > 0.0 && Random.State.float rng 1.0 < link.Link.loss then
          wire.Net_stats.w_dropped_loss <- wire.Net_stats.w_dropped_loss + 1
        else begin
          let l = Link.sample_latency rng link.Link.lat in
          let ns = ns_of_seconds l in
          wire.Net_stats.w_latency_ns_sum <- wire.Net_stats.w_latency_ns_sum + ns;
          if ns > wire.Net_stats.w_latency_ns_max then
            wire.Net_stats.w_latency_ns_max <- ns;
          let bucket =
            min (Net_stats.hist_buckets - 1)
              (int_of_float (float_of_int Net_stats.hist_buckets *. l /. d))
          in
          wire.Net_stats.w_latency_hist.(bucket) <-
            wire.Net_stats.w_latency_hist.(bucket) + 1;
          Event_queue_ref.push q ~time:(now +. l)
            (Deliver
               {
                 d_round = round;
                 d_sender = sender;
                 d_dest = dest;
                 d_bytes = bytes;
                 d_msg = msg;
               })
        end
    in
    (* Acknowledgement copies ride the same shared link: same loss, same
       latency model, severed by the same partitions — but never by the
       replayed pattern, which only speaks about protocol messages. *)
    let send_ack ~now ~round ~from ~to_ =
      wire.Net_stats.w_acks <- wire.Net_stats.w_acks + 1;
      (* an acknowledgement is a bare header: tag + round stamp *)
      wire.Net_stats.w_ack_bytes <-
        wire.Net_stats.w_ack_bytes + Eba_protocols.Protocol_intf.Wire.header;
      if Inject.cut inj ~now ~src:from ~dst:to_ then
        wire.Net_stats.w_dropped_cut <- wire.Net_stats.w_dropped_cut + 1
      else
        let link = Topology.link topology in
        if link.Link.loss > 0.0 && Random.State.float rng 1.0 < link.Link.loss then
          wire.Net_stats.w_dropped_loss <- wire.Net_stats.w_dropped_loss + 1
        else
          let l = Link.sample_latency rng link.Link.lat in
          Event_queue_ref.push q ~time:(now +. l)
            (Ack { a_round = round; a_from = from; a_to = to_ })
    in
    let boundary ~now k =
      if k >= 1 then
        Array.iter
          (fun node ->
            if not (Inject.dead inj ~now ~proc:(N.me node)) then
              N.finish_round params node ~sim_time:now)
          nodes;
      if k < horizon then begin
        let round = k + 1 in
        let round_end = Sync.round_end sync ~round in
        Array.iter
          (fun node ->
            let i = N.me node in
            if not (Inject.dead inj ~now ~proc:i) then begin
              let out = N.start_round params node ~round in
              Array.fill acked.(i) 0 n false;
              (* the full protocols share one message snapshot across all
                 destinations — size it once (physical equality) rather
                 than per destination *)
              let sized = ref None in
              let size_of msg =
                match !sized with
                | Some (m, b) when m == msg -> b
                | _ ->
                    let b = P.wire_size params msg in
                    sized := Some (msg, b);
                    b
              in
              for dest = 0 to n - 1 do
                if dest <> i then
                  match out.(dest) with
                  | None -> ()
                  | Some msg ->
                      incr attempted;
                      let bytes = size_of msg in
                      transmit ~now ~round ~sender:i ~dest ~copy:0 ~bytes msg;
                      if sync.Sync.max_retries > 0 && now +. sync.Sync.rto < round_end
                      then
                        Event_queue_ref.push q ~time:(now +. sync.Sync.rto)
                          (Timer
                             {
                               t_round = round;
                               t_sender = i;
                               t_dest = dest;
                               t_copy = 1;
                               t_bytes = bytes;
                               t_msg = msg;
                             })
              done
            end)
          nodes
      end
    in
    let events = ref 0 in
    let rec loop () =
      match Event_queue_ref.pop q with
      | None -> ()
      | Some (now, ev) ->
          incr events;
          (match ev with
          | Boundary k -> boundary ~now k
          | Deliver { d_round; d_sender; d_dest; d_bytes; d_msg } ->
              if Inject.dead inj ~now ~proc:d_dest then
                wire.Net_stats.w_to_dead <- wire.Net_stats.w_to_dead + 1
              else (
                match
                  N.accept nodes.(d_dest) ~round:d_round ~sender:d_sender d_msg
                with
                | `Fresh ->
                    incr delivered;
                    wire.Net_stats.w_delivered_bytes <-
                      wire.Net_stats.w_delivered_bytes + d_bytes;
                    send_ack ~now ~round:d_round ~from:d_dest ~to_:d_sender
                | `Duplicate ->
                    (* the ack was lost or raced a retransmission: re-ack
                       so the sender's timer goes quiet *)
                    wire.Net_stats.w_duplicates <- wire.Net_stats.w_duplicates + 1;
                    send_ack ~now ~round:d_round ~from:d_dest ~to_:d_sender
                | `Late -> wire.Net_stats.w_late <- wire.Net_stats.w_late + 1)
          | Ack { a_round; a_from; a_to } ->
              (* a stale-round ack is ignored *)
              if a_round = N.round nodes.(a_to) then acked.(a_to).(a_from) <- true
          | Timer { t_round; t_sender; t_dest; t_copy; t_bytes; t_msg } ->
              let node = nodes.(t_sender) in
              if
                (not (Inject.dead inj ~now ~proc:t_sender))
                && N.round node = t_round
                && not acked.(t_sender).(t_dest)
              then begin
                transmit ~now ~round:t_round ~sender:t_sender ~dest:t_dest
                  ~copy:t_copy ~bytes:t_bytes t_msg;
                if
                  t_copy < sync.Sync.max_retries
                  && now +. sync.Sync.rto < Sync.round_end sync ~round:t_round
                then
                  Event_queue_ref.push q ~time:(now +. sync.Sync.rto)
                    (Timer
                       {
                         t_round;
                         t_sender;
                         t_dest;
                         t_copy = t_copy + 1;
                         t_bytes;
                         t_msg;
                       })
              end);
          loop ()
    in
    loop ();
    if Metrics.enabled () then begin
      Metrics.incr m_runs;
      Metrics.add m_events !events;
      Metrics.add m_copies wire.Net_stats.w_copies;
      Metrics.add m_retrans wire.Net_stats.w_retransmissions;
      Metrics.add m_acks wire.Net_stats.w_acks;
      Metrics.add m_delivered !delivered;
      Metrics.add m_bytes wire.Net_stats.w_data_bytes;
      Metrics.add m_dropped
        (wire.Net_stats.w_dropped_fault + wire.Net_stats.w_dropped_loss
       + wire.Net_stats.w_dropped_cut)
    end;
    {
      Net_stats.o_decisions = Array.map N.decision nodes;
      o_decision_sim_ns =
        Array.map
          (fun node -> Option.map ns_of_seconds (N.decision_sim_time node))
          nodes;
      o_faulty = Inject.faulty inj;
      o_unanimous = Config.all_equal config;
      o_attempted = !attempted;
      o_delivered = !delivered;
      o_wire = wire;
    }

  let run_one (params : Params.t) ~sync ~topology ~plan ~rng config =
    Sync.check sync topology;
    run_prepared params ~sync ~topology ~plan ~rng config

  (* One sweep run: the initial configuration is drawn from the run's
     generator first, then the adversary is compiled from it. *)
  let sweep_run params ~sync ~topology ~plan ~seed run =
    let rng = Netsim.run_seed ~seed ~run in
    let config = random_config ~n:params.Params.n rng in
    run_one params ~sync ~topology ~plan ~rng config

  (* A whole sweep, one run after another, rendered with the identity
     strings Netsim.sweep uses. *)
  let sweep params ~sync ~topology ~dynamic ~seed ~runs =
    let st = Net_stats.fresh_state () in
    for run = 0 to runs - 1 do
      Net_stats.consume st
        (sweep_run params ~sync ~topology ~plan:(Inject.Dynamic dynamic) ~seed run)
    done;
    Net_stats.summary_of_state ~protocol:P.name
      ~params:(Format.asprintf "%a" Params.pp params)
      ~seed
      ~plan:(Inject.describe (Inject.Dynamic dynamic))
      ~topology:(Format.asprintf "%a" Topology.pp topology)
      ~sync:(Format.asprintf "%a" Sync.pp sync)
      st
end
