module Params = Eba_sim.Params
module Config = Eba_sim.Config
module Value = Eba_sim.Value
module Metrics = Eba_util.Metrics
module Parallel = Eba_util.Parallel

(* A sweep run's initial configuration: one fair bit per processor, the
   first draws from the run's generator. *)
let random_config ~n rng =
  Config.make
    (Array.init n (fun _ -> if Random.State.bool rng then Value.One else Value.Zero))

(* per-run totals, the same counts the reference engine keeps *)
let m_runs = Metrics.counter "net.runs_simulated"
let m_events = Metrics.counter "net.events_processed"
let m_copies = Metrics.counter "net.copies_sent"
let m_retrans = Metrics.counter "net.retransmissions"
let m_acks = Metrics.counter "net.acks_sent"
let m_delivered = Metrics.counter "net.messages_delivered"
let m_dropped = Metrics.counter "net.copies_dropped"
let m_bytes = Metrics.counter "net.data_bytes"

(* engine-specific accounting: every count is a pure function of the
   workload, so the amortization is asserted, not inferred *)
let m_mux_ticks = Metrics.counter "mux.timer_ticks"
let m_mux_batched = Metrics.counter "mux.batched_deliveries"
let m_mux_arena = Metrics.counter "mux.arena_reuses"

let ns_of_seconds = Net_stats.ns_of_seconds

module Make (P : Eba_protocols.Protocol_intf.PROTOCOL) = struct
  module N = Node.Make (P)

  (* The event slab: the fields of every in-flight delivery, armed timer
     and open batch, struct-of-arrays by handle.  The heap and the wheel
     carry handles, so neither holds a pointer, and no event allocates a
     record.  Freed handles go on an int stack; a run starts from an
     empty slab and keeps the capacity of the runs before it. *)
  type slab = {
    mutable s_round : int array;
    mutable s_sender : int array;
    mutable s_dest : int array;
    mutable s_bytes : int array;
    mutable s_copy : int array;  (* a timer's next copy number *)
    mutable s_link : int array;  (* a batch's next delivery; -1 ends it *)
    mutable s_msg : P.msg array;
        (* spare slots may keep a stale message alive until reused *)
    mutable s_free : int array;  (* the free stack, [s_nfree] deep *)
    mutable s_nfree : int;
    mutable s_hi : int;  (* handles handed out since the run began *)
  }

  (* A heap payload is a handle and a one-bit tag: a delivery or a batch.
     Timers live on the wheel only, so its payloads are bare handles. *)
  let tag_deliver = 0
  let tag_batch = 1

  type engine = {
    eg_params : Params.t;
    eg_sync : Sync.t;
    eg_link : Link.t;  (* the one link every pair shares *)
    eg_plan : Inject.plan;
    eg_total : float;  (* horizon * round_duration, the compile bound *)
    eg_round_end : float array;  (* index by round, 0 .. horizon *)
    eg_is_boundary : bool array;  (* per tick *)
    eg_tick_round : int array;  (* boundary index k, or retry round *)
    eg_wheel : Timer_wheel.t;
    eg_q : Event_queue.t;
    eg_slab : slab;
    eg_batching : bool;  (* Const latency *)
    (* the run's state: nodes and wire record recycled across runs *)
    eg_nodes : N.t array;
    eg_wire : Net_stats.wire;
    mutable eg_rng : Random.State.t;
    mutable eg_inj : Inject.compiled;
    mutable eg_att : int;
    mutable eg_del : int;
    mutable eg_evt : int;
    (* cache of open batches: parallel (arrival, handle of the batch's
       last delivery, or of the batch itself while it is empty) *)
    eg_bc_time : float array;
    eg_bc_tail : int array;
    mutable eg_bc_next : int;
    (* run-local accounting, flushed to Metrics per run *)
    mutable eg_ticks_fired : int;
    mutable eg_batched : int;
    mutable eg_reuses : int;
  }

  let bc_slots = 4

  (* The tick schedule: every instant a boundary or retransmission timer
     can fire, fixed by the synchronizer.  Mirrors the heap-only schedule's
     float arithmetic exactly: boundaries at [k *. d]; a round's retry
     ladder accumulates by repeated [+. rto] from the opening boundary,
     armed only while the next fire stays strictly inside the window. *)
  let tick_schedule (params : Params.t) (sync : Sync.t) =
    let d = sync.Sync.round_duration and rto = sync.Sync.rto in
    let horizon = params.Params.horizon in
    let acc = ref [] in
    for k = 0 to horizon do
      acc := (float_of_int k *. d, true, k) :: !acc;
      if k < horizon then begin
        let r = k + 1 in
        let e = float_of_int r *. d in
        let fire = ref (float_of_int k *. d) in
        let c = ref 0 in
        while !c < sync.Sync.max_retries && !fire +. rto < e do
          fire := !fire +. rto;
          acc := (!fire, false, r) :: !acc;
          incr c
        done
      end
    done;
    let all = Array.of_list (List.rev !acc) in
    ( Array.map (fun (t, _, _) -> t) all,
      Array.map (fun (_, b, _) -> b) all,
      Array.map (fun (_, _, r) -> r) all )

  let check (params : Params.t) ~sync ~topology =
    Sync.check sync topology;
    if Topology.n topology <> params.Params.n then
      invalid_arg "Mux: topology size does not match params"

  let create (params : Params.t) ~sync ~topology ~plan =
    check params ~sync ~topology;
    let n = params.Params.n and horizon = params.Params.horizon in
    let d = sync.Sync.round_duration in
    let times, is_boundary, tick_round = tick_schedule params sync in
    let link = Topology.link topology in
    let batching = match link.Link.lat with Link.Const _ -> true | _ -> false in
    let dummy_rng = Random.State.make [| 0 |] in
    let total = float_of_int horizon *. d in
    {
      eg_params = params;
      eg_sync = sync;
      eg_link = link;
      eg_plan = plan;
      eg_total = total;
      eg_round_end = Array.init (horizon + 1) (fun r -> float_of_int r *. d);
      eg_is_boundary = is_boundary;
      eg_tick_round = tick_round;
      eg_wheel = Timer_wheel.create ~times;
      eg_q = Event_queue.create ();
      eg_slab =
        {
          s_round = [||];
          s_sender = [||];
          s_dest = [||];
          s_bytes = [||];
          s_copy = [||];
          s_link = [||];
          s_msg = [||];
          s_free = [||];
          s_nfree = 0;
          s_hi = 0;
        };
      eg_batching = batching;
      eg_nodes =
        Array.init n (fun p -> N.create params ~me:p Value.Zero ~sim_time:0.0);
      eg_wire = Net_stats.fresh_wire ();
      eg_rng = dummy_rng;
      eg_inj = Inject.compile dummy_rng params ~total_time:total plan;
      eg_att = 0;
      eg_del = 0;
      eg_evt = 0;
      eg_bc_time = Array.make bc_slots neg_infinity;
      eg_bc_tail = Array.make bc_slots 0;
      eg_bc_next = 0;
      eg_ticks_fired = 0;
      eg_batched = 0;
      eg_reuses = 0;
    }

  (* -- the slab -------------------------------------------------------- *)

  (* Doubling growth.  The message column has no neutral element, so its
     first 64 slots take the message at hand as their seed, and later
     doublings append the column to itself: [Array.make] past 256 slots
     forces a minor collection to promote a young seed, where
     [Array.append] allocates in the major heap directly. *)
  let grow s msg =
    let cap = Array.length s.s_round in
    let ncap = max 64 (2 * cap) in
    let widen a =
      let na = Array.make ncap 0 in
      Array.blit a 0 na 0 cap;
      na
    in
    s.s_round <- widen s.s_round;
    s.s_sender <- widen s.s_sender;
    s.s_dest <- widen s.s_dest;
    s.s_bytes <- widen s.s_bytes;
    s.s_copy <- widen s.s_copy;
    s.s_link <- widen s.s_link;
    s.s_free <- widen s.s_free;
    s.s_msg <-
      (if cap = 0 then Array.make ncap msg else Array.append s.s_msg s.s_msg)

  (* The top of the free stack, or a fresh handle; [msg] seeds the
     message column if it grows. *)
  let new_handle s msg =
    if s.s_nfree > 0 then begin
      s.s_nfree <- s.s_nfree - 1;
      s.s_free.(s.s_nfree)
    end
    else begin
      let h = s.s_hi in
      if h = Array.length s.s_round then grow s msg;
      s.s_hi <- h + 1;
      h
    end

  (* A slot for one copy of [msg]: a delivery's, or a timer's. *)
  let alloc_slot s ~round ~sender ~dest ~bytes msg =
    let h = new_handle s msg in
    s.s_round.(h) <- round;
    s.s_sender.(h) <- sender;
    s.s_dest.(h) <- dest;
    s.s_bytes.(h) <- bytes;
    s.s_msg.(h) <- msg;
    h

  let free_slot s h =
    s.s_free.(s.s_nfree) <- h;
    s.s_nfree <- s.s_nfree + 1

  (* -- timers ---------------------------------------------------------- *)

  (* arena accounting counts returns and in-place recycles — pure
     per-run functions of the workload, unlike free-list hit rates,
     which depend on how runs distribute over worker engines *)
  let free_timer eng h =
    eng.eg_reuses <- eng.eg_reuses + 1;
    free_slot eng.eg_slab h

  (* Arm a timer at [time].  In the heap-only schedule this is a heap
     push, consuming one sequence number — the wheel draws the same number
     from the shared counter so the merged order is identical.  [time] is
     always the tick after the cursor: [tick_schedule] computes each
     retransmission instant with the float operations and the retry and
     window tests of [fire_boundary] and [timer_fire], and [create]
     refuses a schedule that is not strictly increasing. *)
  let arm eng h ~time =
    let w = eng.eg_wheel in
    let tick = Timer_wheel.index_of_time w time in
    if tick < 0 then invalid_arg "Mux.arm: timer instant off the tick schedule";
    Timer_wheel.schedule w ~tick ~seq:(Event_queue.alloc_seq eng.eg_q) h

  (* -- batches --------------------------------------------------------- *)

  (* A batch is a slot of its own heading a list of delivery slots linked
     through [s_link] in append order.  Append a delivery to the open
     batch for this arrival instant, opening and scheduling one if none
     is cached.  Stale cache entries can never collide: an open batch's
     instant is strictly in the future, and each run wipes the cache
     before simulated time restarts. *)
  let batch_deliver eng ~arrival h =
    let s = eng.eg_slab in
    s.s_link.(h) <- -1;
    let j = ref 0 in
    while !j < bc_slots && eng.eg_bc_time.(!j) <> arrival do
      incr j
    done;
    if !j = bc_slots then begin
      let b = new_handle s s.s_msg.(h) in
      s.s_link.(b) <- -1;
      Event_queue.push eng.eg_q ~time:arrival ((b lsl 1) lor tag_batch);
      j := eng.eg_bc_next;
      eng.eg_bc_time.(!j) <- arrival;
      eng.eg_bc_tail.(!j) <- b;
      eng.eg_bc_next <- (!j + 1) mod bc_slots
    end;
    s.s_link.(eng.eg_bc_tail.(!j)) <- h;
    eng.eg_bc_tail.(!j) <- h

  (* Batching one instant's arrivals is sound exactly when no interleaved
     event at that instant can observe the reordering: the instant must
     not be a tick (no boundary closes the round there, and no timer
     draws from the rng between two deliveries), and the latency must be
     Const (so every same-instant data copy rides the batch and their
     relative order — the rng draw order of their acks — is append order).
     Callers test the latency ([eg_batching]) first: on any other link
     that spares the call, and the float it boxes, per copy. *)
  let batchable eng ~now ~arrival =
    arrival > now && Timer_wheel.index_of_time eng.eg_wheel arrival < 0

  (* -- the per-copy hot path ------------------------------------------- *)

  let transmit eng ~now ~round ~sender ~dest ~copy ~bytes msg =
    let wire = eng.eg_wire in
    let rng = eng.eg_rng in
    let inj = eng.eg_inj in
    wire.Net_stats.w_copies <- wire.Net_stats.w_copies + 1;
    wire.Net_stats.w_data_bytes <- wire.Net_stats.w_data_bytes + bytes;
    if copy > 0 then
      wire.Net_stats.w_retransmissions <- wire.Net_stats.w_retransmissions + 1;
    if Inject.blocks_send inj rng ~round ~sender ~receiver:dest then
      wire.Net_stats.w_dropped_fault <- wire.Net_stats.w_dropped_fault + 1
    else if Inject.cut inj ~now ~src:sender ~dst:dest then
      wire.Net_stats.w_dropped_cut <- wire.Net_stats.w_dropped_cut + 1
    else
      let link = eng.eg_link in
      if link.Link.loss > 0.0 && Random.State.float rng 1.0 < link.Link.loss then
        wire.Net_stats.w_dropped_loss <- wire.Net_stats.w_dropped_loss + 1
      else begin
        let l = Link.sample_latency rng link.Link.lat in
        let ns = ns_of_seconds l in
        wire.Net_stats.w_latency_ns_sum <- wire.Net_stats.w_latency_ns_sum + ns;
        if ns > wire.Net_stats.w_latency_ns_max then
          wire.Net_stats.w_latency_ns_max <- ns;
        let bucket =
          min
            (Net_stats.hist_buckets - 1)
            (int_of_float
               (float_of_int Net_stats.hist_buckets
               *. l
               /. eng.eg_sync.Sync.round_duration))
        in
        wire.Net_stats.w_latency_hist.(bucket) <-
          wire.Net_stats.w_latency_hist.(bucket) + 1;
        let arrival = now +. l in
        let h = alloc_slot eng.eg_slab ~round ~sender ~dest ~bytes msg in
        if eng.eg_batching && batchable eng ~now ~arrival then
          batch_deliver eng ~arrival h
        else Event_queue.push eng.eg_q ~time:arrival ((h lsl 1) lor tag_deliver)
      end

  (* An ack's loss and latency are drawn here, where the reference pushes
     the ack's heap cell.  All that cell would do is tell the data
     sender's later timers that the copy got through, so the sender's
     node records its key [(arrival, seqno)], the seqno drawn where the
     reference's push draws it, and each timer compares its own key with
     it.  Every ack of round r is sent in round r's window ([accept]
     answers [`Late] otherwise), and the sender's next [start_round]
     drops the record, as the reference's round guard drops an ack that
     lands after the boundary.  The reference processes every ack it
     pushes: one event here too. *)
  let send_ack eng ~now ~round ~from ~to_ =
    let wire = eng.eg_wire in
    let rng = eng.eg_rng in
    let inj = eng.eg_inj in
    wire.Net_stats.w_acks <- wire.Net_stats.w_acks + 1;
    wire.Net_stats.w_ack_bytes <-
      wire.Net_stats.w_ack_bytes + Eba_protocols.Protocol_intf.Wire.header;
    if Inject.cut inj ~now ~src:from ~dst:to_ then
      wire.Net_stats.w_dropped_cut <- wire.Net_stats.w_dropped_cut + 1
    else
      let link = eng.eg_link in
      if link.Link.loss > 0.0 && Random.State.float rng 1.0 < link.Link.loss then
        wire.Net_stats.w_dropped_loss <- wire.Net_stats.w_dropped_loss + 1
      else begin
        let l = Link.sample_latency rng link.Link.lat in
        eng.eg_evt <- eng.eg_evt + 1;
        N.ack eng.eg_nodes.(to_) ~round ~dest:from ~time:(now +. l)
          ~seq:(Event_queue.alloc_seq eng.eg_q)
      end

  let deliver eng ~now ~round ~sender ~dest ~bytes msg =
    let wire = eng.eg_wire in
    if Inject.dead eng.eg_inj ~now ~proc:dest then
      wire.Net_stats.w_to_dead <- wire.Net_stats.w_to_dead + 1
    else
      match N.accept eng.eg_nodes.(dest) ~round ~sender msg with
      | `Fresh ->
          eng.eg_del <- eng.eg_del + 1;
          wire.Net_stats.w_delivered_bytes <-
            wire.Net_stats.w_delivered_bytes + bytes;
          send_ack eng ~now ~round ~from:dest ~to_:sender
      | `Duplicate ->
          wire.Net_stats.w_duplicates <- wire.Net_stats.w_duplicates + 1;
          send_ack eng ~now ~round ~from:dest ~to_:sender
      | `Late -> wire.Net_stats.w_late <- wire.Net_stats.w_late + 1

  (* One delivery event: its fields are read out and its slot freed
     before the copy is offered (delivering allocates no slot). *)
  let deliver_slot eng ~now h =
    let s = eng.eg_slab in
    let round = s.s_round.(h) and sender = s.s_sender.(h) in
    let dest = s.s_dest.(h) and bytes = s.s_bytes.(h) and msg = s.s_msg.(h) in
    free_slot s h;
    eng.eg_evt <- eng.eg_evt + 1;
    deliver eng ~now ~round ~sender ~dest ~bytes msg

  (* The timer in slot [h] fires at [(now, seq)]. *)
  let timer_fire eng ~now ~seq h =
    eng.eg_evt <- eng.eg_evt + 1;
    let s = eng.eg_slab in
    let round = s.s_round.(h) and sender = s.s_sender.(h) and dest = s.s_dest.(h) in
    let node = eng.eg_nodes.(sender) in
    if
      (not (Inject.dead eng.eg_inj ~now ~proc:sender))
      && N.round node = round
      && not (N.acked node ~dest ~time:now ~seq)
    then begin
      let copy = s.s_copy.(h) in
      transmit eng ~now ~round ~sender ~dest ~copy ~bytes:s.s_bytes.(h) s.s_msg.(h);
      if
        copy < eng.eg_sync.Sync.max_retries
        && now +. eng.eg_sync.Sync.rto < eng.eg_round_end.(round)
      then begin
        (* re-arm the same slot in place: one timer slot per (sender,
           dest, round), however many retries it climbs *)
        s.s_copy.(h) <- copy + 1;
        eng.eg_reuses <- eng.eg_reuses + 1;
        arm eng h ~time:(now +. eng.eg_sync.Sync.rto)
      end
      else free_timer eng h
    end
    else free_timer eng h

  let fire_boundary eng tick =
    let now = eng.eg_wheel.Timer_wheel.tw_times.(tick) in
    let k = eng.eg_tick_round.(tick) in
    let params = eng.eg_params in
    let n = params.Params.n and horizon = params.Params.horizon in
    let nodes = eng.eg_nodes in
    let inj = eng.eg_inj in
    eng.eg_evt <- eng.eg_evt + 1;
    if k >= 1 then
      Array.iter
        (fun node ->
          if not (Inject.dead inj ~now ~proc:(N.me node)) then
            N.finish_round params node ~sim_time:now)
        nodes;
    if k < horizon then begin
      let round = k + 1 in
      let round_end = eng.eg_round_end.(round) in
      Array.iter
        (fun node ->
          let i = N.me node in
          if not (Inject.dead inj ~now ~proc:i) then begin
            let out = N.start_round params node ~round in
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
                    eng.eg_att <- eng.eg_att + 1;
                    let bytes = size_of msg in
                    transmit eng ~now ~round ~sender:i ~dest ~copy:0 ~bytes msg;
                    if
                      eng.eg_sync.Sync.max_retries > 0
                      && now +. eng.eg_sync.Sync.rto < round_end
                    then begin
                      let s = eng.eg_slab in
                      let h = alloc_slot s ~round ~sender:i ~dest ~bytes msg in
                      s.s_copy.(h) <- 1;
                      arm eng h ~time:(now +. eng.eg_sync.Sync.rto)
                    end
            done
          end)
        nodes
    end

  (* A batch's deliveries, in append (= sequence) order: their rng draws
     must replay exactly.  Each is one simulated event, as a per-copy
     heap cell would be. *)
  let drain_batch eng ~now b =
    let s = eng.eg_slab in
    let h = ref s.s_link.(b) in
    while !h >= 0 do
      let d = !h in
      h := s.s_link.(d);
      eng.eg_batched <- eng.eg_batched + 1;
      deliver_slot eng ~now d
    done;
    eng.eg_reuses <- eng.eg_reuses + 1;
    free_slot s b

  (* The heap's earliest event, at its instant: the time is read before
     [take] moves the next event into the top slot. *)
  let process_heap eng =
    let q = eng.eg_q in
    let now = q.Event_queue.eq_times.(0) in
    let ev = Event_queue.take q in
    if ev land 1 = tag_deliver then deliver_slot eng ~now (ev lsr 1)
    else drain_batch eng ~now (ev lsr 1)

  (* The merged event loop.  The reference is the heap-only schedule: one
     run, every boundary, copy, ack and timer its own heap cell keyed by
     (time, seqno), boundaries pushed before anything else.  Invariant:
     events are processed in exact global (time, seqno) order, except that
     (a) a boundary fires once every earlier event has drained — sound
     because in the heap-only schedule a boundary's sequence number is
     smaller than any same-instant event's — (b) batches reorder only
     provably commuting same-instant arrivals, and (c) an ack takes
     effect as a key in its sender's node, which each timer compares with
     its own.  The processing order is therefore the heap-only
     schedule's, which is why outcomes are bit-identical to it.

     Each step reads both candidates' keys in place — the heap top's
     [(time, seqno)] and the cursor slot's instant and head seqno — so
     choosing the next event allocates nothing. *)
  let drive eng =
    let q = eng.eg_q and w = eng.eg_wheel in
    let nticks = Array.length w.Timer_wheel.tw_times in
    let continue = ref true in
    while !continue do
      let c = w.Timer_wheel.tw_cursor in
      if c < nticks then begin
        let tc = w.Timer_wheel.tw_times.(c) in
        if q.Event_queue.eq_len > 0 && q.Event_queue.eq_times.(0) < tc then
          process_heap eng
        else if eng.eg_is_boundary.(c) then begin
          eng.eg_ticks_fired <- eng.eg_ticks_fired + 1;
          fire_boundary eng c;
          Timer_wheel.advance w
        end
        else
          let next = w.Timer_wheel.tw_next.(c) in
          if next >= w.Timer_wheel.tw_len.(c) then Timer_wheel.advance w
          else
            let seq = w.Timer_wheel.tw_seqs.(c).(next) in
            if
              q.Event_queue.eq_len > 0
              && q.Event_queue.eq_times.(0) = tc
              && q.Event_queue.eq_seqs.(0) < seq
            then process_heap eng
            else begin
              eng.eg_ticks_fired <- eng.eg_ticks_fired + 1;
              timer_fire eng ~now:tc ~seq (Timer_wheel.take w)
            end
      end
      else if Event_queue.is_empty q then continue := false
      else process_heap eng
    done

  let flush_metrics eng =
    let wire = eng.eg_wire in
    Metrics.incr m_runs;
    Metrics.add m_events eng.eg_evt;
    Metrics.add m_copies wire.Net_stats.w_copies;
    Metrics.add m_retrans wire.Net_stats.w_retransmissions;
    Metrics.add m_acks wire.Net_stats.w_acks;
    Metrics.add m_delivered eng.eg_del;
    Metrics.add m_bytes wire.Net_stats.w_data_bytes;
    Metrics.add m_dropped
      (wire.Net_stats.w_dropped_fault + wire.Net_stats.w_dropped_loss
     + wire.Net_stats.w_dropped_cut);
    Metrics.add m_mux_ticks eng.eg_ticks_fired;
    Metrics.add m_mux_batched eng.eg_batched;
    Metrics.add m_mux_arena eng.eg_reuses

  (* The adversary is compiled from [rng] after whatever the caller
     already drew from it (a sweep draws the initial configuration
     first). *)
  let run_one eng ~rng config =
    let params = eng.eg_params in
    Event_queue.clear eng.eg_q;
    Timer_wheel.reset eng.eg_wheel;
    eng.eg_slab.s_nfree <- 0;
    eng.eg_slab.s_hi <- 0;
    eng.eg_rng <- rng;
    eng.eg_inj <- Inject.compile rng params ~total_time:eng.eg_total eng.eg_plan;
    Array.iteri
      (fun p node ->
        N.reset params node ~me:p (Config.value config p) ~sim_time:0.0)
      eng.eg_nodes;
    Net_stats.wire_reset eng.eg_wire;
    eng.eg_att <- 0;
    eng.eg_del <- 0;
    eng.eg_evt <- 0;
    Array.fill eng.eg_bc_time 0 bc_slots neg_infinity;
    eng.eg_bc_next <- 0;
    eng.eg_ticks_fired <- 0;
    eng.eg_batched <- 0;
    (* the nodes, wire record and batch cache, recycled in place rather
       than reallocated *)
    eng.eg_reuses <- 1;
    drive eng;
    if Metrics.enabled () then flush_metrics eng;
    let nodes = eng.eg_nodes in
    {
      Net_stats.o_decisions = Array.map N.decision nodes;
      o_decision_sim_ns =
        Array.map
          (fun node -> Option.map ns_of_seconds (N.decision_sim_time node))
          nodes;
      o_faulty = Inject.faulty eng.eg_inj;
      o_unanimous = Config.all_equal config;
      o_attempted = eng.eg_att;
      o_delivered = eng.eg_del;
      o_wire = eng.eg_wire;
    }

  type sweep_acc = {
    sa_st : Net_stats.state;
    mutable sa_eng : engine option;
  }

  let sweep_state ?jobs ?cancel ?progress (params : Params.t) ~sync ~topology
      ~dynamic ~rng_of_run ~runs =
    (* up front, so a sweep of no runs still rejects a bad fabric *)
    check params ~sync ~topology;
    let plan = Inject.Dynamic dynamic in
    let n = params.Params.n in
    let init () = { sa_st = Net_stats.fresh_state (); sa_eng = None } in
    let fold acc run =
      Eba_util.Cancel.check_opt cancel;
      let eng =
        match acc.sa_eng with
        | Some e -> e
        | None ->
            let e = create params ~sync ~topology ~plan in
            acc.sa_eng <- Some e;
            e
      in
      let rng = rng_of_run run in
      Net_stats.consume acc.sa_st (run_one eng ~rng (random_config ~n rng));
      match progress with None -> () | Some f -> f ()
    in
    let merge a b = Net_stats.merge a.sa_st b.sa_st in
    let acc =
      (* one run per work unit: results merge exactly, so distribution
         over domains is free of ordering effects *)
      Parallel.map_reduce_seq ?jobs ~chunk:1 ~init ~fold ~merge
        (Seq.init runs Fun.id)
    in
    acc.sa_st
end
