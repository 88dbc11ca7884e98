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

  (* A retransmission timer.  Mutable throughout so one record re-arms in
     place across its retry ladder and recycles through the free list
     across runs. *)
  type timer = {
    mutable tm_round : int;
    mutable tm_sender : int;
    mutable tm_dest : int;
    mutable tm_copy : int;
    mutable tm_bytes : int;
    mutable tm_msg : P.msg;
  }

  (* All copies (data and acks) landing at one instant under a uniform
     constant-latency fabric, stored struct-of-arrays in append order.  One
     heap cell replaces them all; see [batchable] for why this is only
     sound at non-tick instants. *)
  type batch = {
    mutable bt_dn : int;
    mutable bt_dround : int array;
    mutable bt_dsender : int array;
    mutable bt_ddest : int array;
    mutable bt_dbytes : int array;
    mutable bt_dmsg : P.msg array;
    mutable bt_an : int;
    mutable bt_around : int array;
    mutable bt_afrom : int array;
    mutable bt_ato : int array;
  }

  type ev =
    | Deliver of {
        v_round : int;
        v_sender : int;
        v_dest : int;
        v_bytes : int;
        v_msg : P.msg;
      }
    | Ack of { k_round : int; k_from : int; k_to : int }
    | Batch of batch
    | Heap_timer of timer
        (* defensive fallback: a fire instant that missed the tick
           schedule (float absorption) rides the heap — same (time, seq)
           key, same semantics *)

  type engine = {
    eg_params : Params.t;
    eg_sync : Sync.t;
    eg_topology : Topology.t;
    eg_plan : Inject.plan;
    eg_total : float;  (* horizon * round_duration, the compile bound *)
    eg_round_end : float array;  (* index by round, 0 .. horizon *)
    eg_is_boundary : bool array;  (* per tick *)
    eg_tick_round : int array;  (* boundary index k, or retry round *)
    eg_wheel : timer Timer_wheel.t;
    eg_q : ev Event_queue.t;
    eg_ulink : Link.t option;  (* the one link, when no overrides *)
    eg_batching : bool;  (* uniform link with Const latency *)
    (* the run's state: nodes and wire record recycled across runs *)
    eg_nodes : N.t array;
    eg_wire : Net_stats.wire;
    mutable eg_rng : Random.State.t;
    mutable eg_inj : Inject.compiled;
    mutable eg_att : int;
    mutable eg_del : int;
    mutable eg_evt : int;
    (* cache of open batches: parallel (arrival, batch) *)
    eg_bc_time : float array;
    eg_bc : batch array;
    mutable eg_bc_next : int;
    (* free lists *)
    mutable eg_free_timers : timer list;
    mutable eg_free_batches : batch list;
    (* run-local accounting, flushed to Metrics per run *)
    mutable eg_ticks_fired : int;
    mutable eg_batched : int;
    mutable eg_reuses : int;
  }

  let bc_slots = 4

  let dummy_batch =
    {
      bt_dn = 0;
      bt_dround = [||];
      bt_dsender = [||];
      bt_ddest = [||];
      bt_dbytes = [||];
      bt_dmsg = [||];
      bt_an = 0;
      bt_around = [||];
      bt_afrom = [||];
      bt_ato = [||];
    }

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
    let ulink = Topology.uniform_link topology in
    let batching =
      match ulink with
      | Some { Link.lat = Link.Const _; _ } -> true
      | Some _ | None -> false
    in
    let dummy_rng = Random.State.make [| 0 |] in
    let total = float_of_int horizon *. d in
    {
      eg_params = params;
      eg_sync = sync;
      eg_topology = topology;
      eg_plan = plan;
      eg_total = total;
      eg_round_end = Array.init (horizon + 1) (fun r -> float_of_int r *. d);
      eg_is_boundary = is_boundary;
      eg_tick_round = tick_round;
      eg_wheel = Timer_wheel.create ~times;
      eg_q = Event_queue.create ();
      eg_ulink = ulink;
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
      eg_bc = Array.make bc_slots dummy_batch;
      eg_bc_next = 0;
      eg_free_timers = [];
      eg_free_batches = [];
      eg_ticks_fired = 0;
      eg_batched = 0;
      eg_reuses = 0;
    }

  (* -- timers ---------------------------------------------------------- *)

  let alloc_timer eng ~round ~sender ~dest ~copy ~bytes msg =
    match eng.eg_free_timers with
    | tm :: rest ->
        eng.eg_free_timers <- rest;
        tm.tm_round <- round;
        tm.tm_sender <- sender;
        tm.tm_dest <- dest;
        tm.tm_copy <- copy;
        tm.tm_bytes <- bytes;
        tm.tm_msg <- msg;
        tm
    | [] ->
        {
          tm_round = round;
          tm_sender = sender;
          tm_dest = dest;
          tm_copy = copy;
          tm_bytes = bytes;
          tm_msg = msg;
        }

  (* arena accounting counts returns and in-place recycles — pure
     per-run functions of the workload, unlike free-list hit rates,
     which depend on how runs distribute over worker engines *)
  let free_timer eng tm =
    eng.eg_reuses <- eng.eg_reuses + 1;
    eng.eg_free_timers <- tm :: eng.eg_free_timers

  (* Arm a timer at [time].  In the heap-only schedule this is a heap
     push, consuming one sequence number — the wheel draws the same number
     from the shared counter so the merged order is identical. *)
  let arm eng tm ~time =
    let w = eng.eg_wheel in
    let tick = Timer_wheel.index_of_time w time in
    (* a miss is -1, below any cursor *)
    if tick >= w.Timer_wheel.tw_cursor then
      Timer_wheel.schedule w ~tick ~seq:(Event_queue.alloc_seq eng.eg_q) tm
    else Event_queue.push eng.eg_q ~time (Heap_timer tm)

  (* -- batches --------------------------------------------------------- *)

  let alloc_batch eng =
    let b =
      match eng.eg_free_batches with
      | b :: rest ->
          eng.eg_free_batches <- rest;
          b
      | [] -> { dummy_batch with bt_dn = 0 }
    in
    b.bt_dn <- 0;
    b.bt_an <- 0;
    b

  let free_batch eng b =
    eng.eg_reuses <- eng.eg_reuses + 1;
    eng.eg_free_batches <- b :: eng.eg_free_batches

  (* An open batch for this arrival instant, creating and scheduling one
     if none is cached.  Stale cache entries can never collide: an open
     batch's instant is strictly in the future, and each run wipes the
     cache before simulated time restarts. *)
  let batch_at eng ~arrival =
    let rec scan j =
      if j = bc_slots then None
      else if eng.eg_bc_time.(j) = arrival then Some eng.eg_bc.(j)
      else scan (j + 1)
    in
    match scan 0 with
    | Some b -> b
    | None ->
        let b = alloc_batch eng in
        Event_queue.push eng.eg_q ~time:arrival (Batch b);
        let slot = eng.eg_bc_next in
        eng.eg_bc_time.(slot) <- arrival;
        eng.eg_bc.(slot) <- b;
        eng.eg_bc_next <- (slot + 1) mod bc_slots;
        b

  let push_int a len v =
    let cap = Array.length !a in
    if len = cap then begin
      let na = Array.make (max 8 (2 * cap)) 0 in
      Array.blit !a 0 na 0 len;
      a := na
    end;
    !a.(len) <- v

  let push_msg a len (v : P.msg) =
    let cap = Array.length !a in
    if len = cap then begin
      let na = Array.make (max 8 (2 * cap)) v in
      Array.blit !a 0 na 0 len;
      a := na
    end;
    !a.(len) <- v

  let batch_deliver b ~round ~sender ~dest ~bytes msg =
    let len = b.bt_dn in
    let r = ref b.bt_dround in
    push_int r len round;
    b.bt_dround <- !r;
    let r = ref b.bt_dsender in
    push_int r len sender;
    b.bt_dsender <- !r;
    let r = ref b.bt_ddest in
    push_int r len dest;
    b.bt_ddest <- !r;
    let r = ref b.bt_dbytes in
    push_int r len bytes;
    b.bt_dbytes <- !r;
    let r = ref b.bt_dmsg in
    push_msg r len msg;
    b.bt_dmsg <- !r;
    b.bt_dn <- len + 1

  let batch_ack b ~round ~from ~to_ =
    let len = b.bt_an in
    let r = ref b.bt_around in
    push_int r len round;
    b.bt_around <- !r;
    let r = ref b.bt_afrom in
    push_int r len from;
    b.bt_afrom <- !r;
    let r = ref b.bt_ato in
    push_int r len to_;
    b.bt_ato <- !r;
    b.bt_an <- len + 1

  (* Batching one instant's arrivals is sound exactly when no interleaved
     event at that instant can observe the reordering: the instant must
     not be a tick (no boundary closes the round, no timer reads the ack
     flags there), and the fabric must be uniform Const (so every
     same-instant data copy rides the batch and their relative order — the
     rng draw order — is append order; acks draw nothing and only set
     idempotent flags, so they commute and drain after the data
     copies).  Callers test the fabric ([eg_batching]) first: on any
     other fabric that spares the call, and the float it boxes, per
     copy. *)
  let batchable eng ~now ~arrival =
    arrival > now && Timer_wheel.index_of_time eng.eg_wheel arrival < 0

  (* -- the per-copy hot path ------------------------------------------- *)

  let link_of eng ~src ~dst =
    match eng.eg_ulink with
    | Some l -> l
    | None -> Topology.link eng.eg_topology ~src ~dst

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
      let link = link_of eng ~src:sender ~dst:dest in
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
        if eng.eg_batching && batchable eng ~now ~arrival then
          batch_deliver (batch_at eng ~arrival) ~round ~sender ~dest ~bytes msg
        else
          Event_queue.push eng.eg_q ~time:arrival
            (Deliver
               {
                 v_round = round;
                 v_sender = sender;
                 v_dest = dest;
                 v_bytes = bytes;
                 v_msg = msg;
               })
      end

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
      let link = link_of eng ~src:from ~dst:to_ in
      if link.Link.loss > 0.0 && Random.State.float rng 1.0 < link.Link.loss then
        wire.Net_stats.w_dropped_loss <- wire.Net_stats.w_dropped_loss + 1
      else
        let l = Link.sample_latency rng link.Link.lat in
        let arrival = now +. l in
        if eng.eg_batching && batchable eng ~now ~arrival then
          batch_ack (batch_at eng ~arrival) ~round ~from ~to_
        else
          Event_queue.push eng.eg_q ~time:arrival
            (Ack { k_round = round; k_from = from; k_to = to_ })

  let deliver eng ~now ~round ~sender ~dest ~bytes msg =
    let wire = eng.eg_wire in
    if Inject.dead eng.eg_inj ~now ~proc:dest then
      wire.Net_stats.w_to_dead <- wire.Net_stats.w_to_dead + 1
    else
      match N.accept eng.eg_nodes.(dest) ~round ~sender ~bytes msg with
      | `Fresh ->
          eng.eg_del <- eng.eg_del + 1;
          wire.Net_stats.w_delivered_bytes <-
            wire.Net_stats.w_delivered_bytes + bytes;
          send_ack eng ~now ~round ~from:dest ~to_:sender
      | `Duplicate ->
          wire.Net_stats.w_duplicates <- wire.Net_stats.w_duplicates + 1;
          send_ack eng ~now ~round ~from:dest ~to_:sender
      | `Late -> wire.Net_stats.w_late <- wire.Net_stats.w_late + 1

  let timer_fire eng ~now tm =
    eng.eg_evt <- eng.eg_evt + 1;
    let node = eng.eg_nodes.(tm.tm_sender) in
    if
      (not (Inject.dead eng.eg_inj ~now ~proc:tm.tm_sender))
      && N.round node = tm.tm_round
      && not (N.acked node ~dest:tm.tm_dest)
    then begin
      transmit eng ~now ~round:tm.tm_round ~sender:tm.tm_sender
        ~dest:tm.tm_dest ~copy:tm.tm_copy ~bytes:tm.tm_bytes tm.tm_msg;
      if
        tm.tm_copy < eng.eg_sync.Sync.max_retries
        && now +. eng.eg_sync.Sync.rto < eng.eg_round_end.(tm.tm_round)
      then begin
        (* re-arm the same record in place: one timer allocation per
           (sender, dest, round), however many retries it climbs *)
        tm.tm_copy <- tm.tm_copy + 1;
        eng.eg_reuses <- eng.eg_reuses + 1;
        arm eng tm ~time:(now +. eng.eg_sync.Sync.rto)
      end
      else free_timer eng tm
    end
    else free_timer eng tm

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
                    then
                      arm eng
                        (alloc_timer eng ~round ~sender:i ~dest ~copy:1 ~bytes
                           msg)
                        ~time:(now +. eng.eg_sync.Sync.rto)
            done
          end)
        nodes
    end

  let dispatch eng ~now ev =
    match ev with
    | Deliver { v_round; v_sender; v_dest; v_bytes; v_msg } ->
        eng.eg_evt <- eng.eg_evt + 1;
        deliver eng ~now ~round:v_round ~sender:v_sender ~dest:v_dest
          ~bytes:v_bytes v_msg
    | Ack { k_round; k_from; k_to } ->
        eng.eg_evt <- eng.eg_evt + 1;
        N.ack eng.eg_nodes.(k_to) ~round:k_round ~dest:k_from
    | Heap_timer tm -> timer_fire eng ~now tm
    | Batch b ->
        (* each batched copy is one simulated event, same as a per-copy
           heap cell *)
        eng.eg_evt <- eng.eg_evt + b.bt_dn + b.bt_an;
        eng.eg_batched <- eng.eg_batched + b.bt_dn + b.bt_an;
        (* data copies first, in append (= sequence) order — their rng
           draws must replay exactly; the draw-free acks commute and
           drain after *)
        for j = 0 to b.bt_dn - 1 do
          deliver eng ~now ~round:b.bt_dround.(j)
            ~sender:b.bt_dsender.(j) ~dest:b.bt_ddest.(j)
            ~bytes:b.bt_dbytes.(j) b.bt_dmsg.(j)
        done;
        for j = 0 to b.bt_an - 1 do
          N.ack eng.eg_nodes.(b.bt_ato.(j)) ~round:b.bt_around.(j)
            ~dest:b.bt_afrom.(j)
        done;
        free_batch eng b

  (* The heap's earliest event, at its instant: the time is read before
     [take] moves the next event into the top slot. *)
  let process_heap eng =
    let q = eng.eg_q in
    let now = q.Event_queue.eq_times.(0) in
    dispatch eng ~now (Event_queue.take q)

  (* The merged event loop.  The reference is the heap-only schedule: one
     run, every boundary, copy, ack and timer its own heap cell keyed by
     (time, seqno), boundaries pushed before anything else.  Invariant:
     events are processed in exact global (time, seqno) order, except that
     (a) a boundary fires once every earlier event has drained — sound
     because in the heap-only schedule a boundary's sequence number is
     smaller than any same-instant event's — and (b) batches reorder only
     provably commuting same-instant arrivals.  The processing order is
     therefore the heap-only schedule's, which is why outcomes are
     bit-identical to it.

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
          else if
            q.Event_queue.eq_len > 0
            && q.Event_queue.eq_times.(0) = tc
            && q.Event_queue.eq_seqs.(0) < w.Timer_wheel.tw_seqs.(c).(next)
          then process_heap eng
          else begin
            eng.eg_ticks_fired <- eng.eg_ticks_fired + 1;
            timer_fire eng ~now:tc (Timer_wheel.take w)
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
