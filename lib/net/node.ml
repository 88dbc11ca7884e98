module Params = Eba_sim.Params
module Value = Eba_sim.Value
module Decision = Eba_sim.Decision

module Make (P : Eba_protocols.Protocol_intf.PROTOCOL) = struct
  type t = {
    mutable nd_me : int;
    mutable nd_state : P.state;
    mutable nd_round : int;
    mutable nd_closed : bool;  (* current round already fed to [receive] *)
    mutable nd_inbox : P.msg option array;
        (* a [Some] slot: that sender got through this round *)
    mutable nd_ack_time : float array;
        (* per destination, the arrival instant of this round's earliest
           acknowledgement; [infinity] when none is on its way *)
    mutable nd_ack_seq : int array;  (* that acknowledgement's seqno *)
    mutable nd_decision : Decision.t option;
    mutable nd_decision_sim : float option;
  }

  let note_output node ~time ~sim_time =
    match node.nd_decision with
    | Some _ -> ()
    | None -> (
        match P.output node.nd_state with
        | None -> ()
        | Some value ->
            node.nd_decision <- Some { Decision.at = time; value };
            node.nd_decision_sim <- Some sim_time)

  let create (params : Params.t) ~me value ~sim_time =
    let n = params.Params.n in
    let node =
      {
        nd_me = me;
        nd_state = P.init params ~me value;
        nd_round = 0;
        nd_closed = true;
        nd_inbox = Array.make n None;
        nd_ack_time = Array.make n infinity;
        nd_ack_seq = Array.make n 0;
        nd_decision = None;
        nd_decision_sim = None;
      }
    in
    note_output node ~time:0 ~sim_time;
    node

  let reset (params : Params.t) node ~me value ~sim_time =
    let n = params.Params.n in
    if Array.length node.nd_inbox <> n then begin
      node.nd_inbox <- Array.make n None;
      node.nd_ack_time <- Array.make n infinity;
      node.nd_ack_seq <- Array.make n 0
    end
    else begin
      Array.fill node.nd_inbox 0 n None;
      Array.fill node.nd_ack_time 0 n infinity
    end;
    node.nd_me <- me;
    node.nd_state <- P.init params ~me value;
    node.nd_round <- 0;
    node.nd_closed <- true;
    node.nd_decision <- None;
    node.nd_decision_sim <- None;
    note_output node ~time:0 ~sim_time

  let me node = node.nd_me
  let round node = node.nd_round

  let start_round params node ~round =
    if round <> node.nd_round + 1 then
      invalid_arg "Node.start_round: rounds must be entered in order";
    node.nd_round <- round;
    node.nd_closed <- false;
    Array.fill node.nd_inbox 0 (Array.length node.nd_inbox) None;
    Array.fill node.nd_ack_time 0 (Array.length node.nd_ack_time) infinity;
    let out = P.send params node.nd_state ~round in
    if Array.length out <> Array.length node.nd_inbox then
      invalid_arg "Node: send must return one slot per destination";
    out

  let accept node ~round ~sender msg =
    if round <> node.nd_round || node.nd_closed then `Late
    else
      match node.nd_inbox.(sender) with
      | Some _ -> `Duplicate
      | None ->
          node.nd_inbox.(sender) <- Some msg;
          `Fresh

  (* Sequence numbers grow in the order acks are recorded, so a later ack
     at the same instant never precedes the one kept; the seqnos of a
     cleared slot are never read, since no instant equals [infinity]. *)
  let ack node ~round ~dest ~time ~seq =
    if round = node.nd_round && time < node.nd_ack_time.(dest) then begin
      node.nd_ack_time.(dest) <- time;
      node.nd_ack_seq.(dest) <- seq
    end

  let acked node ~dest ~time ~seq =
    let a = node.nd_ack_time.(dest) in
    a < time || (a = time && node.nd_ack_seq.(dest) < seq)

  let finish_round params node ~sim_time =
    node.nd_closed <- true;
    node.nd_state <- P.receive params node.nd_state ~round:node.nd_round node.nd_inbox;
    note_output node ~time:node.nd_round ~sim_time

  let decision node = node.nd_decision
  let decision_sim_time node = node.nd_decision_sim
  let state node = node.nd_state
end
