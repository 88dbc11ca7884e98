module Params = Eba_sim.Params
module Config = Eba_sim.Config
module Pattern = Eba_sim.Pattern
module Value = Eba_sim.Value
module Decision = Eba_sim.Decision
module Metrics = Eba_util.Metrics

let m_runs = Metrics.counter "runner.runs_simulated"
let m_attempted = Metrics.counter "runner.messages_attempted"
let m_delivered = Metrics.counter "runner.messages_delivered"
let m_bytes = Metrics.counter "runner.bytes_attempted"

type trace = {
  decisions : Decision.t option array;
  messages_attempted : int;
  messages_delivered : int;
  bytes_attempted : int;
  bytes_delivered : int;
}

module Make (P : Protocol_intf.PROTOCOL) = struct
  type step_stats = {
    mutable attempted : int;
    mutable delivered : int;
    mutable bytes_attempted : int;
    mutable bytes_delivered : int;
  }

  let note_outputs states decisions time =
    Array.iteri
      (fun i st ->
        match (decisions.(i), P.output st) with
        | None, Some value -> decisions.(i) <- Some { Decision.at = time; value }
        | (Some _ | None), _ -> ())
      states

  let run (params : Params.t) config pattern =
    let n = params.Params.n in
    let states =
      Array.init n (fun i -> P.init params ~me:i (Config.value config i))
    in
    let decisions = Array.make n None in
    let stats = { attempted = 0; delivered = 0; bytes_attempted = 0; bytes_delivered = 0 } in
    note_outputs states decisions 0;
    for round = 1 to params.Params.horizon do
      let outgoing = Array.init n (fun i -> P.send params states.(i) ~round) in
      let arrived = Array.init n (fun _ -> Array.make n None) in
      for sender = 0 to n - 1 do
        if Array.length outgoing.(sender) <> n then
          invalid_arg "Runner: send must return one slot per destination";
        (* The full-information protocols share one message snapshot across
           destinations, so memoize the last sizing by physical equality:
           sizing an O(n)-payload message per destination would turn the
           send loop quadratic-in-n into cubic. *)
        let sized = ref None in
        for dest = 0 to n - 1 do
          if dest <> sender then
            match outgoing.(sender).(dest) with
            | None -> ()
            | Some msg ->
                let bytes =
                  match !sized with
                  | Some (m, b) when m == msg -> b
                  | Some _ | None ->
                      let b = P.wire_size params msg in
                      sized := Some (msg, b);
                      b
                in
                stats.attempted <- stats.attempted + 1;
                stats.bytes_attempted <- stats.bytes_attempted + bytes;
                if Pattern.delivers pattern ~round ~sender ~receiver:dest then begin
                  stats.delivered <- stats.delivered + 1;
                  stats.bytes_delivered <- stats.bytes_delivered + bytes;
                  arrived.(dest).(sender) <- Some msg
                end
        done
      done;
      for i = 0 to n - 1 do
        states.(i) <- P.receive params states.(i) ~round arrived.(i)
      done;
      note_outputs states decisions round
    done;
    if Metrics.enabled () then begin
      Metrics.incr m_runs;
      Metrics.add m_attempted stats.attempted;
      Metrics.add m_delivered stats.delivered;
      Metrics.add m_bytes stats.bytes_attempted
    end;
    {
      decisions;
      messages_attempted = stats.attempted;
      messages_delivered = stats.delivered;
      bytes_attempted = stats.bytes_attempted;
      bytes_delivered = stats.bytes_delivered;
    }
end
