type t = { at : int; value : Value.t }

type verdict = {
  disagreement : bool;
  invalid : bool;
  undecided : int;
  decided : int;
  time_sum : int;
  time_max : int;
  simultaneous : bool;
}

(* Values and times are kept as ints, -1 for none yet, so the loop
   allocates nothing. *)
let judge ~faulty ~unanimous decisions ~pos ~n =
  let unanimous = match unanimous with Some v -> Value.to_int v | None -> -1 in
  let first_value = ref (-1) and first_time = ref (-1) in
  let disagreement = ref false and invalid = ref false and simultaneous = ref true in
  let undecided = ref 0 and decided = ref 0 and time_sum = ref 0 and time_max = ref 0 in
  for i = 0 to n - 1 do
    if not (faulty i) then
      match decisions.(pos + i) with
      | None -> incr undecided
      | Some { at; value } ->
          let value = Value.to_int value in
          incr decided;
          time_sum := !time_sum + at;
          if at > !time_max then time_max := at;
          if !first_value < 0 then begin
            first_value := value;
            first_time := at
          end
          else begin
            if value <> !first_value then disagreement := true;
            if at <> !first_time then simultaneous := false
          end;
          if unanimous >= 0 && value <> unanimous then invalid := true
  done;
  {
    disagreement = !disagreement;
    invalid = !invalid;
    undecided = !undecided;
    decided = !decided;
    time_sum = !time_sum;
    time_max = !time_max;
    simultaneous = !simultaneous;
  }

type tally = {
  mutable runs : int;
  mutable agreement_violations : int;
  mutable validity_violations : int;
  mutable undecided_nonfaulty : int;
  mutable decided_nonfaulty : int;
  mutable round_sum : int;
  mutable round_max : int;
  mutable attempted : int;
  mutable delivered : int;
  mutable bytes_attempted : int;
  mutable bytes_delivered : int;
}

let tally () =
  {
    runs = 0;
    agreement_violations = 0;
    validity_violations = 0;
    undecided_nonfaulty = 0;
    decided_nonfaulty = 0;
    round_sum = 0;
    round_max = 0;
    attempted = 0;
    delivered = 0;
    bytes_attempted = 0;
    bytes_delivered = 0;
  }

let add s v =
  s.runs <- s.runs + 1;
  if v.disagreement then s.agreement_violations <- s.agreement_violations + 1;
  if v.invalid then s.validity_violations <- s.validity_violations + 1;
  s.undecided_nonfaulty <- s.undecided_nonfaulty + v.undecided;
  s.decided_nonfaulty <- s.decided_nonfaulty + v.decided;
  s.round_sum <- s.round_sum + v.time_sum;
  s.round_max <- Int.max s.round_max v.time_max

let merge into from =
  into.runs <- into.runs + from.runs;
  into.agreement_violations <- into.agreement_violations + from.agreement_violations;
  into.validity_violations <- into.validity_violations + from.validity_violations;
  into.undecided_nonfaulty <- into.undecided_nonfaulty + from.undecided_nonfaulty;
  into.decided_nonfaulty <- into.decided_nonfaulty + from.decided_nonfaulty;
  into.round_sum <- into.round_sum + from.round_sum;
  into.round_max <- Int.max into.round_max from.round_max;
  into.attempted <- into.attempted + from.attempted;
  into.delivered <- into.delivered + from.delivered;
  into.bytes_attempted <- into.bytes_attempted + from.bytes_attempted;
  into.bytes_delivered <- into.bytes_delivered + from.bytes_delivered

let mean_round s =
  if s.decided_nonfaulty = 0 then 0.0
  else float_of_int s.round_sum /. float_of_int s.decided_nonfaulty
