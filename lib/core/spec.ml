module Model = Eba_fip.Model
module Value = Eba_sim.Value
module Config = Eba_sim.Config
module Bitset = Eba_util.Bitset

type report = {
  weak_agreement : bool;
  agreement : bool;
  weak_validity : bool;
  validity : bool;
  decision : bool;
  simultaneity : bool;
  unambiguous : bool;
  max_decision_time : int option;
}

(* One pass over each run's processors, keeping values and times as ints
   (-1 for none), so a run allocates nothing. *)
let check (d : Kb_protocol.decisions) =
  let model = d.Kb_protocol.model in
  let n = Model.n model in
  let weak_agreement = ref true
  and weak_validity = ref true
  and validity = ref true
  and decision = ref true
  and simultaneity = ref true in
  let max_time = ref (-1) in
  Array.iteri
    (fun r (run : Model.run) ->
      let nonfaulty = Model.nonfaulty model ~run:r in
      (* the unanimous initial value, or -1 *)
      let first = Value.to_int (Config.value run.config 0) in
      let unanimous = ref first in
      for j = 1 to n - 1 do
        if Value.to_int (Config.value run.config j) <> first then unanimous := -1
      done;
      let unanimous = !unanimous in
      let seen_value = ref (-1) and seen_time = ref (-1) in
      for i = 0 to n - 1 do
        if Bitset.mem i nonfaulty then
          match Kb_protocol.outcome d ~run:r ~proc:i with
          | None ->
              decision := false;
              if unanimous >= 0 then validity := false
          | Some { Kb_protocol.at; value } ->
              let value = Value.to_int value in
              if at > !max_time then max_time := at;
              if !seen_value < 0 then seen_value := value
              else if !seen_value <> value then weak_agreement := false;
              if !seen_time < 0 then seen_time := at
              else if !seen_time <> at then simultaneity := false;
              if unanimous >= 0 && unanimous <> value then begin
                weak_validity := false;
                validity := false
              end
      done)
    model.Model.runs;
  let weak_agreement = !weak_agreement in
  (* A view in both decision sets is only a real ambiguity for a processor
     that might be nonfaulty; a processor that knows its own faultiness
     satisfies B^N_i vacuously and its outputs are unconstrained. *)
  let nonfaulty_ambiguity =
    List.exists
      (fun (run, proc, _) -> Bitset.mem proc (Model.nonfaulty model ~run))
      d.Kb_protocol.ambiguities
  in
  {
    weak_agreement;
    agreement = weak_agreement;
    weak_validity = !weak_validity;
    validity = !validity && !weak_validity;
    decision = !decision;
    simultaneity = !simultaneity;
    unambiguous = not nonfaulty_ambiguity;
    max_decision_time = (if !max_time < 0 then None else Some !max_time);
  }

let is_nontrivial_agreement r = r.weak_agreement && r.weak_validity && r.unambiguous
let is_eba r = r.decision && r.agreement && r.validity && r.unambiguous
let is_sba r = is_eba r && r.simultaneity

let pp fmt r =
  Format.fprintf fmt
    "agreement=%b validity=%b decision=%b simultaneity=%b unambiguous=%b \
     weak_agreement=%b weak_validity=%b max_time=%s"
    r.agreement r.validity r.decision r.simultaneity r.unambiguous r.weak_agreement
    r.weak_validity
    (match r.max_decision_time with None -> "-" | Some t -> string_of_int t)
