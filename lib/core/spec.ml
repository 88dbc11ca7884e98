module Model = Eba_fip.Model
module Value = Eba_sim.Value
module Decision = Eba_sim.Decision
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

(* Judges every run of [d], handing each verdict and the run's unanimous
   initial value to [f], and tallies the verdicts. *)
let judge_runs (d : Kb_protocol.decisions) f =
  let model = d.Kb_protocol.model in
  let n = Model.n model in
  let tally = Decision.tally () in
  Array.iter
    (fun (run : Model.run) ->
      let unanimous = Config.all_equal run.config in
      let v =
        Decision.judge
          ~faulty:(fun i -> Bitset.mem i run.faulty)
          ~unanimous d.Kb_protocol.table ~pos:(run.index * n) ~n
      in
      Decision.add tally v;
      f unanimous v)
    model.Model.runs;
  tally

let tally d = judge_runs d (fun _ _ -> ())

let check (d : Kb_protocol.decisions) =
  let model = d.Kb_protocol.model in
  let validity = ref true and simultaneity = ref true in
  let tally =
    judge_runs d (fun unanimous (v : Decision.verdict) ->
        if Option.is_some unanimous && v.undecided > 0 then validity := false;
        if not v.simultaneous then simultaneity := false)
  in
  let weak_agreement = tally.agreement_violations = 0 in
  let weak_validity = tally.validity_violations = 0 in
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
    weak_validity;
    validity = !validity && weak_validity;
    decision = tally.undecided_nonfaulty = 0;
    simultaneity = !simultaneity;
    unambiguous = not nonfaulty_ambiguity;
    max_decision_time =
      (if tally.decided_nonfaulty = 0 then None else Some tally.round_max);
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
