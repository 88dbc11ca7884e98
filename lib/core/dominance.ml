module Model = Eba_fip.Model
module Bitset = Eba_util.Bitset
module Value = Eba_sim.Value
module Decision = Eba_sim.Decision

type verdict = {
  dominates : bool;
  strictly : bool;
  witness_strict : (int * int) option;
  witness_failure : (int * int) option;
}

let same_model (a : Kb_protocol.decisions) (b : Kb_protocol.decisions) =
  if a.Kb_protocol.model != b.Kb_protocol.model then
    invalid_arg "Dominance: decisions from different models"

let compare (d : Kb_protocol.decisions) (d' : Kb_protocol.decisions) =
  same_model d d';
  let model = d.Kb_protocol.model in
  let dominates = ref true
  and witness_failure = ref None
  and witness_strict = ref None in
  for run = 0 to Model.nruns model - 1 do
    Bitset.iter
      (fun i ->
        let o = Kb_protocol.outcome d ~run ~proc:i
        and o' = Kb_protocol.outcome d' ~run ~proc:i in
        match (o, o') with
        | _, None -> ()
        | None, Some _ ->
            dominates := false;
            if !witness_failure = None then witness_failure := Some (run, i)
        | Some { Decision.at; _ }, Some { Decision.at = at'; _ } ->
            if at > at' then begin
              dominates := false;
              if !witness_failure = None then witness_failure := Some (run, i)
            end
            else if at < at' && !witness_strict = None then
              witness_strict := Some (run, i))
      (Model.nonfaulty model ~run)
  done;
  (* A strict improvement also counts when the dominating protocol decides
     in a run/processor where the dominated one never does. *)
  if !dominates && !witness_strict = None then begin
    try
      for run = 0 to Model.nruns model - 1 do
        Bitset.iter
          (fun i ->
            match
              (Kb_protocol.outcome d ~run ~proc:i, Kb_protocol.outcome d' ~run ~proc:i)
            with
            | Some _, None ->
                witness_strict := Some (run, i);
                raise Exit
            | (Some _ | None), _ -> ())
          (Model.nonfaulty model ~run)
      done
    with Exit -> ()
  end;
  {
    dominates = !dominates;
    strictly = !dominates && !witness_strict <> None;
    witness_strict = !witness_strict;
    witness_failure = !witness_failure;
  }

let dominates a b = (compare a b).dominates
let strictly_dominates a b = (compare a b).strictly

let equivalent (d : Kb_protocol.decisions) (d' : Kb_protocol.decisions) =
  same_model d d';
  let model = d.Kb_protocol.model in
  let same = ref true in
  for run = 0 to Model.nruns model - 1 do
    Bitset.iter
      (fun i ->
        let o = Kb_protocol.outcome d ~run ~proc:i
        and o' = Kb_protocol.outcome d' ~run ~proc:i in
        let eq =
          match (o, o') with
          | None, None -> true
          | Some { Decision.at; value }, Some { Decision.at = at'; value = value' }
            -> at = at' && Value.equal value value'
          | None, Some _ | Some _, None -> false
        in
        if not eq then same := false)
      (Model.nonfaulty model ~run)
  done;
  !same

let pp fmt v =
  Format.fprintf fmt "dominates=%b strictly=%b" v.dominates v.strictly;
  (match v.witness_strict with
  | Some (r, i) -> Format.fprintf fmt " sooner@(run %d, proc %d)" r i
  | None -> ());
  match v.witness_failure with
  | Some (r, i) -> Format.fprintf fmt " fails@(run %d, proc %d)" r i
  | None -> ()
