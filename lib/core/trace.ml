module Model = Eba_fip.Model
module View = Eba_fip.View
module Bitset = Eba_util.Bitset
module Value = Eba_sim.Value
module Decision = Eba_sim.Decision
module Pattern = Eba_sim.Pattern
module Config = Eba_sim.Config

let pp_outcome fmt = function
  | Some { Decision.at; value } -> Format.fprintf fmt "D:%a@@%d" Value.pp value at
  | None -> Format.pp_print_string fmt "D:-"

let pp_decisions d ~run fmt () =
  let model = d.Kb_protocol.model in
  for i = 0 to Model.n model - 1 do
    Format.fprintf fmt "p%d %a  " i pp_outcome (Kb_protocol.outcome d ~run ~proc:i)
  done

let pp_run ?decisions model ~run fmt () =
  let r = Model.run_of_point model (Model.point model ~run ~time:0) in
  let store = model.Model.store in
  let nonfaulty = Model.nonfaulty model ~run in
  Format.fprintf fmt "run %d: config=%a pattern=%a@\n" run Config.pp r.Model.config
    Pattern.pp r.Model.pattern;
  for time = 0 to Model.horizon model do
    Format.fprintf fmt "  t=%d " time;
    for i = 0 to Model.n model - 1 do
      let v = Model.view model ~run ~time ~proc:i in
      Format.fprintf fmt "| p%d%s v=%a heard=%a%s "
        i
        (if Bitset.mem i nonfaulty then "" else "!")
        Value.pp (View.init_value store v) Bitset.pp (View.heard_from store v)
        (if View.knows_zero store v then " knows0" else "");
      match decisions with
      | Some d -> (
          match Kb_protocol.outcome d ~run ~proc:i with
          | Some { Decision.at; value } when at <= time ->
              Format.fprintf fmt "[%a] " Value.pp value
          | Some _ | None -> ())
      | None -> ()
    done;
    Format.fprintf fmt "@\n"
  done;
  match decisions with
  | Some d -> Format.fprintf fmt "  outcomes: %a@\n" (pp_decisions d ~run) ()
  | None -> ()
