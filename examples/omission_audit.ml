(* The omission-mode story of Section 6, end to end.

   A fleet of sensor gateways votes on whether to raise an alarm; faulty
   gateways silently drop outgoing reports (sending omissions) without
   crashing.  Two lessons from the paper:

   1. Prop 6.3: the protocol that is optimal for crashes (F^Λ,2) can fail
      to terminate under omissions — we exhibit the exact run.
   2. Prop 6.4 / 6.6: the 0-chain protocol decides within f+1 rounds, and
      its two-step optimization F* is an optimal omission-mode EBA
      protocol.

     dune exec examples/omission_audit.exe
*)

let nontermination () =
  Format.printf "== Prop 6.3: crash-optimal protocol, omission failures ==@.";
  let params = Eba.Params.make ~n:4 ~t:2 ~horizon:2 ~mode:Eba.Params.Omission in
  let model = Eba.Model.build params in
  Format.printf "built %a@." Eba.Model.pp_stats model;
  let env = Eba.Formula.env model in
  let fl2 = Eba.Zoo.f_lambda_2 env in
  let d = Eba.Kb_protocol.decide model fl2 in
  let report = Eba.Spec.check d in
  Format.printf "F^L,2 under omissions: consistent (%b) but decision fails (%b)@."
    (Eba.Spec.is_nontrivial_agreement report)
    report.Eba.Spec.decision;
  (* the witness run: unanimous 1, gateway 0 silently drops everything *)
  let omits = Array.make 2 (Eba.Bitset.of_list [ 1; 2; 3 ]) in
  let pattern =
    Eba.Pattern.make params [ Eba.Pattern.omission ~horizon:2 ~proc:0 ~omits ]
  in
  let config = Eba.Config.constant ~n:4 Eba.Value.One in
  let run = Option.get (Eba.Model.find_run model ~config ~pattern) in
  Format.printf "witness: all vote 1, gateway 0 drops all reports:@.";
  for i = 1 to 3 do
    (match Eba.Kb_protocol.outcome d ~run:run.Eba.Model.index ~proc:i with
    | None -> Format.printf "  gateway %d (healthy) never decides@." i
    | Some { Eba.Decision.at; value } ->
        Format.printf "  gateway %d decides %a at %d@." i Eba.Value.pp value at)
  done

let chain_protocol () =
  Format.printf "@.== Prop 6.4/6.6: the 0-chain protocol and F* ==@.";
  let params = Eba.Params.make ~n:3 ~t:1 ~horizon:3 ~mode:Eba.Params.Omission in
  let model = Eba.Model.build params in
  let env = Eba.Formula.env model in
  let chain = Eba.Zoo.chain_zero env in
  let dchain = Eba.Kb_protocol.decide model chain in
  Format.printf "FIP(Z0,O0): %a@." Eba.Spec.pp (Eba.Spec.check dchain);
  let fstar = Eba.Zoo.f_star env in
  let dstar = Eba.Kb_protocol.decide model fstar in
  Format.printf "F*: EBA %b, optimal %b, dominates the chain protocol %b@."
    (Eba.Spec.is_eba (Eba.Spec.check dstar))
    (Eba.Characterize.is_optimal env dstar)
    (Eba.Dominance.dominates dstar dchain)

let operational_fleet () =
  Format.printf "@.== operational: 10 gateways, up to 3 omitters ==@.";
  let params = Eba.Params.make ~n:10 ~t:3 ~horizon:5 ~mode:Eba.Params.Omission in
  let s = Eba.Stats.sampled (module Eba.Chain0) params ~seed:99 ~samples:2000 in
  Format.printf "%a" Eba.Stats.pp s;
  Format.printf "(worst-case decision stays within f+1 in every sampled run)@."

let () =
  nontermination ();
  chain_protocol ();
  operational_fleet ()
