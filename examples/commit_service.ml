(* A realistic scenario for the operational layer: a replicated commit
   service.

   A client's transaction is prepared on n replicas; each replica votes
   commit (1) or abort (0) depending on whether its local prepare
   succeeded.  Replicas may crash mid-broadcast.  All surviving replicas
   must reach the same commit/abort verdict (agreement), a unanimous vote
   must win (validity), and the service wants the verdict as early as
   possible — exactly eventual Byzantine agreement in the crash model.

   We compare three engines on the same workload:
     - FloodSet   : the classical simultaneous protocol (always t+1 rounds)
     - P0opt      : the paper's optimal EBA protocol (t = 1 optimal)
     - P0opt+     : the delivery-evidence variant, optimal for every t
   The point the paper's introduction makes — eventual decisions usually
   come much earlier than simultaneous ones — is visible directly in the
   mean decision times.

     dune exec examples/commit_service.exe
*)

let scenario ~n ~t ~samples =
  let params = Eba.Params.make ~n ~t ~horizon:(t + 2) ~mode:Eba.Params.Crash in
  Format.printf "@.== commit service: %d replicas, at most %d crashes, %d workloads ==@."
    n t samples;
  Format.printf "%a" Eba.Stats.pp_table_header ();
  List.iter
    (fun p ->
      let s = Eba.Stats.sampled p params ~seed:2024 ~samples in
      Format.printf "%a" Eba.Stats.pp_table_row s)
    [
      (module Eba.Floodset : Eba.Protocol_intf.PROTOCOL);
      (module Eba.P0opt);
      (module Eba.P0opt_plus);
    ];
  (* decision-time profile by how many replicas actually crashed *)
  let s = Eba.Stats.sampled (module Eba.P0opt_plus) params ~seed:2024 ~samples in
  Format.printf "P0opt+ decision times by actual crash count:@.";
  List.iter
    (fun (f, (row : Eba.Decision.tally)) ->
      Format.printf "  %d crashes: %5d runs, mean %.2f rounds, worst %d (SBA baseline: always %d)@."
        f row.runs (Eba.Decision.mean_round row) row.round_max (t + 1))
    s.Eba.Stats.by_failures

let () =
  scenario ~n:5 ~t:2 ~samples:2000;
  scenario ~n:9 ~t:3 ~samples:1000;
  scenario ~n:15 ~t:4 ~samples:300
