module Params = Eba_sim.Params
module Config = Eba_sim.Config
module Pattern = Eba_sim.Pattern
module Universe = Eba_sim.Universe
module Decision = Eba_sim.Decision
module Bitset = Eba_util.Bitset
module Metrics = Eba_util.Metrics
module Parallel = Eba_util.Parallel

let s_sweep = Metrics.span "stats.sweep"

type source =
  | Exhaustive_universe of { universe : string }
  | Sampled_universe of { seed : int; samples : int; universe : string }

type summary = {
  protocol : string;
  tally : Decision.tally;
  by_failures : (int * Decision.tally) list;
  source : source;
}

(* A sweep folds into one tally per failure count, [rows.(f)]. *)
let consume run n rows (config, pattern) =
  let trace : Runner.trace = run config pattern in
  let faulty = Pattern.faulty pattern in
  let row = rows.(Pattern.num_failures pattern) in
  Decision.add row
    (Decision.judge
       ~faulty:(fun i -> Bitset.mem i faulty)
       ~unanimous:(Config.all_equal config) trace.decisions ~pos:0 ~n);
  row.attempted <- row.attempted + trace.messages_attempted;
  row.delivered <- row.delivered + trace.messages_delivered;
  row.bytes_attempted <- row.bytes_attempted + trace.bytes_attempted;
  row.bytes_delivered <- row.bytes_delivered + trace.bytes_delivered

let summary_of_rows ~source name rows =
  let tally = Decision.tally () in
  Array.iter (Decision.merge tally) rows;
  let by_failures =
    Array.to_list (Array.mapi (fun f row -> (f, row)) rows)
    |> List.filter (fun (_, (row : Decision.tally)) -> row.runs > 0)
  in
  { protocol = name; tally; by_failures; source }

let universe_desc (params : Params.t) = Format.asprintf "%a" Params.pp params

(* The runs of [workload], distributed over [jobs] domains: each domain
   folds into its own rows and the rows merge in a fixed order. *)
let sweep ?jobs ?cancel ~source (module P : Protocol_intf.PROTOCOL)
    (params : Params.t) workload =
  let module R = Runner.Make (P) in
  let run config pattern = R.run params config pattern in
  let fold =
    let consume = consume run params.Params.n in
    match cancel with
    | None -> consume
    | Some token ->
        fun st work ->
          Eba_util.Cancel.check token;
          consume st work
  in
  let rows =
    Metrics.time s_sweep (fun () ->
        Parallel.map_reduce_seq ?jobs ~fold ~merge:(Array.iter2 Decision.merge)
          ~init:(fun () ->
            Array.init (params.Params.t_failures + 1) (fun _ -> Decision.tally ()))
          workload)
  in
  summary_of_rows ~source P.name rows

let exhaustive ?jobs ?cancel p (params : Params.t) =
  let source = Exhaustive_universe { universe = universe_desc params } in
  sweep ?jobs ?cancel ~source p params (Universe.workload_seq params)

let sampled ?jobs ?cancel p (params : Params.t) ~seed ~samples =
  let rng = Random.State.make [| seed |] in
  (* drawn sequentially so the workload is deterministic in [seed]; only the
     runs themselves are distributed over domains *)
  let workload =
    List.init samples (fun _ ->
        let config =
          Config.of_bits ~n:params.Params.n
            (Random.State.int rng (1 lsl params.Params.n))
        in
        (config, Universe.random_pattern rng params))
  in
  let source =
    Sampled_universe
      { seed; samples; universe = universe_desc params ^ " uniform(config×pattern)" }
  in
  sweep ?jobs ?cancel ~source p params (List.to_seq workload)

let pp_by_failures fmt (f, (row : Decision.tally)) =
  Format.fprintf fmt "f=%d: %d runs, mean %.2f, max %d%s" f row.runs
    (Decision.mean_round row) row.round_max
    (if row.undecided_nonfaulty > 0 then
       Printf.sprintf ", %d undecided" row.undecided_nonfaulty
     else "")

let pp_source fmt = function
  | Exhaustive_universe { universe } ->
      Format.fprintf fmt "exhaustive universe of %s" universe
  | Sampled_universe { seed; samples; universe } ->
      Format.fprintf fmt "%d samples from %s, seed=%d" samples universe seed

let source_json = function
  | Exhaustive_universe { universe } ->
      Eba_util.Json.Obj
        [
          ("kind", Eba_util.Json.String "exhaustive");
          ("flavour", Eba_util.Json.String "exhaustive");
          ("universe", Eba_util.Json.String universe);
        ]
  | Sampled_universe { seed; samples; universe } ->
      Eba_util.Json.Obj
        [
          ("kind", Eba_util.Json.String "sampled");
          ("seed", Eba_util.Json.Int seed);
          ("samples", Eba_util.Json.Int samples);
          ("universe", Eba_util.Json.String universe);
        ]

let summary_json s =
  let open Eba_util.Json in
  let t = s.tally in
  Obj
    [
      ("protocol", String s.protocol);
      ("runs", Int t.runs);
      ("agreement_violations", Int t.agreement_violations);
      ("validity_violations", Int t.validity_violations);
      ("undecided_nonfaulty", Int t.undecided_nonfaulty);
      ("max_time", Int t.round_max);
      ("messages_attempted", Int t.attempted);
      ("messages_delivered", Int t.delivered);
      ("bytes_attempted", Int t.bytes_attempted);
      ("bytes_delivered", Int t.bytes_delivered);
      ( "by_failures",
        List
          (List.map
             (fun (f, (row : Decision.tally)) ->
               Obj
                 [
                   ("failures", Int f);
                   ("count", Int row.runs);
                   ("mean_time", Float (Decision.mean_round row));
                   ("max_time", Int row.round_max);
                   ("undecided", Int row.undecided_nonfaulty);
                 ])
             s.by_failures) );
      ("mean_time", Float (Decision.mean_round t));
      ("source", source_json s.source);
    ]

let pp fmt s =
  let t = s.tally in
  Format.fprintf fmt "%s over %d runs: agreement-violations=%d validity-violations=%d \
                      undecided=%d mean-decision=%.2f max-decision=%d msgs=%d/%d \
                      bytes=%d/%d@\n"
    s.protocol t.runs t.agreement_violations t.validity_violations t.undecided_nonfaulty
    (Decision.mean_round t) t.round_max t.delivered t.attempted
    t.bytes_delivered t.bytes_attempted;
  Format.fprintf fmt "  source: %a@\n" pp_source s.source;
  List.iter (fun b -> Format.fprintf fmt "  %a@\n" pp_by_failures b) s.by_failures

let pp_table_header fmt () =
  Format.fprintf fmt "%-10s %8s %6s %6s %8s %8s %10s@\n" "protocol" "runs" "agree"
    "valid" "mean_t" "max_t" "msgs"

let pp_table_row fmt s =
  let t = s.tally in
  let count n = if n = 0 then "ok" else string_of_int n in
  Format.fprintf fmt "%-10s %8d %6s %6s %8.2f %8d %10d@\n" s.protocol t.runs
    (count t.agreement_violations) (count t.validity_violations)
    (Decision.mean_round t) t.round_max t.delivered
