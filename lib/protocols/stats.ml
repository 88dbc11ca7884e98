module Params = Eba_sim.Params
module Config = Eba_sim.Config
module Pattern = Eba_sim.Pattern
module Universe = Eba_sim.Universe
module Value = Eba_sim.Value
module Bitset = Eba_util.Bitset
module Metrics = Eba_util.Metrics
module Parallel = Eba_util.Parallel

let s_sweep = Metrics.span "stats.sweep"

type by_failures = {
  failures : int;
  count : int;
  mean_time : float;
  max_time : int;
  undecided : int;
}

type source =
  | Exhaustive_universe of { flavour : string; universe : string }
  | Sampled_universe of { seed : int; samples : int; universe : string }

type summary = {
  protocol : string;
  runs : int;
  agreement_violations : int;
  validity_violations : int;
  undecided_nonfaulty : int;
  mean_time : float;
  max_time : int;
  by_failures : by_failures list;
  messages_attempted : int;
  messages_delivered : int;
  bytes_attempted : int;
  bytes_delivered : int;
  source : source;
}

type acc = {
  mutable a_count : int;
  mutable a_time_sum : int;
  mutable a_time_n : int;
  mutable a_max : int;
  mutable a_undecided : int;
}

(* Per-domain accumulator of a sweep.  Every field is an exact integer
   count/sum/max, so merging accumulators in any fixed order reproduces the
   sequential totals bit for bit; the float means are derived only at the
   end, from the merged sums. *)
type state = {
  mutable s_runs : int;
  mutable s_agreement : int;
  mutable s_validity : int;
  mutable s_undecided : int;
  mutable s_time_sum : int;
  mutable s_time_n : int;
  mutable s_max_time : int;
  mutable s_attempted : int;
  mutable s_delivered : int;
  mutable s_bytes_attempted : int;
  mutable s_bytes_delivered : int;
  s_per_f : (int, acc) Hashtbl.t;
}

let fresh_state () =
  {
    s_runs = 0;
    s_agreement = 0;
    s_validity = 0;
    s_undecided = 0;
    s_time_sum = 0;
    s_time_n = 0;
    s_max_time = 0;
    s_attempted = 0;
    s_delivered = 0;
    s_bytes_attempted = 0;
    s_bytes_delivered = 0;
    s_per_f = Hashtbl.create 8;
  }

let acc_for st f =
  match Hashtbl.find_opt st.s_per_f f with
  | Some a -> a
  | None ->
      let a = { a_count = 0; a_time_sum = 0; a_time_n = 0; a_max = 0; a_undecided = 0 } in
      Hashtbl.add st.s_per_f f a;
      a

let merge_state into from =
  into.s_runs <- into.s_runs + from.s_runs;
  into.s_agreement <- into.s_agreement + from.s_agreement;
  into.s_validity <- into.s_validity + from.s_validity;
  into.s_undecided <- into.s_undecided + from.s_undecided;
  into.s_time_sum <- into.s_time_sum + from.s_time_sum;
  into.s_time_n <- into.s_time_n + from.s_time_n;
  into.s_max_time <- max into.s_max_time from.s_max_time;
  into.s_attempted <- into.s_attempted + from.s_attempted;
  into.s_delivered <- into.s_delivered + from.s_delivered;
  into.s_bytes_attempted <- into.s_bytes_attempted + from.s_bytes_attempted;
  into.s_bytes_delivered <- into.s_bytes_delivered + from.s_bytes_delivered;
  Hashtbl.iter
    (fun f (b : acc) ->
      let a = acc_for into f in
      a.a_count <- a.a_count + b.a_count;
      a.a_time_sum <- a.a_time_sum + b.a_time_sum;
      a.a_time_n <- a.a_time_n + b.a_time_n;
      a.a_max <- max a.a_max b.a_max;
      a.a_undecided <- a.a_undecided + b.a_undecided)
    from.s_per_f

let consume run n st (config, pattern) =
  st.s_runs <- st.s_runs + 1;
  let trace : Runner.trace = run config pattern in
  st.s_attempted <- st.s_attempted + trace.Runner.messages_attempted;
  st.s_delivered <- st.s_delivered + trace.Runner.messages_delivered;
  st.s_bytes_attempted <- st.s_bytes_attempted + trace.Runner.bytes_attempted;
  st.s_bytes_delivered <- st.s_bytes_delivered + trace.Runner.bytes_delivered;
  (* iterate the nonfaulty slots directly instead of materializing
     [Bitset.full n], which caps n at the word width; [Bitset.mem] is
     total, so this path is safe at any n *)
  let faulty = Pattern.faulty pattern in
  let iter_nonfaulty f =
    for i = 0 to n - 1 do
      if not (Bitset.mem i faulty) then f i
    done
  in
  let f = Pattern.num_failures pattern in
  let a = acc_for st f in
  a.a_count <- a.a_count + 1;
  let seen = ref None and agreement_bad = ref false and validity_bad = ref false in
  let unanimous = Config.all_equal config in
  iter_nonfaulty
    (fun i ->
      match trace.Runner.decisions.(i) with
      | None ->
          st.s_undecided <- st.s_undecided + 1;
          a.a_undecided <- a.a_undecided + 1
      | Some { Runner.at; value } ->
          st.s_time_sum <- st.s_time_sum + at;
          st.s_time_n <- st.s_time_n + 1;
          if at > st.s_max_time then st.s_max_time <- at;
          a.a_time_sum <- a.a_time_sum + at;
          a.a_time_n <- a.a_time_n + 1;
          if at > a.a_max then a.a_max <- at;
          (match !seen with
          | None -> seen := Some value
          | Some v -> if not (Value.equal v value) then agreement_bad := true);
          (match unanimous with
          | Some v when not (Value.equal v value) -> validity_bad := true
          | Some _ | None -> ()));
  if !agreement_bad then st.s_agreement <- st.s_agreement + 1;
  if !validity_bad then st.s_validity <- st.s_validity + 1

let summary_of_state ~source name st =
  let by_failures =
    Hashtbl.fold (fun f a acc -> (f, a) :: acc) st.s_per_f []
    |> List.sort (fun (f1, _) (f2, _) -> Stdlib.compare f1 f2)
    |> List.map (fun (f, a) ->
           {
             failures = f;
             count = a.a_count;
             (* empty-mean convention: 0.0 when nothing decided (see mli) *)
             mean_time =
               (if a.a_time_n = 0 then 0.0
                else float_of_int a.a_time_sum /. float_of_int a.a_time_n);
             max_time = a.a_max;
             undecided = a.a_undecided;
           })
  in
  {
    protocol = name;
    runs = st.s_runs;
    agreement_violations = st.s_agreement;
    validity_violations = st.s_validity;
    undecided_nonfaulty = st.s_undecided;
    mean_time =
      (* all-undecided sweeps have no decision times to average; 0.0 keeps
         the summary finite and its JSON emission RFC 8259-valid (NaN has
         no JSON encoding — [Eba_util.Json] would print [null]) *)
      (if st.s_time_n = 0 then 0.0
       else float_of_int st.s_time_sum /. float_of_int st.s_time_n);
    max_time = st.s_max_time;
    by_failures;
    messages_attempted = st.s_attempted;
    messages_delivered = st.s_delivered;
    bytes_attempted = st.s_bytes_attempted;
    bytes_delivered = st.s_bytes_delivered;
    source;
  }

let universe_desc (params : Params.t) = Format.asprintf "%a" Params.pp params

(* The runs of [workload], distributed over [jobs] domains: each domain
   folds into its own [state] and the states merge in a fixed order. *)
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
  let st =
    Metrics.time s_sweep (fun () ->
        Parallel.map_reduce_seq ?jobs ~init:fresh_state ~fold
          ~merge:merge_state workload)
  in
  summary_of_state ~source P.name st

let exhaustive ?(flavour = Universe.Exhaustive) ?jobs ?cancel p
    (params : Params.t) =
  let source =
    Exhaustive_universe
      {
        flavour =
          (match flavour with Universe.Exhaustive -> "exhaustive" | Universe.Sparse -> "sparse");
        universe = universe_desc params;
      }
  in
  sweep ?jobs ?cancel ~source p params (Universe.workload_seq ~flavour params)

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

let pp_by_failures fmt b =
  Format.fprintf fmt "f=%d: %d runs, mean %.2f, max %d%s" b.failures b.count b.mean_time
    b.max_time
    (if b.undecided > 0 then Printf.sprintf ", %d undecided" b.undecided else "")

let pp_source fmt = function
  | Exhaustive_universe { flavour; universe } ->
      Format.fprintf fmt "%s universe of %s" flavour universe
  | Sampled_universe { seed; samples; universe } ->
      Format.fprintf fmt "%d samples from %s, seed=%d" samples universe seed

let source_json = function
  | Exhaustive_universe { flavour; universe } ->
      Eba_util.Json.Obj
        [
          ("kind", Eba_util.Json.String "exhaustive");
          ("flavour", Eba_util.Json.String flavour);
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
  Obj
    [
      ("protocol", String s.protocol);
      ("runs", Int s.runs);
      ("agreement_violations", Int s.agreement_violations);
      ("validity_violations", Int s.validity_violations);
      ("undecided_nonfaulty", Int s.undecided_nonfaulty);
      ("max_time", Int s.max_time);
      ("messages_attempted", Int s.messages_attempted);
      ("messages_delivered", Int s.messages_delivered);
      ("bytes_attempted", Int s.bytes_attempted);
      ("bytes_delivered", Int s.bytes_delivered);
      ( "by_failures",
        List
          (List.map
             (fun b ->
               Obj
                 [
                   ("failures", Int b.failures);
                   ("count", Int b.count);
                   ("mean_time", Float b.mean_time);
                   ("max_time", Int b.max_time);
                   ("undecided", Int b.undecided);
                 ])
             s.by_failures) );
      ("mean_time", Float s.mean_time);
      ("source", source_json s.source);
    ]

let pp fmt s =
  Format.fprintf fmt "%s over %d runs: agreement-violations=%d validity-violations=%d \
                      undecided=%d mean-decision=%.2f max-decision=%d msgs=%d/%d \
                      bytes=%d/%d@\n"
    s.protocol s.runs s.agreement_violations s.validity_violations s.undecided_nonfaulty
    s.mean_time s.max_time s.messages_delivered s.messages_attempted
    s.bytes_delivered s.bytes_attempted;
  Format.fprintf fmt "  source: %a@\n" pp_source s.source;
  List.iter (fun b -> Format.fprintf fmt "  %a@\n" pp_by_failures b) s.by_failures

let pp_table_header fmt () =
  Format.fprintf fmt "%-10s %8s %6s %6s %8s %8s %10s@\n" "protocol" "runs" "agree"
    "valid" "mean_t" "max_t" "msgs"

let pp_table_row fmt s =
  Format.fprintf fmt "%-10s %8d %6s %6s %8.2f %8d %10d@\n" s.protocol s.runs
    (if s.agreement_violations = 0 then "ok" else string_of_int s.agreement_violations)
    (if s.validity_violations = 0 then "ok" else string_of_int s.validity_violations)
    s.mean_time s.max_time s.messages_delivered
