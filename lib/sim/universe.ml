module Bitset = Eba_util.Bitset
module Combi = Eba_util.Combi

let others (params : Params.t) proc =
  Bitset.remove proc (Bitset.full params.Params.n)

let crash_behaviours (params : Params.t) ~proc =
  let horizon = params.Params.horizon in
  let rest = others params proc in
  let strict =
    List.filter (fun s -> not (Bitset.equal s rest)) (Bitset.subsets_of rest)
  in
  let per_round round =
    List.map (fun recipients -> Pattern.crash ~horizon ~proc ~round ~recipients) strict
  in
  Pattern.clean_crash ~horizon ~proc
  :: List.concat_map per_round (Params.rounds params)

(* Every per-round omission set: any subset of the others. *)
let round_choices params proc = Bitset.subsets_of (others params proc)

let omission_behaviours (params : Params.t) ~proc =
  let per_round = round_choices params proc in
  let tuples = Combi.cartesian (List.map (fun _ -> per_round) (Params.rounds params)) in
  List.map
    (fun choices ->
      Pattern.omission ~horizon:params.Params.horizon ~proc ~omits:(Array.of_list choices))
    tuples

let general_behaviours (params : Params.t) ~proc =
  let per_round = round_choices params proc in
  (* a round's behaviour is an independent (send-omit, receive-omit) pair *)
  let pairs =
    List.concat_map (fun s -> List.map (fun r -> (s, r)) per_round) per_round
  in
  let tuples = Combi.cartesian (List.map (fun _ -> pairs) (Params.rounds params)) in
  List.map
    (fun per_rounds ->
      let send = Array.of_list (List.map fst per_rounds) in
      let recv = Array.of_list (List.map snd per_rounds) in
      Pattern.general ~horizon:params.Params.horizon ~proc ~send ~recv)
    tuples

let behaviours_for (params : Params.t) ~proc =
  match params.Params.mode with
  | Params.Crash -> crash_behaviours params ~proc
  | Params.Omission -> omission_behaviours params ~proc
  | Params.General_omission -> general_behaviours params ~proc

(* The exhaustive path is streaming: only the per-processor behaviour lists
   (small) are materialized, never the cartesian product across processors
   or the pattern list itself. *)
let patterns_seq (params : Params.t) =
  let faulty_sets = Bitset.subsets_upto params.Params.n params.Params.t_failures in
  Seq.concat_map
    (fun set ->
      let per_proc =
        List.map (fun proc -> behaviours_for params ~proc) (Bitset.to_list set)
      in
      Seq.map (Pattern.make params) (Combi.cartesian_seq per_proc))
    (List.to_seq faulty_sets)

let patterns (params : Params.t) = List.of_seq (patterns_seq params)

let workload_seq ?configs (params : Params.t) =
  let configs =
    match configs with Some cs -> cs | None -> Config.all ~n:params.Params.n
  in
  Seq.concat_map
    (fun pattern -> Seq.map (fun config -> (config, pattern)) (List.to_seq configs))
    (patterns_seq params)

(* Every arithmetic step is overflow-checked: with the n-cap at 4096 these
   closed forms leave the int range as early as n = 63 (crash needs
   2^(n-1)), and a wrapped count is worse than no count — raise
   [Combi.Overflow] instead. *)
let behaviour_count (params : Params.t) =
  let n = params.Params.n and horizon = params.Params.horizon in
  match params.Params.mode with
  | Params.Crash -> Combi.add_exn 1 (Combi.mul_exn horizon (Combi.pow 2 (n - 1) - 1))
  | Params.Omission -> Combi.pow (Combi.pow 2 (n - 1)) horizon
  | Params.General_omission ->
      Combi.pow (Combi.mul_exn (Combi.pow 2 (n - 1)) (Combi.pow 2 (n - 1))) horizon

let count (params : Params.t) =
  let per_proc = behaviour_count params in
  let n = params.Params.n in
  let rec total f acc =
    if f > params.Params.t_failures then acc
    else
      total (f + 1)
        (Combi.add_exn acc (Combi.mul_exn (Combi.choose n f) (Combi.pow per_proc f)))
  in
  total 0 0

let random_subset rng set =
  Bitset.filter (fun _ -> Random.State.bool rng) set

let random_behaviour rng (params : Params.t) proc =
  let horizon = params.Params.horizon in
  match params.Params.mode with
  | Params.Crash ->
      (* Round is uniform over [1 .. horizon+1]; the extra slot [horizon+1]
         is deliberately aliased to the in-horizon clean crash, giving the
         clean behaviour weight 1/(horizon+1).  Pinned by the distribution
         test in test_sim.ml so the weighting stays intentional. *)
      let round = 1 + Random.State.int rng (horizon + 1) in
      if round > horizon then Pattern.clean_crash ~horizon ~proc
      else
        let rest = others params proc in
        let recipients = random_subset rng rest in
        let recipients =
          (* A full recipient set aliases the clean crash; de-alias by
             dropping one *uniformly drawn* recipient.  (Dropping the
             lowest-indexed one, as this used to, deterministically biased
             every sampled crash universe: processor 0 was never the sole
             missed recipient.) *)
          if Bitset.equal recipients rest && not (Bitset.is_empty rest) then begin
            let members = Bitset.to_list rest in
            let victim = List.nth members (Random.State.int rng (List.length members)) in
            Bitset.remove victim recipients
          end
          else recipients
        in
        Pattern.crash ~horizon ~proc ~round ~recipients
  | Params.Omission ->
      let rest = others params proc in
      let omits = Array.init horizon (fun _ -> random_subset rng rest) in
      Pattern.omission ~horizon ~proc ~omits
  | Params.General_omission ->
      let rest = others params proc in
      let send = Array.init horizon (fun _ -> random_subset rng rest) in
      let recv = Array.init horizon (fun _ -> random_subset rng rest) in
      Pattern.general ~horizon ~proc ~send ~recv

let random_pattern rng (params : Params.t) =
  let f = Random.State.int rng (params.Params.t_failures + 1) in
  let rec pick_faulty acc =
    if Bitset.cardinal acc = f then acc
    else pick_faulty (Bitset.add (Random.State.int rng params.Params.n) acc)
  in
  let faulty = pick_faulty Bitset.empty in
  let behaviours =
    List.map (fun proc -> random_behaviour rng params proc) (Bitset.to_list faulty)
  in
  Pattern.make params behaviours
