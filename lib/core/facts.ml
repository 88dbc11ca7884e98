module Formula = Eba_epistemic.Formula
module Model = Eba_fip.Model
module Pattern = Eba_sim.Pattern
module Config = Eba_sim.Config
module Value = Eba_sim.Value
module Bitset = Eba_util.Bitset

(* One all-owner table per suspect [j]: byte [v] says whether [v]'s owner
   [i] believes [j] faulty there, [B^N_i(j ∉ N)], for every [i] in one
   kernel pass. *)
let faulty_tables env =
  let n = Formula.nonfaulty env in
  Array.init
    (Model.n (Formula.model env))
    (fun j -> Decision_set.believes env n (Formula.Not (Formula.In (n, j))))

(* Chain reachability inside one run, as a DP over (chain member set, last
   member).  [reach.(mask * n + last)] at level [m] means: the initial 0 of
   some processor has travelled along a path of distinct processors [mask]
   ending at [last], one hop per round, each hop at round [k] delivered and
   trusted (the receiver does not believe the sender faulty at time [k],
   read at the receiver's view in [bf.(sender)]).  A 0-chain exists at
   [(r,m)] iff some level-[m] path ends at a nonfaulty processor; at
   [m = 0] that is a nonfaulty processor holding a 0. *)
let chains_of_run model bf ~run =
  let n = Model.n model and horizon = Model.horizon model in
  let r = Model.run_of_point model (Model.point model ~run ~time:0) in
  let config = r.Model.config and pattern = r.Model.pattern in
  let nonfaulty = Model.nonfaulty model ~run in
  let nmasks = 1 lsl n in
  let reach = Array.make (nmasks * n) false in
  for j = 0 to n - 1 do
    if Value.equal (Config.value config j) Value.Zero then
      reach.((Bitset.to_int (Bitset.singleton j) * n) + j) <- true
  done;
  let chain_at = Array.make (horizon + 1) false in
  let ends_nonfaulty level_reach =
    let ok = ref false in
    for mask = 0 to nmasks - 1 do
      for last = 0 to n - 1 do
        if level_reach.((mask * n) + last) && Bitset.mem last nonfaulty then ok := true
      done
    done;
    !ok
  in
  let current = ref reach and views = model.Model.views in
  chain_at.(0) <- ends_nonfaulty !current;
  for k = 1 to horizon do
    let next = Array.make (nmasks * n) false in
    let row = Model.point model ~run ~time:k * n in
    for mask = 0 to nmasks - 1 do
      for last = 0 to n - 1 do
        if !current.((mask * n) + last) then
          for j' = 0 to n - 1 do
            if
              (not (Bitset.mem j' (Bitset.of_int mask)))
              && Pattern.delivers pattern ~round:k ~sender:last ~receiver:j'
              && not (Decision_set.mem bf.(last) views.(row + j'))
            then next.(((mask lor (1 lsl j')) * n) + j') <- true
          done
      done
    done;
    current := next;
    chain_at.(k) <- ends_nonfaulty !current
  done;
  chain_at

(* One 0-chain table per model, reused across queries.  The table holds
   its model weakly, so a model the daemon's cache evicts takes its table
   with it, and a mutex guards it because daemon workers query different
   universes at once.  A missing table is computed outside the lock: two
   workers racing on one model compute equal tables, and the later
   [replace] is harmless. *)
module Chain_tables = Ephemeron.K1.Make (struct
  type t = Model.t

  let equal = ( == )
  let hash m = Hashtbl.hash (Model.nruns m, Model.npoints m)
end)

let chain_tables : bool array array Chain_tables.t = Chain_tables.create 8
let chain_tables_lock = Mutex.create ()

let chain_table env =
  let model = Formula.model env in
  match
    Mutex.protect chain_tables_lock (fun () -> Chain_tables.find_opt chain_tables model)
  with
  | Some t -> t
  | None ->
      let bf = faulty_tables env in
      let t =
        Array.init (Model.nruns model) (fun run -> chains_of_run model bf ~run)
      in
      Mutex.protect chain_tables_lock (fun () ->
          Chain_tables.replace chain_tables model t);
      t

let chain_at env ~run ~time = (chain_table env).(run).(time)

let exists0_star env =
  let model = Formula.model env in
  let table = chain_table env in
  Formula.run_atom model "exists0*" (fun run ->
      let chain = table.(run.Model.index) in
      let rec any m = m >= 0 && (chain.(m) || any (m - 1)) in
      any)
