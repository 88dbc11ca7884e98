module Model = Eba_fip.Model
module Value = Eba_sim.Value
module Formula = Eba_epistemic.Formula
module Nonrigid = Eba_epistemic.Nonrigid
module Bitset = Eba_util.Bitset

type pair = { zero : Decision_set.t; one : Decision_set.t }

let never_decide model = { zero = Decision_set.empty model; one = Decision_set.empty model }

let pair_equal a b =
  Decision_set.equal a.zero b.zero && Decision_set.equal a.one b.one

type outcome = { at : int; value : Value.t }

type decisions = {
  model : Model.t;
  pair : pair;
  table : outcome option array;
  ambiguities : (int * int * int) list;
}

let decide model pair =
  let n = Model.n model and horizon = Model.horizon model in
  let table = Array.make (Model.nruns model * n) None in
  let ambiguities = ref [] in
  for run = 0 to Model.nruns model - 1 do
    for i = 0 to n - 1 do
      let rec first time =
        if time > horizon then ()
        else
          let v = Model.view model ~run ~time ~proc:i in
          let in_zero = Decision_set.mem pair.zero v
          and in_one = Decision_set.mem pair.one v in
          if in_zero && in_one then ambiguities := (run, i, time) :: !ambiguities
          else if in_zero then table.((run * n) + i) <- Some { at = time; value = Value.Zero }
          else if in_one then table.((run * n) + i) <- Some { at = time; value = Value.One }
          else first (time + 1)
      in
      first 0
    done
  done;
  { model; pair; table; ambiguities = List.rev !ambiguities }

let outcome d ~run ~proc = d.table.((run * Model.n d.model) + proc)

let decided_atom env d y i =
  let model = Formula.model env in
  let name = Format.asprintf "decide_%d(%a)" i Value.pp y in
  Formula.run_atom model name (fun run ->
      match outcome d ~run:run.Model.index ~proc:i with
      | Some { at; value } when Value.equal value y -> fun time -> at <= time
      | Some _ | None -> fun _ -> false)

let member_atom env pair y i =
  let model = Formula.model env in
  let set =
    match y with Value.Zero -> pair.zero | Value.One -> pair.one
  in
  let name = Format.asprintf "in_%d(%a)" i Value.pp y in
  let n = Model.n model in
  Formula.run_atom model name (fun run time ->
      Decision_set.mem set run.Model.views.((time * n) + i))

let conjoin env s name a =
  let model = Formula.model env in
  Nonrigid.restrict_by_view model ~name s (fun ~proc:_ ~view -> Decision_set.mem a view)
