module Model = Eba_fip.Model
module Value = Eba_sim.Value
module Decision = Eba_sim.Decision
module Formula = Eba_epistemic.Formula
module Nonrigid = Eba_epistemic.Nonrigid
module Bitset = Eba_util.Bitset

type pair = { zero : Decision_set.t; one : Decision_set.t }

let never_decide model = { zero = Decision_set.empty model; one = Decision_set.empty model }

let pair_equal a b =
  Decision_set.equal a.zero b.zero && Decision_set.equal a.one b.one

type decisions = {
  model : Model.t;
  pair : pair;
  table : Decision.t option array;
  ambiguities : (int * int * int) list;
}

(* Each (run, i) walks [i]'s column of the run's rows up to the first view
   in either set. *)
let decide model pair =
  let n = Model.n model and per_run = Model.horizon model + 1 in
  let views = model.Model.views in
  let table = Array.make (Model.nruns model * n) None in
  let ambiguities = ref [] in
  for run = 0 to Model.nruns model - 1 do
    for i = 0 to n - 1 do
      let time = ref 0 in
      while !time < per_run do
        let v = views.((((run * per_run) + !time) * n) + i) in
        let in_zero = Decision_set.mem pair.zero v
        and in_one = Decision_set.mem pair.one v in
        if in_zero || in_one then begin
          if in_zero && in_one then ambiguities := (run, i, !time) :: !ambiguities
          else
            table.((run * n) + i) <-
              Some
                { Decision.at = !time; value = (if in_zero then Value.Zero else Value.One) };
          time := per_run
        end
        else incr time
      done
    done
  done;
  { model; pair; table; ambiguities = List.rev !ambiguities }

let outcome d ~run ~proc = d.table.((run * Model.n d.model) + proc)

let mismatches d (module P : Eba_protocols.Protocol_intf.PROTOCOL) =
  let module R = Eba_protocols.Runner.Make (P) in
  let model = d.model in
  let n = Model.n model in
  let found = ref [] in
  Array.iter
    (fun (run : Model.run) ->
      let trace = R.run model.Model.params run.config run.pattern in
      for i = 0 to n - 1 do
        if not (Bitset.mem i run.faulty) then begin
          let semantic = outcome d ~run:run.index ~proc:i
          and operational = trace.Eba_protocols.Runner.decisions.(i) in
          if semantic <> operational then
            found := (run.index, i, semantic, operational) :: !found
        end
      done)
    model.Model.runs;
  List.rev !found

let decided_atom env d y i =
  let model = Formula.model env in
  let name = Format.asprintf "decide_%d(%a)" i Value.pp y in
  Formula.run_atom model name (fun run ->
      match outcome d ~run:run.Model.index ~proc:i with
      | Some { Decision.at; value } when Value.equal value y -> fun time -> at <= time
      | Some _ | None -> fun _ -> false)

let member_atom env pair y i =
  let model = Formula.model env in
  let set =
    match y with Value.Zero -> pair.zero | Value.One -> pair.one
  in
  let name = Format.asprintf "in_%d(%a)" i Value.pp y in
  let n = Model.n model and views = model.Model.views in
  Formula.atom model name (fun pid -> Decision_set.mem set views.((pid * n) + i))

let conjoin env s name a = Formula.conjoin env s ~name (a : Decision_set.t :> Bytes.t)
