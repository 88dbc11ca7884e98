module Model = Eba_fip.Model
module View = Eba_fip.View
module Formula = Eba_epistemic.Formula
module Pset = Eba_epistemic.Pset

type t = Bytes.t

let nviews model = View.size model.Model.store

let empty model = Bytes.make (nviews model) '\000'
let mem t v = Bytes.get t v = '\001'

let of_views model pred =
  Bytes.init (nviews model) (fun v -> if pred v then '\001' else '\000')

(* Projects each [f i] onto [i]'s views run by run: the first point seen
   with a view fixes its byte in [t] (and marks it in [seen]); every later
   point of the view's cell must agree. *)
let of_formulas env f =
  let model = Formula.model env in
  let n = Model.n model and per_run = Model.horizon model + 1 in
  let t = empty model and seen = empty model in
  for i = 0 to n - 1 do
    let set = Formula.eval env (f i) in
    Array.iteri
      (fun r (run : Model.run) ->
        for time = 0 to per_run - 1 do
          let v = run.views.((time * n) + i) in
          let inside = if Pset.mem set ((r * per_run) + time) then '\001' else '\000' in
          if Bytes.get seen v = '\000' then begin
            Bytes.set seen v '\001';
            Bytes.set t v inside
          end
          else if Bytes.get t v <> inside then
            invalid_arg "Decision_set.of_formulas: formula not view-measurable"
        done)
      model.Model.runs
  done;
  t

let of_formula env f = of_formulas env (fun _ -> f)

let points model t ~proc =
  Pset.init (Model.npoints model) (fun pid ->
      mem t (Model.view_at model ~point:pid ~proc))

let lift2 op a b = Bytes.init (Bytes.length a) (fun v ->
    if op (Bytes.get a v = '\001') (Bytes.get b v = '\001') then '\001' else '\000')

let union _model a b = lift2 ( || ) a b
let inter _model a b = lift2 ( && ) a b
let equal a b = Bytes.equal a b
let is_empty t = not (Bytes.exists (fun c -> c = '\001') t)

let cardinal t =
  let c = ref 0 in
  Bytes.iter (fun ch -> if ch = '\001' then incr c) t;
  !c

let persistent model t =
  let n = Model.n model and horizon = Model.horizon model in
  let ok = ref true in
  for run = 0 to Model.nruns model - 1 do
    for i = 0 to n - 1 do
      let entered = ref false in
      for time = 0 to horizon do
        let v = Model.view model ~run ~time ~proc:i in
        if mem t v then entered := true
        else if !entered then ok := false
      done
    done
  done;
  !ok
