module Model = Eba_fip.Model
module View = Eba_fip.View
module Formula = Eba_epistemic.Formula
module Nonrigid = Eba_epistemic.Nonrigid
module Knowledge = Eba_epistemic.Knowledge
module Pset = Eba_epistemic.Pset

type t = Bytes.t

let nviews model = View.size model.Model.store

let empty model = Bytes.make (nviews model) '\000'
let mem t v = Bytes.get t v = '\001'

let of_views model pred =
  Bytes.init (nviews model) (fun v -> if pred v then '\001' else '\000')

let believes env s phi =
  Knowledge.believed_views (Formula.model env) s (Formula.eval env phi)

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
