(* The reference decision-set builder: each processor's formula evaluated
   to a point set on its own, then projected point by point onto that
   processor's views.  The library reads a whole belief family off one
   all-owner kernel pass (Decision_set.believes); this builder goes
   through the per-processor formula evaluator and checks, as it
   projects, that every formula is a property of its processor's view. *)

module Model = Eba.Model
module Formula = Eba.Formula
module Pset = Eba.Pset
module DS = Eba.Decision_set

(* [of_formulas env f] is the family [A_i = views of i where f i holds].
   The first point seen with a view fixes its byte; every later point of
   the view's cell must agree, or the formula is not view-measurable. *)
let of_formulas env f =
  let model = Formula.model env in
  let n = Model.n model in
  let nviews = Eba.View.size model.Model.store in
  let t = Bytes.make nviews '\000' and seen = Bytes.make nviews '\000' in
  for i = 0 to n - 1 do
    let set = Formula.eval env (f i) in
    for pid = 0 to Model.npoints model - 1 do
      let v = model.Model.views.((pid * n) + i) in
      let inside = if Pset.mem set pid then '\001' else '\000' in
      if Bytes.get seen v = '\000' then begin
        Bytes.set seen v '\001';
        Bytes.set t v inside
      end
      else if Bytes.get t v <> inside then
        invalid_arg "Decision_set.of_formulas: formula not view-measurable"
    done
  done;
  DS.of_views model (fun v -> Bytes.get t v = '\001')
