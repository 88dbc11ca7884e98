module Bitset = Eba_util.Bitset
module Model = Eba_fip.Model
module View = Eba_fip.View

type t = { nr_id : int; nr_name : string; table : int array }

let next_id = Atomic.make 0
let make ~name table = { nr_id = Atomic.fetch_and_add next_id 1; nr_name = name; table }
let id s = s.nr_id
let name s = s.nr_name
let members s ~point = Bitset.of_int s.table.(point)

(* [Bitset.mem] inlined (a [Bitset.t] is the bits of a native int), so it
   makes no calls. *)
let mem s ~point ~proc =
  proc >= 0 && proc < Bitset.max_width && s.table.(point) land (1 lsl proc) <> 0

(* One pass over the runs, each run's members written at its points. *)
let nonfaulty model =
  let per_run = Model.horizon model + 1 and runs = model.Model.runs in
  let everyone = (1 lsl Model.n model) - 1 in
  let table = Array.make (Model.npoints model) 0 in
  for r = 0 to Array.length runs - 1 do
    let members = everyone land lnot (Bitset.to_int runs.(r).Model.faulty) in
    for pid = r * per_run to ((r + 1) * per_run) - 1 do
      table.(pid) <- members
    done
  done;
  make ~name:"N" table

let rigid model ~name set = make ~name (Array.make (Model.npoints model) (Bitset.to_int set))

let everyone model = rigid model ~name:"All" (Bitset.full (Model.n model))

(* Point by point over the rows; the member loop tests the table's bits
   and the view bytes directly, with no call per member. *)
let restrict_by_view model ~name s kept_views =
  let n = Model.n model and views = model.Model.views in
  if Bytes.length kept_views <> View.size model.Model.store then
    invalid_arg "Nonrigid.restrict_by_view: not a table over the model's views";
  let table = Array.make (Model.npoints model) 0 in
  for pid = 0 to Model.npoints model - 1 do
    let members = s.table.(pid) in
    if members <> 0 then begin
      let kept = ref 0 in
      for i = 0 to n - 1 do
        let bit = 1 lsl i in
        if members land bit <> 0 && Bytes.get kept_views views.((pid * n) + i) = '\001'
        then kept := !kept lor bit
      done;
      table.(pid) <- !kept
    end
  done;
  make ~name table

let is_empty_at s ~point = s.table.(point) = 0

let pp fmt s = Format.fprintf fmt "%s" s.nr_name
