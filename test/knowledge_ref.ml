(* The reference belief kernel: for each view [v] with owner [i], a scan of
   [v]'s cell asking whether φ holds at every point of it where [i ∈ S].
   The library clears views from the points that refute φ instead, over
   the model's rows alone (Knowledge); this kernel walks the CSR cells
   that Naive_build lays out, which the library model no longer keeps, so
   the two share nothing but the model. *)

module Model = Eba.Model
module View = Eba.View
module Nonrigid = Eba.Nonrigid
module Pset = Eba.Pset

(* Byte [v] is '\001' iff φ holds at every point of [v]'s cell where [v]'s
   owner is in [S] (at every point of it when [S] is absent).  With
   [~owner] only that processor's views are scanned; the others stay
   '\001'. *)
let known_per_view ?owner (c : Naive_build.t) s phi =
  let known = Bytes.make (View.size c.store) '\001' in
  for v = 0 to View.size c.store - 1 do
    let i = View.owner c.store v in
    if match owner with Some o -> o = i | None -> true then
      for k = c.cell_off.(v) to c.cell_off.(v + 1) - 1 do
        let q = c.cell_ids.(k) in
        let member = match s with Some s -> Nonrigid.mem s ~point:q ~proc:i | None -> true in
        if member && not (Pset.mem phi q) then Bytes.set known v '\000'
      done
  done;
  known

let project m ~proc known =
  Pset.init (Model.npoints m) (fun p -> Bytes.get known (Model.view_at m ~point:p ~proc) = '\001')

let knows m c ~proc phi = project m ~proc (known_per_view ~owner:proc c None phi)
let believes m c s ~proc phi = project m ~proc (known_per_view ~owner:proc c (Some s) phi)
let believed_views c s phi = known_per_view c (Some s) phi

(* [E_S φ]: every member's own belief holds, each read off its own
   per-owner table. *)
let everyone_knows m c s phi =
  let per_proc = Array.init (Model.n m) (fun proc -> believes m c s ~proc phi) in
  Pset.init (Model.npoints m) (fun p ->
      Eba.Bitset.for_all (fun i -> Pset.mem per_proc.(i) p) (Nonrigid.members s ~point:p))
