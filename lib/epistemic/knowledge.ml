module Model = Eba_fip.Model
module View = Eba_fip.View
module Metrics = Eba_util.Metrics

let s_kernel = Metrics.span "knowledge.known_per_view"
let m_probes = Metrics.counter "knowledge.cell_points_probed"

(* [known_per_view model ?owner s phi] computes, for every view [v] with
   owner [i], whether φ holds at every point of [cell v] where [i ∈ S];
   this is the kernel shared by [K], [B] and [E].  A point [q] lies in the
   cell of [views.(q·n + i)] for each [i], so [v] is refuted exactly by
   the points [q ∉ φ] with [i ∈ S(q)]: one sequential pass over φ's clear
   bits clears those views, skipping every full word.  With [~owner] only
   that processor's views are cleared (their bytes are the only ones [K_i]
   and [B^S_i] read); the others stay '\001' and must not be read.
   [m_probes] counts the cleared (point, processor) pairs, each one entry
   of the cleared view's cell. *)
let known_per_view ?owner model s phi =
  Metrics.time s_kernel @@ fun () ->
  let n = Model.n model and views = model.Model.views in
  let npoints = Model.npoints model in
  if Pset.length phi <> npoints then
    invalid_arg "Knowledge: φ is not a set of the model's points";
  let known = Bytes.make (View.size model.Model.store) '\001' in
  (* the processors whose views a refuting point clears, before [S] *)
  let scanned =
    match owner with
    | None -> (1 lsl n) - 1
    | Some o -> if o >= 0 && o < n then 1 lsl o else 0
  in
  let table = match s with Some s -> s.Nonrigid.table | None -> [||] in
  let words = phi.Pset.words and bpw = Pset.bits_per_word and full = Pset.full_word in
  let probes = ref 0 in
  for w = 0 to Array.length words - 1 do
    let word = words.(w) in
    if word <> full then begin
      let lo = w * bpw in
      for q = lo to min npoints (lo + bpw) - 1 do
        if word land (1 lsl (q - lo)) = 0 then begin
          let members = match s with None -> scanned | Some _ -> table.(q) land scanned in
          if members <> 0 then
            for i = 0 to n - 1 do
              if members land (1 lsl i) <> 0 then begin
                incr probes;
                Bytes.set known views.((q * n) + i) '\000'
              end
            done
        end
      done
    end
  done;
  Metrics.add m_probes !probes;
  known

(* The points at which [proc]'s current view is known, read down [proc]'s
   column of the point-indexed rows. *)
let project model ~proc known =
  let n = Model.n model and views = model.Model.views in
  Pset.init (Model.npoints model) (fun pid ->
      Bytes.get known views.((pid * n) + proc) = '\001')

let knows model ~proc phi = project model ~proc (known_per_view ~owner:proc model None phi)

let believes model s ~proc phi =
  project model ~proc (known_per_view ~owner:proc model (Some s) phi)

let believed_views model s phi = known_per_view model (Some s) phi

(* [E_S φ] at a point: every member's view is known.  The member loop
   tests the point's bits directly. *)
let everyone_knows model s phi =
  let known = believed_views model s phi in
  let n = Model.n model and views = model.Model.views in
  let table = s.Nonrigid.table in
  Pset.init (Model.npoints model) (fun pid ->
      let members = table.(pid) in
      let ok = ref true and i = ref 0 in
      while !ok && !i < n do
        if members land (1 lsl !i) <> 0 && Bytes.get known views.((pid * n) + !i) <> '\001'
        then ok := false;
        incr i
      done;
      !ok)
