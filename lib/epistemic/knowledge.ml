module Model = Eba_fip.Model
module View = Eba_fip.View
module Bitset = Eba_util.Bitset
module Metrics = Eba_util.Metrics
module Parallel = Eba_util.Parallel

let s_kernel = Metrics.span "knowledge.known_per_view"
let m_views = Metrics.counter "knowledge.views_scanned"
let m_probes = Metrics.counter "knowledge.cell_points_probed"

(* [known_per_view model ?owner s phi] computes, for every view [v] with
   owner [i], whether φ holds at every point of [cell v] where [i ∈ S];
   this is the kernel shared by [K], [B] and [E].  With [~owner] only that
   processor's views are scanned (their bytes are the only ones [K_i] and
   [B^S_i] read); the others are left at '\001' and must not be read.  The
   model is immutable after [Model.build] and each iteration writes only
   its own byte, so the per-view loop parallelizes over domains; cells are
   read straight out of the model's CSR arrays, so the inner loop
   allocates nothing.  [m_views]/[m_probes] count the scanned views and
   their whole cells even when the scan exits early, summed per chunk
   rather than bumped per view, keeping the totals a function of the model
   alone — identical across job counts and short-circuit luck. *)
let known_per_view ?owner model s phi =
  Metrics.time s_kernel @@ fun () ->
  let store = model.Model.store in
  let nv = View.size store in
  let off = model.Model.cell_off and ids = model.Model.cell_ids in
  let known = Bytes.make nv '\001' in
  Parallel.parallel_ranges nv (fun lo hi ->
      let views = ref 0 and probes = ref 0 in
      for v = lo to hi - 1 do
        let i = View.owner store v in
        if match owner with Some o -> o = i | None -> true then begin
          let e = off.(v + 1) in
          incr views;
          probes := !probes + (e - off.(v));
          let ok = ref true in
          let k = ref off.(v) in
          while !ok && !k < e do
            let q = ids.(!k) in
            ok :=
              (match s with
              | Some s -> not (Nonrigid.mem s ~point:q ~proc:i)
              | None -> false)
              || Pset.mem phi q;
            incr k
          done;
          if not !ok then Bytes.set known v '\000'
        end
      done;
      if Metrics.enabled () then begin
        Metrics.add m_views !views;
        Metrics.add m_probes !probes
      end);
  known

(* The points at which [proc]'s current view is known, read down [proc]'s
   column of the point-indexed rows. *)
let project model ~proc known =
  let n = Model.n model and views = model.Model.views in
  let npoints = Model.npoints model in
  let out = Pset.create npoints in
  for pid = 0 to npoints - 1 do
    if Bytes.get known views.((pid * n) + proc) = '\001' then Pset.add out pid
  done;
  out

let knows model ~proc phi = project model ~proc (known_per_view ~owner:proc model None phi)

let believes model s ~proc phi =
  project model ~proc (known_per_view ~owner:proc model (Some s) phi)

let believed_views model s phi = known_per_view model (Some s) phi

(* [E_S φ] at a point: every member's view is known.  The member loop
   tests the point's bits directly, with no closure per point. *)
let everyone_knows model s phi =
  let known = believed_views model s phi in
  let n = Model.n model and views = model.Model.views in
  let npoints = Model.npoints model in
  let out = Pset.create npoints in
  for pid = 0 to npoints - 1 do
    let members = Bitset.to_int (Nonrigid.members s ~point:pid) in
    let ok = ref true and i = ref 0 in
    while !ok && !i < n do
      if members land (1 lsl !i) <> 0 && Bytes.get known views.((pid * n) + !i) <> '\001'
      then ok := false;
      incr i
    done;
    if !ok then Pset.add out pid
  done;
  out
