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

(* The points at which [proc]'s current view is known, walked run by run
   so each run's view row is fetched once. *)
let project model ~proc known =
  let n = Model.n model and per_run = Model.horizon model + 1 in
  let out = Pset.create (Model.npoints model) in
  Array.iteri
    (fun r (run : Model.run) ->
      let base = r * per_run in
      for time = 0 to per_run - 1 do
        if Bytes.get known run.views.((time * n) + proc) = '\001' then
          Pset.add out (base + time)
      done)
    model.Model.runs;
  out

let knows model ~proc phi = project model ~proc (known_per_view ~owner:proc model None phi)

let believes model s ~proc phi =
  project model ~proc (known_per_view ~owner:proc model (Some s) phi)

let believed_views model s phi = known_per_view model (Some s) phi

let everyone_knows model s phi =
  let known = believed_views model s phi in
  let n = Model.n model and per_run = Model.horizon model + 1 in
  let out = Pset.create (Model.npoints model) in
  Array.iteri
    (fun r (run : Model.run) ->
      let base = r * per_run in
      for time = 0 to per_run - 1 do
        if
          Bitset.for_all
            (fun i -> Bytes.get known run.views.((time * n) + i) = '\001')
            (Nonrigid.members s ~point:(base + time))
        then Pset.add out (base + time)
      done)
    model.Model.runs;
  out
