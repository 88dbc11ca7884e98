module Model = Eba_fip.Model
module View = Eba_fip.View
module Metrics = Eba_util.Metrics

let s_closure = Metrics.span "continual.closure"
let s_cbox = Metrics.span "continual.cbox"
let m_unions = Metrics.counter "continual.uf_unions"
let m_landable = Metrics.counter "continual.landable_points"
let m_naive_iters = Metrics.counter "continual.naive_iterations"

let ebox model s phi =
  Temporal.throughout model (Knowledge.everyone_knows model s phi)

(* --- union-find over run indices --- *)

module Uf = struct
  type t = int array

  let create n = Array.init n Fun.id

  let rec find uf i = if uf.(i) = i then i else begin
    uf.(i) <- find uf uf.(i);
    uf.(i)
  end

  let union uf i j =
    let ri = find uf i and rj = find uf j in
    if ri <> rj then uf.(ri) <- rj
end

type closure = {
  model : Model.t;
  uf : Uf.t;
  landable : Pset.t;  (* all points reachable as the endpoint of some step *)
  participates : Pset.t;  (* runs (by index) having at least one landable point *)
}

(* Run-major: walking (run, time, member) meets each lander group's points
   in ascending run order, the order of the group's cell.  The first run
   seen per view stands for the group and every later one is unioned with
   it, so each group makes the same unions as a walk view by view would;
   only their interleaving across groups differs, which the components do
   not depend on. *)
let closure model s =
  Metrics.time s_closure @@ fun () ->
  let n = Model.n model and per_run = Model.horizon model + 1 in
  let first = Array.make (View.size model.Model.store) (-1) in
  let uf = Uf.create (Model.nruns model) in
  let landable = Pset.create (Model.npoints model) in
  let participates = Pset.create (Model.nruns model) in
  let unions = ref 0 and views = model.Model.views in
  for r = 0 to Model.nruns model - 1 do
    for pid = r * per_run to ((r + 1) * per_run) - 1 do
      if not (Nonrigid.is_empty_at s ~point:pid) then begin
        Pset.add landable pid;
        Pset.add participates r;
        for i = 0 to n - 1 do
          if Nonrigid.mem s ~point:pid ~proc:i then begin
            (* [i] lands on [pid] through its view's lander group *)
            let v = views.((pid * n) + i) in
            if first.(v) < 0 then first.(v) <- r
            else begin
              incr unions;
              Uf.union uf first.(v) r
            end
          end
        done
      end
    done
  done;
  Metrics.add m_unions !unions;
  if Metrics.enabled () then Metrics.add m_landable (Pset.cardinal landable);
  { model; uf; landable; participates }

let cbox cl phi =
  Metrics.time s_cbox @@ fun () ->
  let model = cl.model in
  let nruns = Model.nruns model and per_run = Model.horizon model + 1 in
  (* a component root is bad if some landable point of the component
     refutes φ *)
  let bad = Array.make nruns false in
  for r = 0 to nruns - 1 do
    for pid = r * per_run to ((r + 1) * per_run) - 1 do
      if Pset.mem cl.landable pid && not (Pset.mem phi pid) then
        bad.(Uf.find cl.uf r) <- true
    done
  done;
  let out = Pset.create (Model.npoints model) in
  for r = 0 to nruns - 1 do
    if (not (Pset.mem cl.participates r)) || not bad.(Uf.find cl.uf r) then
      for pid = r * per_run to ((r + 1) * per_run) - 1 do
        Pset.add out pid
      done
  done;
  out

let cbox_naive model s phi =
  let x = ref (Pset.full (Model.npoints model)) in
  let continue = ref true in
  while !continue do
    Metrics.incr m_naive_iters;
    let next = ebox model s (Pset.inter phi !x) in
    if Pset.equal next !x then continue := false else x := next
  done;
  !x

let reachable_runs cl ~run =
  let nruns = Model.nruns cl.model in
  if not (Pset.mem cl.participates run) then Pset.create nruns
  else
    let root = Uf.find cl.uf run in
    Pset.init nruns (fun r -> Pset.mem cl.participates r && Uf.find cl.uf r = root)
