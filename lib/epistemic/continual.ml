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

(* --- union-find over run indices ---

   A union links the root with the larger run index under the smaller
   one, so a component's root is its least run and stays put while the
   run-major walk adds later runs; [find] halves the path as it goes. *)

let find uf i =
  let i = ref i in
  while uf.(!i) <> !i do
    let up = uf.(uf.(!i)) in
    uf.(!i) <- up;
    i := up
  done;
  !i

type closure = {
  model : Model.t;
  root : int array;  (* each run's component root: its least run *)
  landable : Pset.t;  (* all points reachable as the endpoint of some step *)
}

(* Run-major: walking (run, time, member) meets each lander group's points
   in ascending run order, the order of the group's cell.  The first run
   seen per view stands for the group and every later one is unioned with
   it, so each group makes the same unions as a walk view by view would;
   only their interleaving across groups differs, which the components do
   not depend on.  The landable set is filled word by word in place.
   Every parent precedes its child, so one ascending pass then points each
   run straight at its root and the closure is read-only from then on. *)
let closure model s =
  Metrics.time s_closure @@ fun () ->
  let n = Model.n model and per_run = Model.horizon model + 1 in
  let nruns = Model.nruns model and npoints = Model.npoints model in
  let table = s.Nonrigid.table and views = model.Model.views in
  let first = Array.make (View.size model.Model.store) (-1) in
  let uf = Array.init nruns Fun.id in
  let landable = Pset.create npoints in
  let words = landable.Pset.words and bpw = Pset.bits_per_word in
  let unions = ref 0 and w = ref 0 and b = ref 0 in
  for r = 0 to nruns - 1 do
    (* the root of [r]'s component: only the unions below move it, and
       nothing links under [r] before its turn *)
    let root = ref r in
    for pid = r * per_run to ((r + 1) * per_run) - 1 do
      let members = table.(pid) in
      if members <> 0 then begin
        words.(!w) <- words.(!w) lor (1 lsl !b);
        for i = 0 to n - 1 do
          if members land (1 lsl i) <> 0 then begin
            (* [i] lands on [pid] through its view's lander group *)
            let v = views.((pid * n) + i) in
            let f = first.(v) in
            if f < 0 then first.(v) <- r
            else begin
              incr unions;
              let rf = find uf f in
              if rf < !root then begin
                uf.(!root) <- rf;
                root := rf
              end
              else if rf > !root then uf.(rf) <- !root
            end
          end
        done
      end;
      incr b;
      if !b = bpw then begin
        b := 0;
        incr w
      end
    done
  done;
  for r = 0 to nruns - 1 do
    uf.(r) <- uf.(uf.(r))
  done;
  Metrics.add m_unions !unions;
  if Metrics.enabled () then Metrics.add m_landable (Pset.cardinal landable);
  { model; root = uf; landable }

(* A component is bad if one of its landable points refutes φ; [C□_S φ]
   holds throughout every run of a good component.  A run with no
   landable point is its own component, and never bad, which is the
   vacuous case. *)
let cbox cl phi =
  Metrics.time s_cbox @@ fun () ->
  let model = cl.model and root = cl.root in
  let nruns = Model.nruns model and per_run = Model.horizon model + 1 in
  if Pset.length phi <> Model.npoints model then
    invalid_arg "Continual.cbox: φ is not a set of the model's points";
  let bpw = Pset.bits_per_word in
  let bad = Bytes.make nruns '\000' in
  let landable = cl.landable.Pset.words and holds = phi.Pset.words in
  for w = 0 to Array.length landable - 1 do
    let refuted = landable.(w) land lnot holds.(w) in
    if refuted <> 0 then
      for b = 0 to bpw - 1 do
        if refuted land (1 lsl b) <> 0 then
          Bytes.set bad root.(((w * bpw) + b) / per_run) '\001'
      done
  done;
  let out = Pset.create (Model.npoints model) in
  let words = out.Pset.words and w = ref 0 and b = ref 0 in
  for r = 0 to nruns - 1 do
    let good = Bytes.get bad root.(r) = '\000' in
    for _ = 1 to per_run do
      if good then words.(!w) <- words.(!w) lor (1 lsl !b);
      incr b;
      if !b = bpw then begin
        b := 0;
        incr w
      end
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
  let nruns = Model.nruns cl.model and per_run = Model.horizon cl.model + 1 in
  let lands = ref false in
  for pid = run * per_run to ((run + 1) * per_run) - 1 do
    if Pset.mem cl.landable pid then lands := true
  done;
  if not !lands then Pset.create nruns
  else
    let root = cl.root.(run) in
    Pset.init nruns (fun r -> cl.root.(r) = root)
