(* The naive model builder: every (configuration, pattern) pair simulated
   on its own, each processor's view interned afresh at every time, runs
   in pattern-major, configuration-inner order.  The library builds
   models by sharing signature prefixes (Model.build); this builder
   shares nothing, which makes it the reference test_build compares the
   library against — runs, view ids and store metadata.  It also lays out
   every view's cell (the points where the view's owner holds it) as CSR
   arrays, which the library model does not keep: the cell-scanning
   reference kernel (Knowledge_ref) reads them. *)

module View = Eba.View
module Params = Eba.Params
module Config = Eba.Config
module Pattern = Eba.Pattern
module Universe = Eba.Universe
module Bitset = Eba.Bitset

type run = {
  index : int;
  config : Config.t;
  pattern : Pattern.t;
  faulty : Bitset.t;
  views : View.id array;
}

type t = {
  store : View.store;
  runs : run array;
  cell_off : int array;
  cell_ids : int array;
}

(* [parts] is a caller-provided scratch array of length [n]; the interner
   copies it only when the view is new. *)
let simulate_run store (params : Params.t) ~parts ~index config pattern =
  let n = params.Params.n and horizon = params.Params.horizon in
  let views = Array.make ((horizon + 1) * n) (-1) in
  for i = 0 to n - 1 do
    views.(i) <- View.leaf store ~owner:i (Config.value config i)
  done;
  for k = 1 to horizon do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        parts.(j) <-
          (if j = i then -1
           else if Pattern.delivers pattern ~round:k ~sender:j ~receiver:i then
             views.(((k - 1) * n) + j)
           else -1)
      done;
      views.((k * n) + i) <-
        View.node_parts store ~owner:i ~prev:views.(((k - 1) * n) + i) ~parts
    done
  done;
  { index; config; pattern; faulty = Pattern.faulty pattern; views }

(* CSR layout: cell of view [v] is [cell_ids.(cell_off.(v)) ..
   cell_ids.(cell_off.(v+1) - 1)].  Two passes in canonical run order, so
   within a cell the point ids are sorted ascending whatever builder
   produced the runs. *)
let build_cells store runs horizon n =
  let nviews = View.size store in
  let npoints_per_run = horizon + 1 in
  let off = Array.make (nviews + 1) 0 in
  Array.iter
    (fun run ->
      for m = 0 to horizon do
        for i = 0 to n - 1 do
          let v = run.views.((m * n) + i) in
          off.(v + 1) <- off.(v + 1) + 1
        done
      done)
    runs;
  for v = 1 to nviews do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let ids = Array.make off.(nviews) (-1) in
  let fill = Array.sub off 0 nviews in
  Array.iter
    (fun run ->
      for m = 0 to horizon do
        let pid = (run.index * npoints_per_run) + m in
        for i = 0 to n - 1 do
          let v = run.views.((m * n) + i) in
          ids.(fill.(v)) <- pid;
          fill.(v) <- fill.(v) + 1
        done
      done)
    runs;
  (off, ids)

let build ?configs (params : Params.t) =
  let configs =
    match configs with Some cs -> cs | None -> Config.all ~n:params.Params.n
  in
  let store = View.create_store ~n:params.Params.n ~capacity:1024 () in
  let parts = Array.make (max 1 params.Params.n) (-1) in
  let runs = ref [] in
  let index = ref 0 in
  List.iter
    (fun pattern ->
      List.iter
        (fun config ->
          runs :=
            simulate_run store params ~parts ~index:!index config pattern :: !runs;
          incr index)
        configs)
    (Universe.patterns params);
  let runs = Array.of_list (List.rev !runs) in
  let cell_off, cell_ids =
    build_cells store runs params.Params.horizon params.Params.n
  in
  { store; runs; cell_off; cell_ids }

(* The same fields read off a library model, each run's rows cut from its
   point-indexed ones and the cells derived from those rows. *)
let of_model (m : Eba.Model.t) =
  let row = (Eba.Model.horizon m + 1) * Eba.Model.n m in
  let runs =
    Array.map
      (fun (r : Eba.Model.run) ->
        {
          index = r.index;
          config = r.config;
          pattern = r.pattern;
          faulty = r.faulty;
          views = Array.sub m.views (r.index * row) row;
        })
      m.runs
  in
  let cell_off, cell_ids = build_cells m.store runs (Eba.Model.horizon m) (Eba.Model.n m) in
  { store = m.store; runs; cell_off; cell_ids }

(* The cell of view [v] as a fresh array, ascending. *)
let cell t v = Array.sub t.cell_ids t.cell_off.(v) (t.cell_off.(v + 1) - t.cell_off.(v))
