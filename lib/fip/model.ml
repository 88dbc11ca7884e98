module Bitset = Eba_util.Bitset
module Combi = Eba_util.Combi
module Metrics = Eba_util.Metrics
module Value = Eba_sim.Value
module Config = Eba_sim.Config
module Params = Eba_sim.Params
module Pattern = Eba_sim.Pattern
module Universe = Eba_sim.Universe

type run = {
  index : int;
  config : Config.t;
  pattern : Pattern.t;
  faulty : Bitset.t;
  views : View.id array;
}

type t = {
  params : Params.t;
  store : View.store;
  runs : run array;
  cell_off : int array;
  cell_ids : int array;
  by_key : (int, int list) Hashtbl.t Lazy.t;
}

let s_build = Metrics.span "model.build"
let s_simulate = Metrics.span "model.build.simulate"
let s_cells = Metrics.span "model.build.cells"
let m_runs = Metrics.counter "model.runs"
let m_points = Metrics.counter "model.points"
let m_views = Metrics.counter "model.views"
let m_cell_entries = Metrics.counter "model.cell_entries"

(* Interior-node view extensions the builder actually performed, and the
   ones it skipped relative to the naive per-run simulation.  Both are
   functions of the universe alone, so they are deterministic across job
   counts — which is what lets test_build assert the accounting exactly. *)
let m_tree_nodes = Metrics.counter "model.tree_nodes"
let m_prefix_hits = Metrics.counter "model.prefix_hits"

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

(* Locating a run by (config, pattern) is a rare operation on a huge array,
   so the index is lazy: a hash bucket per [Hashtbl.hash] key, resolved by
   [equal] on the (short) bucket.  Structurally equal patterns hash equal,
   which is all the bucketing needs. *)
let run_key config pattern = Hashtbl.hash (Config.to_bits config, pattern)

let make_index runs =
  lazy
    (let tbl = Hashtbl.create (2 * max 1 (Array.length runs)) in
     for idx = Array.length runs - 1 downto 0 do
       let r = runs.(idx) in
       let key = run_key r.config r.pattern in
       let prior = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
       Hashtbl.replace tbl key (idx :: prior)
     done;
     tbl)

let finish (params : Params.t) store runs =
  let cell_off, cell_ids =
    Metrics.time s_cells (fun () ->
        build_cells store runs params.Params.horizon params.Params.n)
  in
  if Metrics.enabled () then begin
    let nruns = Array.length runs in
    let npoints = nruns * (params.Params.horizon + 1) in
    Metrics.add m_runs nruns;
    Metrics.add m_points npoints;
    Metrics.add m_views (View.size store);
    Metrics.add m_cell_entries (npoints * params.Params.n)
  end;
  { params; store; runs; cell_off; cell_ids; by_key = make_index runs }

(* --- the shared-prefix builder ------------------------------------------

   Patterns that agree on their delivery signatures for rounds [1..k]
   produce identical views through time [k], so simulating each run on its
   own recomputes every shared prefix once per pattern.  The builder below
   extends each processor's view once per signature-prefix class instead of
   once per run.  It is bit-identical to that naive per-run simulation (the
   test suite keeps it as the reference) by allocation order: it interns
   views in exactly the order the naive enumeration first needs them. *)

(* One signature-prefix class, grown lazily while patterns stream by in
   canonical order.  [t_levels.(c)] is the per-processor view vector of the
   class at its depth for configuration [c], computed on first use — per
   configuration, not per class, so the store's allocation order is exactly
   the naive simulation's (pattern-major, configuration-inner, time-ascending). *)
type trie = {
  t_send : Bitset.t array;
  t_recv : Bitset.t array;
  t_levels : int array array;
  t_children : (int array, trie) Hashtbl.t;
}

(* [jobs] is accepted and ignored: the walk runs in the calling domain. *)
let build ?(flavour = Universe.Exhaustive) ?configs ?jobs:_ (params : Params.t) =
  Metrics.time s_build @@ fun () ->
  let n = params.Params.n and horizon = params.Params.horizon in
  let configs =
    Array.of_list
      (match configs with Some cs -> cs | None -> Config.all ~n)
  in
  let nconfigs = Array.length configs in
  let store = View.create_store ~n () in
  let parts = Array.make (max 1 n) (-1) in
  let runs = ref [] in
  let index = ref 0 in
  let npatterns = ref 0 in
  let tree_nodes = ref 0 in
  let dummy =
    { t_send = [||]; t_recv = [||]; t_levels = [||]; t_children = Hashtbl.create 1 }
  in
  let path = Array.make (horizon + 1) dummy in
  Metrics.time s_simulate (fun () ->
      List.iter
        (fun set ->
          let procs = Bitset.to_list set in
          let behs =
            List.map (fun proc -> Universe.behaviours_for ~flavour params ~proc) procs
          in
          let fresh_node send recv =
            {
              t_send = send;
              t_recv = recv;
              t_levels = Array.make (max 1 nconfigs) [||];
              t_children = Hashtbl.create 4;
            }
          in
          let empty_sig = Array.make n Bitset.empty in
          let root = fresh_node empty_sig empty_sig in
          path.(0) <- root;
          Seq.iter
            (fun tuple ->
              let pattern = Pattern.make params tuple in
              incr npatterns;
              for k = 1 to horizon do
                let key =
                  Array.of_list
                    (List.concat_map
                       (fun b ->
                         let s, r = Pattern.round_signature ~n b ~round:k in
                         [ Bitset.to_int s; Bitset.to_int r ])
                       tuple)
                in
                let parent = path.(k - 1) in
                let child =
                  match Hashtbl.find_opt parent.t_children key with
                  | Some c -> c
                  | None ->
                      let send = Array.make n Bitset.empty
                      and recv = Array.make n Bitset.empty in
                      List.iter2
                        (fun proc b ->
                          let s, r = Pattern.round_signature ~n b ~round:k in
                          send.(proc) <- s;
                          recv.(proc) <- r)
                        procs tuple;
                      let c = fresh_node send recv in
                      incr tree_nodes;
                      Hashtbl.add parent.t_children key c;
                      c
                in
                path.(k) <- child
              done;
              let faulty = Pattern.faulty pattern in
              for c = 0 to nconfigs - 1 do
                if Array.length root.t_levels.(c) = 0 then
                  root.t_levels.(c) <-
                    Array.init n (fun i ->
                        View.leaf store ~owner:i (Config.value configs.(c) i));
                for k = 1 to horizon do
                  let nd = path.(k) in
                  if Array.length nd.t_levels.(c) = 0 then begin
                    let prev = path.(k - 1).t_levels.(c) in
                    let lv = Array.make n (-1) in
                    for i = 0 to n - 1 do
                      for j = 0 to n - 1 do
                        parts.(j) <-
                          (if
                             j = i
                             || Bitset.mem i nd.t_send.(j)
                             || Bitset.mem j nd.t_recv.(i)
                           then -1
                           else prev.(j))
                      done;
                      lv.(i) <- View.node_parts store ~owner:i ~prev:prev.(i) ~parts
                    done;
                    nd.t_levels.(c) <- lv
                  end
                done;
                let views = Array.make ((horizon + 1) * n) (-1) in
                for m = 0 to horizon do
                  Array.blit path.(m).t_levels.(c) 0 views (m * n) n
                done;
                runs :=
                  { index = !index; config = configs.(c); pattern; faulty; views }
                  :: !runs;
                incr index
              done)
            (Combi.cartesian_seq behs))
        (Bitset.subsets_upto n params.Params.t_failures));
  if Metrics.enabled () then begin
    Metrics.add m_tree_nodes !tree_nodes;
    Metrics.add m_prefix_hits
      (((!npatterns * horizon) - !tree_nodes) * nconfigs * n)
  end;
  finish params store (Array.of_list (List.rev !runs))

let nruns m = Array.length m.runs
let horizon m = m.params.Params.horizon
let n m = m.params.Params.n
let npoints m = nruns m * (horizon m + 1)
let point m ~run ~time = (run * (horizon m + 1)) + time
let run_index_of_point m pid = pid / (horizon m + 1)
let run_of_point m pid = m.runs.(run_index_of_point m pid)
let time_of_point m pid = pid mod (horizon m + 1)

let view m ~run ~time ~proc = m.runs.(run).views.((time * n m) + proc)

let view_at m ~point:pid ~proc =
  let run = run_of_point m pid and time = time_of_point m pid in
  run.views.((time * n m) + proc)

let nonfaulty m ~run = Bitset.diff (Bitset.full (n m)) m.runs.(run).faulty

let cell_length m v = m.cell_off.(v + 1) - m.cell_off.(v)

let cell_iter m v f =
  for k = m.cell_off.(v) to m.cell_off.(v + 1) - 1 do
    f m.cell_ids.(k)
  done

let cell_forall m v p =
  let e = m.cell_off.(v + 1) in
  let rec go k = k >= e || (p m.cell_ids.(k) && go (k + 1)) in
  go m.cell_off.(v)

let cell m v = Array.sub m.cell_ids m.cell_off.(v) (cell_length m v)

let prepare_index m = ignore (Lazy.force m.by_key : (int, int list) Hashtbl.t)

let find_run m ~config ~pattern =
  match Hashtbl.find_opt (Lazy.force m.by_key) (run_key config pattern) with
  | None -> None
  | Some idxs ->
      List.find_map
        (fun idx ->
          let r = m.runs.(idx) in
          if Config.equal r.config config && Pattern.equal r.pattern pattern then
            Some r
          else None)
        idxs

let iter_points m f =
  for pid = 0 to npoints m - 1 do
    f pid
  done

let pp_stats fmt m =
  Format.fprintf fmt "model %a: %d runs, %d points, %d distinct views" Params.pp
    m.params (nruns m) (npoints m) (View.size m.store)
