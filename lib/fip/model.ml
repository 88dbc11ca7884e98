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
}

type t = {
  params : Params.t;
  store : View.store;
  runs : run array;
  views : View.id array;
  by_key : (int, int list) Hashtbl.t Lazy.t;
}

let s_build = Metrics.span "model.build"
let s_walk = Metrics.span "model.build.walk"
let s_intern = Metrics.span "model.build.intern"
let m_runs = Metrics.counter "model.runs"
let m_points = Metrics.counter "model.points"
let m_views = Metrics.counter "model.views"

(* Interior-node view extensions the builder actually performed, and the
   ones it skipped relative to the naive per-run simulation.  Both are
   functions of the universe alone, so they are deterministic across job
   counts — which is what lets test_build assert the accounting exactly. *)
let m_tree_nodes = Metrics.counter "model.tree_nodes"
let m_prefix_hits = Metrics.counter "model.prefix_hits"

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

let finish (params : Params.t) store runs views =
  if Metrics.enabled () then begin
    let nruns = Array.length runs in
    Metrics.add m_runs nruns;
    Metrics.add m_points (nruns * (params.Params.horizon + 1));
    Metrics.add m_views (View.size store)
  end;
  { params; store; runs; views; by_key = make_index runs }

(* --- the shared-prefix builder ------------------------------------------

   Patterns that agree on their delivery signatures for rounds [1..k]
   produce identical views through time [k], so simulating each run on its
   own recomputes every shared prefix once per pattern.  The builder below
   extends each processor's view once per signature-prefix class instead of
   once per run.  It is bit-identical to that naive per-run simulation (the
   test suite keeps it as the reference) by allocation order: it interns
   views in exactly the order the naive enumeration first needs them.

   It runs in two passes.  The walk streams the patterns in canonical
   order into one signature trie per faulty set, recording each pattern's
   deepest node; the tries bound the views the model can hold, so the
   intern pass allocates the store, the runs and the rows once at their
   final sizes and then fills the rows run by run. *)

(* One signature-prefix class: the patterns whose round signatures agree
   through the node's depth.  [t_deliv.(i)] has bit [j] set iff [j]'s
   message of the node's round reaches [i]; [t_past.(i)] is [i]'s causal
   past at the node, the processors whose initial value can reach [i]'s
   view along the deliveries so far.  [t_levels.(c)] is the offset in the
   model's rows of the node's per-processor views for configuration [c],
   or [-1] until the first run through the node under [c] interns them —
   per configuration, not per class, so the store's allocation order is
   exactly the naive simulation's (pattern-major, configuration-inner,
   time-ascending). *)
type trie = {
  t_parent : trie option;
  t_deliv : int array;
  t_past : int array;
  t_levels : int array;
  t_children : (int array, trie) Hashtbl.t;
  mutable t_seen : int list;
      (* the (receiver, delivery mask) pairs among the children, each as
         [i lsl n lor mask] *)
}

let fresh_node ~nconfigs parent deliv past =
  {
    t_parent = parent;
    t_deliv = deliv;
    t_past = past;
    t_levels = Array.make (max 1 nconfigs) (-1);
    t_children = Hashtbl.create 4;
    t_seen = [];
  }

(* The child of [parent] for round signature [key] (send and receive
   omissions of each faulty processor in [procs], interleaved).  Its
   capacity bound: a child's view of [i] under a configuration is fixed by
   the parent's views under it and [i]'s delivery mask, and depends only on
   the initial values in [i]'s causal past, so each distinct (i, mask) pair
   among a node's children adds at most [min nconfigs 2^|past|] views. *)
let new_child ~n ~nconfigs ~bound parent procs key =
  let deliv = Array.init n (fun i -> (1 lsl n) - 1 - (1 lsl i)) in
  Array.iteri
    (fun q p ->
      let send = key.(2 * q) and recv = key.((2 * q) + 1) in
      for i = 0 to n - 1 do
        if send land (1 lsl i) <> 0 then deliv.(i) <- deliv.(i) land lnot (1 lsl p)
      done;
      deliv.(p) <- deliv.(p) land lnot recv)
    procs;
  let past =
    Array.init n (fun i ->
        let acc = ref parent.t_past.(i) in
        for j = 0 to n - 1 do
          if deliv.(i) land (1 lsl j) <> 0 then acc := !acc lor parent.t_past.(j)
        done;
        !acc)
  in
  for i = 0 to n - 1 do
    let pair = (i lsl n) lor deliv.(i) in
    if not (List.mem pair parent.t_seen) then begin
      parent.t_seen <- pair :: parent.t_seen;
      bound := !bound + min nconfigs (1 lsl Bitset.cardinal (Bitset.of_int past.(i)))
    end
  done;
  fresh_node ~nconfigs (Some parent) deliv past

(* [jobs] is accepted and ignored: both passes run in the calling domain. *)
let build ?configs ?jobs:_ (params : Params.t) =
  Metrics.time s_build @@ fun () ->
  let n = params.Params.n and horizon = params.Params.horizon in
  let configs =
    Array.of_list
      (match configs with Some cs -> cs | None -> Config.all ~n)
  in
  let nconfigs = Array.length configs in
  let tree_nodes = ref 0 and bound = ref 0 in
  (* pass 1: every pattern, with its depth-[horizon] node, in canonical order *)
  let walked =
    Metrics.time s_walk @@ fun () ->
    let found = ref [] in
    List.iter
      (fun set ->
        let procs = Array.of_list (Bitset.to_list set) in
        let behs =
          Array.to_list
            (Array.map (fun proc -> Universe.behaviours_for params ~proc) procs)
        in
        let root = fresh_node ~nconfigs None [||] (Array.init n (fun i -> 1 lsl i)) in
        let key = Array.make (2 * Array.length procs) 0 in
        Seq.iter
          (fun tuple ->
            let node = ref root in
            for k = 1 to horizon do
              List.iteri
                (fun q b ->
                  let s, r = Pattern.round_signature ~n b ~round:k in
                  key.(2 * q) <- Bitset.to_int s;
                  key.((2 * q) + 1) <- Bitset.to_int r)
                tuple;
              node :=
                match Hashtbl.find_opt !node.t_children key with
                | Some c -> c
                | None ->
                    let c = new_child ~n ~nconfigs ~bound !node procs key in
                    incr tree_nodes;
                    Hashtbl.add !node.t_children (Array.copy key) c;
                    c
            done;
            found := (Pattern.make params tuple, !node) :: !found)
          (Combi.cartesian_seq behs))
      (Bitset.subsets_upto n params.Params.t_failures);
    Array.of_list (List.rev !found)
  in
  let npatterns = Array.length walked in
  let per_run = horizon + 1 in
  (* pass 2: run [r] is pattern [r / nconfigs] under configuration
     [r mod nconfigs]; its row at time [k] starts at [(r * per_run + k) * n] *)
  let store, runs, views =
    Metrics.time s_intern @@ fun () ->
    let store = View.create_store ~n ~capacity:((2 * n) + !bound) () in
    let views = Array.make (npatterns * nconfigs * per_run * n) 0 in
    let path = Array.make per_run (snd walked.(0)) in
    let runs =
      Array.init (npatterns * nconfigs) (fun r ->
          let pattern, leaf = walked.(r / nconfigs) and c = r mod nconfigs in
          if c = 0 then begin
            let node = ref leaf in
            for k = horizon downto 1 do
              path.(k) <- !node;
              node := Option.get !node.t_parent
            done;
            path.(0) <- !node
          end;
          for k = 0 to horizon do
            let node = path.(k) and row = ((r * per_run) + k) * n in
            let level = node.t_levels.(c) in
            if level >= 0 then Array.blit views level views row n
            else begin
              if k = 0 then
                for i = 0 to n - 1 do
                  views.(row + i) <- View.leaf store ~owner:i (Config.value configs.(c) i)
                done
              else
                for i = 0 to n - 1 do
                  views.(row + i) <-
                    View.node_row store ~owner:i ~row:views ~base:(row - n)
                      ~delivered:node.t_deliv.(i)
                done;
              node.t_levels.(c) <- row
            end
          done;
          { index = r; config = configs.(c); pattern; faulty = Pattern.faulty pattern })
    in
    (store, runs, views)
  in
  if Metrics.enabled () then begin
    Metrics.add m_tree_nodes !tree_nodes;
    Metrics.add m_prefix_hits
      (((npatterns * horizon) - !tree_nodes) * nconfigs * n)
  end;
  finish params store runs views

let nruns m = Array.length m.runs
let horizon m = m.params.Params.horizon
let n m = m.params.Params.n
let npoints m = nruns m * (horizon m + 1)
let point m ~run ~time = (run * (horizon m + 1)) + time
let run_index_of_point m pid = pid / (horizon m + 1)
let run_of_point m pid = m.runs.(run_index_of_point m pid)
let time_of_point m pid = pid mod (horizon m + 1)

let view_at m ~point ~proc = m.views.((point * n m) + proc)
let view m ~run ~time ~proc = view_at m ~point:(point m ~run ~time) ~proc

let nonfaulty m ~run = Bitset.diff (Bitset.full (n m)) m.runs.(run).faulty

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
