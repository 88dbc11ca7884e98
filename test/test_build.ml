(* The shared-prefix model builder: it is bit-identical to the naive
   reference (Naive_build) — same runs, same view ids, same cells —
   for every mode and job count, while provably doing less
   interning work, and the hashed run index agrees with a linear scan. *)

module V = Eba.View
module M = Eba.Model
module Cfg = Eba.Config
module Pat = Eba.Pattern
module U = Eba.Universe
module Params = Eba.Params
module Val = Eba.Value
module B = Eba.Bitset
module Metrics = Eba.Metrics
module Parallel = Eba.Parallel
open Helpers

(* Bit-identical equivalence, down to view-store metadata: the shared
   builder's contract is that nothing observable distinguishes it from the
   naive builder.  Library models are compared through
   [Naive_build.of_model]. *)
let check_models_equal label (a : Naive_build.t) (b : Naive_build.t) =
  let ck what ok = check (label ^ ": " ^ what) true ok in
  check_int (label ^ ": nruns") (Array.length a.runs) (Array.length b.runs);
  check_int (label ^ ": views") (V.size a.store) (V.size b.store);
  Array.iteri
    (fun idx (ra : Naive_build.run) ->
      let rb = b.runs.(idx) in
      check_int (label ^ ": run index") ra.index rb.index;
      ck "run config" (Cfg.equal ra.config rb.config);
      ck "run pattern" (Pat.equal ra.pattern rb.pattern);
      ck "run faulty" (B.equal ra.faulty rb.faulty);
      ck "run views" (ra.views = rb.views))
    a.runs;
  let sa = a.store and sb = b.store in
  for v = 0 to V.size sa - 1 do
    check_int (label ^ ": owner") (V.owner sa v) (V.owner sb v);
    check_int (label ^ ": time") (V.time sa v) (V.time sb v);
    ck "init" (Val.equal (V.init_value sa v) (V.init_value sb v));
    ck "prev" (V.prev sa v = V.prev sb v);
    ck "heard" (B.equal (V.heard_from sa v) (V.heard_from sb v));
    ck "knows_zero" (V.knows_zero sa v = V.knows_zero sb v);
    for j = 0 to V.n sa - 1 do
      ck "received" (V.received sa v j = V.received sb v j)
    done
  done;
  ck "cell_off" (a.cell_off = b.cell_off);
  ck "cell_ids" (a.cell_ids = b.cell_ids)

let shared ?configs ~jobs params =
  Naive_build.of_model
    (Parallel.with_jobs jobs (fun () -> M.build ?configs ~jobs params))

let scenario_gen =
  QCheck2.Gen.(
    let* mode = oneofl [ Params.Crash; Params.Omission; Params.General_omission ] in
    let* n = int_range 2 4 in
    let* t = int_range 0 2 in
    let* horizon = int_range 1 3 in
    return (mode, n, t, horizon))

let scenario_print (mode, n, t, horizon) =
  Printf.sprintf "mode=%s n=%d t=%d T=%d"
    (match mode with
    | Params.Crash -> "crash"
    | Params.Omission -> "omission"
    | Params.General_omission -> "general")
    n t horizon

let equivalence_tests =
  [
    qtest ~count:30 "shared builder is bit-identical to naive" scenario_gen
      (fun ((mode, n, t, horizon) as sc) ->
        QCheck2.assume (t < n);
        let params = Params.make ~n ~t ~horizon ~mode in
        QCheck2.assume (U.count params * (1 lsl n) <= 6000);
        let naive = Naive_build.build params in
        (* the job count, ambient and per call, must change no bit:
           jobs=1 and jobs=4 are both indistinguishable from naive *)
        check_models_equal (scenario_print sc) naive (shared ~jobs:1 params);
        check_models_equal (scenario_print sc ^ " [jobs=4]") naive
          (shared ~jobs:4 params);
        true);
    test "shared build is bit-identical for jobs=1 and jobs=4" (fun () ->
        List.iter
          (fun (label, fx) ->
            check_models_equal label (shared ~jobs:1 fx.params)
              (shared ~jobs:4 fx.params))
          small_fixtures);
    test "restricted configs produce the same model under both builders" (fun () ->
        let params = crash_3_1_3.params in
        let configs = [ Cfg.of_bits ~n:3 0b000; Cfg.of_bits ~n:3 0b101 ] in
        check_models_equal "restricted configs"
          (Naive_build.build ~configs params)
          (Naive_build.of_model (M.build ~configs params)));
  ]

let sharing_tests =
  [
    (* A naive per-run simulation interns runs * T * n interior views; the
       trie walk interns each tree node's 2^n * n views once and counts
       every other visit as a prefix hit. *)
    test "prefix sharing is strict and accounted exactly" (fun () ->
        List.iter
          (fun fx ->
            with_metrics (fun () ->
                let params = fx.params in
                let (_ : M.t) = M.build params in
                let det = Metrics.deterministic_counters () in
                let get name = List.assoc name det in
                let tree_nodes = get "model.tree_nodes" in
                let hits = get "model.prefix_hits" in
                let n = params.Params.n in
                let views_per_node = (1 lsl n) * n in
                let naive_nodes =
                  U.count params * params.Params.horizon * views_per_node
                in
                let shared_nodes = tree_nodes * views_per_node in
                check "some prefixes were shared" true (hits > 0);
                check_int "shared work + hits = naive work" naive_nodes
                  (shared_nodes + hits)))
          [ crash_3_1_3; omission_3_1_3; crash_4_2_4 ]);
  ]

let find_run_tests =
  [
    test "find_run locates every run by (config, pattern)" (fun () ->
        let m = model omission_3_1_2 in
        Array.iter
          (fun r ->
            match M.find_run m ~config:r.M.config ~pattern:r.M.pattern with
            | Some r' -> check_int "index" r.M.index r'.M.index
            | None -> Alcotest.fail "run not found")
          m.M.runs);
    test "find_run rejects patterns outside the model" (fun () ->
        (* a round-1 crash that reaches every other processor is the
           clean crash in non-canonical form, which no universe holds *)
        let params = crash_3_1_3.params in
        let m = model crash_3_1_3 in
        let pattern =
          Pat.make params
            [ Pat.crash ~horizon:3 ~proc:0 ~round:1 ~recipients:(B.of_list [ 1; 2 ]) ]
        in
        let config = Cfg.of_bits ~n:3 0b110 in
        check "absent" true (M.find_run m ~config ~pattern = None);
        (* same config with an in-universe pattern is found *)
        check "present" true
          (M.find_run m ~config ~pattern:(Pat.failure_free params) <> None));
  ]

(* The walk bounds the views before the store is allocated, so the intern
   pass never regrows it: over every mode, with all
   configurations and with a third of them, the build reports no
   [view.grows] and stays bit-identical to the naive reference. *)
let capacity_tests =
  [
    qtest ~count:30 ~print:scenario_print
      "the view store is sized once: no regrowth, bit-identical to naive"
      scenario_gen (fun ((mode, n, t, horizon) as sc) ->
        QCheck2.assume (t < n);
        let params = Params.make ~n ~t ~horizon ~mode in
        QCheck2.assume (U.count params * (1 lsl n) <= 6000);
        List.iter
          (fun (label, configs) ->
            let label = scenario_print sc ^ label in
            let m =
              with_metrics (fun () ->
                  let m = M.build ?configs params in
                  check_int (label ^ ": view.grows") 0
                    (Option.value ~default:0
                       (List.assoc_opt "view.grows" (Metrics.deterministic_counters ())));
                  m)
            in
            check_models_equal label
              (Naive_build.build ?configs params)
              (Naive_build.of_model m))
          [
            ("", None);
            (" [every third config]", Some (List.filteri (fun k _ -> k mod 3 = 0) (Cfg.all ~n)));
          ];
        true);
  ]

let suite =
  ( "build",
    List.concat
      [ equivalence_tests; sharing_tests; find_run_tests; capacity_tests ] )
