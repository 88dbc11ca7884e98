(* Shared fixtures: bounded models are expensive to build, so every suite
   draws them from these lazy caches. *)

module Params = Eba.Params
module Model = Eba.Model
module Formula = Eba.Formula

type fixture = {
  params : Params.t;
  model : Model.t Lazy.t;
  env : Formula.env Lazy.t;
}

let fixture ~n ~t ~horizon ~mode =
  let params = Params.make ~n ~t ~horizon ~mode in
  let model = lazy (Model.build params) in
  let env = lazy (Formula.env (Lazy.force model)) in
  { params; model; env }

let crash_3_1_3 = fixture ~n:3 ~t:1 ~horizon:3 ~mode:Params.Crash
let crash_4_1_3 = fixture ~n:4 ~t:1 ~horizon:3 ~mode:Params.Crash
let crash_3_2_4 = fixture ~n:3 ~t:2 ~horizon:4 ~mode:Params.Crash
let crash_4_1_4 = fixture ~n:4 ~t:1 ~horizon:4 ~mode:Params.Crash
let crash_4_2_4 = fixture ~n:4 ~t:2 ~horizon:4 ~mode:Params.Crash
let omission_3_1_2 = fixture ~n:3 ~t:1 ~horizon:2 ~mode:Params.Omission
let omission_3_1_3 = fixture ~n:3 ~t:1 ~horizon:3 ~mode:Params.Omission
let omission_4_1_3 = fixture ~n:4 ~t:1 ~horizon:3 ~mode:Params.Omission
let omission_4_2_2 = fixture ~n:4 ~t:2 ~horizon:2 ~mode:Params.Omission

let model f = Lazy.force f.model
let env f = Lazy.force f.env

(* The standard small fixtures most epistemic suites iterate over. *)
let small_fixtures =
  [ ("crash n=3 t=1 T=3", crash_3_1_3); ("omission n=3 t=1 T=2", omission_3_1_2) ]

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

(* Deterministic per-model point picker for spot checks. *)
let some_points m k =
  let np = Model.npoints m in
  List.init k (fun i -> i * 7919 mod np)

(* Runs [f] with the metrics layer on and zeroed, restoring it after. *)
let with_metrics f =
  let was = Eba.Metrics.enabled () in
  Eba.Metrics.set_enabled true;
  Eba.Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Eba.Metrics.set_enabled was;
      Eba.Metrics.reset ())
    f

(* A counter's current total, or a span's call count (0 when it has
   recorded nothing). *)
let counter_value name =
  match List.find_opt (fun e -> e.Eba.Metrics.e_name = name) (Eba.Metrics.snapshot ()) with
  | Some e -> e.Eba.Metrics.e_count
  | None -> 0

(* Every payload of an event queue, earliest first. *)
let drain_events q =
  let module EQ = Eba.Net.Event_queue in
  let rec go acc = if EQ.is_empty q then List.rev acc else go (EQ.take q :: acc) in
  go []

let qtest ?(count = 100) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen prop)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))
