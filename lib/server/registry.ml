module Json = Eba_util.Json
module P = Protocol
module Params = Eba_sim.Params

let ( let* ) = Result.bind

let verbs = [ "netsim-sweep"; "probcheck"; "knowledge-query" ]

type ctx = {
  cancel : Eba_util.Cancel.t;
  progress : (done_:int -> total:int -> unit) option;
}

let no_ctx = { cancel = Eba_util.Cancel.create (); progress = None }

(* One cache for the whole process: every worker domain of every daemon
   instance shares it, which is the point — repeat queries against the
   same universe reuse one built model. *)
let model_cache = Model_cache.create ~capacity:8 ()

(* --- netsim-sweep --- *)

let netsim params =
  let* spec = Spec.of_json params in
  let* resolved = Spec.resolve spec in
  Ok
    (fun ctx ->
      Ok
        (Eba_net.Net_stats.summary_json
           (Spec.run ~cancel:ctx.cancel ?progress:ctx.progress resolved)))

(* --- probcheck --- *)

let probcheck params =
  let* spec = Spec.Probcheck.of_json params in
  (* refused here, before queueing: a report past the served budget *)
  let* () = Spec.Probcheck.admit spec in
  (* [Report.make] IS the computation (the exact Markov analysis), so it
     runs in the worker; its validation failures come back as the
     thunk's [Error]. *)
  Ok
    (fun ctx ->
      Result.map Eba_prob.Report.to_json
        (Spec.Probcheck.report ~cancel:ctx.cancel spec))

(* --- knowledge-query --- *)

let spec_report_json (r : Eba_core.Spec.report) =
  Json.Obj
    [
      ("weak_agreement", Json.Bool r.weak_agreement);
      ("agreement", Json.Bool r.agreement);
      ("weak_validity", Json.Bool r.weak_validity);
      ("validity", Json.Bool r.validity);
      ("decision", Json.Bool r.decision);
      ("simultaneity", Json.Bool r.simultaneity);
      ("unambiguous", Json.Bool r.unambiguous);
      ( "max_decision_time",
        match r.max_decision_time with
        | Some t -> Json.Int t
        | None -> Json.Null );
    ]

let trying f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

(* Sized from [eba model] and [eba check -p f-lambda-2] at --jobs 1:
   crash n=4 t=2 T=4 (82,608 runs) builds in 0.25 s and peaks at 58 MiB,
   0.44 s and 99 MiB with the check.  Past the budget, crash n=4 t=2 T=5
   (126,736 runs) peaks at 104 MiB, n=7 t=1 T=3 (170,368) at 190 MiB,
   and a crash n=5 t=2 T=3 model (684,512 runs) holds 360 MiB in the
   cache. *)
let max_knowledge_runs = 100_000

(* Universe.count x 2^n configurations, refused in the event loop before
   anything is queued or built *)
let admit_universe params =
  let module C = Eba_util.Combi in
  let too_large count =
    Error
      (Printf.sprintf "knowledge-query too large to serve: %s runs, past the budget of %d runs"
         count max_knowledge_runs)
  in
  match C.mul_exn (Eba_sim.Universe.count params) (C.pow 2 params.Params.n) with
  | runs when runs <= max_knowledge_runs -> Ok ()
  | runs -> too_large (string_of_int runs)
  | exception C.Overflow -> too_large "more than max_int"

let knowledge params =
  let* () =
    Spec.check_keys
      ~allowed:[ "n"; "t"; "horizon"; "mode"; "protocol"; "query"; "jobs" ]
      params
  in
  let* n = P.get_int ~default:3 params "n" in
  let* t = P.get_int ~default:1 params "t" in
  let* horizon = P.get_int ~default:3 params "horizon" in
  let* mode_s = P.get_string ~default:"crash" params "mode" in
  let* mode =
    match Spec.mode_of_string mode_s with
    | Some m -> Ok m
    | None -> Error (Printf.sprintf "unknown mode %S" mode_s)
  in
  let* query = P.get_string ~default:"spec" params "query" in
  let* jobs = Spec.get_jobs params in
  let* model_params = trying (fun () -> Params.make ~n ~t ~horizon ~mode) in
  let* () = admit_universe model_params in
  let identity name =
    [
      ("protocol", Json.String name);
      ("query", Json.String query);
      ("n", Json.Int n);
      ("t", Json.Int t);
      ("horizon", Json.Int horizon);
      ("mode", Json.String mode_s);
    ]
  in
  match query with
  | "spec" ->
      (* The CLI [check] command's pipeline: semantic decisions of the
         named knowledge-based protocol, checked against the EBA spec
         and the Theorem 5.3 optimality characterization. *)
      let* name = P.get_string ~default:"f-lambda-2" params "protocol" in
      let* pair_of_env =
        match Eba_core.Zoo.by_name name with
        | Some build -> Ok build
        | None ->
            Error
              (Printf.sprintf "unknown protocol %S (have: %s)" name
                 (String.concat ", " Eba_core.Zoo.names))
      in
      Ok
        (fun ctx ->
          trying (fun () ->
              Eba_util.Cancel.check ctx.cancel;
              (* the hot path: repeat queries against the same universe
                 reuse the built model.  [jobs] does not reach the
                 builder, which runs in this worker's domain at any job
                 count; it only steers [exhaustive] below. *)
              let model =
                Model_cache.find_or_build model_cache model_params
                  (fun p -> Eba_fip.Model.build p)
              in
              let env = Eba_epistemic.Formula.env model in
              let pair = pair_of_env env in
              let d = Eba_core.Kb_protocol.decide model pair in
              let report = Eba_core.Spec.check d in
              Json.Obj
                (identity name
                @ [
                    ("eba", Json.Bool (Eba_core.Spec.is_eba report));
                    ( "nta",
                      Json.Bool
                        (Eba_core.Spec.is_nontrivial_agreement report) );
                    ( "optimal",
                      Json.Bool (Eba_core.Characterize.is_optimal env d) );
                    ("report", spec_report_json report);
                  ])))
  | "exhaustive" ->
      (* Every configuration x every pattern through an operational
         protocol — [Stats.exhaustive]'s summary as
         [Stats.summary_json]. *)
      let* name = P.get_string ~default:"floodset" params "protocol" in
      let* select =
        match List.assoc_opt name Spec.protocols with
        | Some s -> Ok s
        | None ->
            Error
              (Printf.sprintf "unknown protocol %S (have: %s)" name
                 (String.concat ", " Spec.protocol_names))
      in
      let* protocol = trying (fun () -> select model_params) in
      Ok
        (fun ctx ->
          trying (fun () ->
              let summary =
                Eba_protocols.Stats.exhaustive ?jobs ~cancel:ctx.cancel
                  protocol model_params
              in
              Json.Obj
                (identity name
                @ [ ("summary", Eba_protocols.Stats.summary_json summary) ])))
  | other ->
      Error
        (Printf.sprintf "unknown query %S (have: spec, exhaustive)" other)

let prepare ~verb ~params =
  let wrap = function
    | Ok thunk -> Ok thunk
    | Error msg -> Error (`Bad_request msg)
  in
  match verb with
  | "netsim-sweep" -> wrap (netsim params)
  | "probcheck" -> wrap (probcheck params)
  | "knowledge-query" -> wrap (knowledge params)
  | _ -> Error `Unknown_verb
