module Json = Eba_util.Json
module Params = Eba_sim.Params
module Net = Eba_net
module P = Protocol

let ( let* ) = Result.bind

type mux = Mux_off | Mux_auto | Mux_live of int

type t = {
  protocol : string;
  compact : bool;
  n : int;
  t_failures : int;
  horizon : int;
  mode : Params.mode;
  latency : Net.Link.latency;
  loss : float;
  seed : int;
  runs : int option;
  mux : mux;
  rto : float option;
  round_duration : float option;
  retries : int option;
  omit_prob : float;
  partitions : int;
  partition_span : float option;
  jobs : int option;
}

let default =
  {
    protocol = "floodset";
    compact = false;
    n = 3;
    t_failures = 1;
    horizon = 3;
    mode = Params.Crash;
    latency = Net.Link.Const 1.0;
    loss = 0.0;
    seed = 1;
    runs = None;
    mux = Mux_off;
    rto = None;
    round_duration = None;
    retries = None;
    omit_prob = 0.5;
    partitions = 0;
    partition_span = None;
    jobs = None;
  }

(* The same selector tables [eba netsim] is built on: the set-carrying
   protocols pick their word-backed instance at small n and the limb-array
   one beyond, so every protocol runs at any n. *)
let protocols :
    (string * (Params.t -> (module Eba_protocols.Protocol_intf.PROTOCOL))) list
    =
  [
    ("p0", fun _ -> (module Eba_protocols.P0.P0));
    ("p1", fun _ -> (module Eba_protocols.P0.P1));
    ("p0opt", Eba_protocols.P0opt.for_params);
    ("p0opt+", Eba_protocols.P0opt_plus.for_params);
    ("floodset", fun _ -> (module Eba_protocols.Floodset));
    ("chain0", Eba_protocols.Chain0.for_params);
  ]

let compact_protocols :
    (string * (Params.t -> (module Eba_protocols.Protocol_intf.PROTOCOL))) list
    =
  [
    ("p0opt", Eba_protocols.P0opt.Compact.for_params);
    ("p0opt+", Eba_protocols.P0opt_plus.Compact.for_params);
    ("chain0", Eba_protocols.Chain0.Compact.for_params);
  ]

let protocol_names = List.map fst protocols
let compact_protocol_names = List.map fst compact_protocols

type resolved = {
  r_spec : t;
  r_protocol : (module Eba_protocols.Protocol_intf.PROTOCOL);
  r_params : Params.t;
  r_topology : Net.Topology.t;
  r_sync : Net.Sync.t;
  r_dynamic : Net.Inject.dynamic;
  r_runs : int;
  r_mux : int option;
}

(* Raising constructors ([Params.make], [Link.make], [Sync.make], ...)
   become typed errors here: a daemon must answer a bad request, not die
   on it. *)
let trying f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

(* The synchronizer both verbs resolve: what the request leaves out
   defaults from the latency bound ([Sync.default_for]), the window to
   8 rto. *)
let sync_of topology ~rto ~round_duration ~retries =
  let dflt = Net.Sync.default_for topology in
  let rto = Option.value rto ~default:dflt.Net.Sync.rto in
  trying (fun () ->
      Net.Sync.make
        ~round_duration:(Option.value round_duration ~default:(8.0 *. rto))
        ~rto
        ~max_retries:(Option.value retries ~default:dflt.Net.Sync.max_retries))

let resolve spec =
  let* r_params =
    trying (fun () ->
        Params.make ~n:spec.n ~t:spec.t_failures ~horizon:spec.horizon
          ~mode:spec.mode)
  in
  let* select =
    if not spec.compact then
      match List.assoc_opt spec.protocol protocols with
      | Some s -> Ok s
      | None ->
          Error
            (Printf.sprintf "unknown protocol %S (have: %s)" spec.protocol
               (String.concat ", " protocol_names))
    else
      match List.assoc_opt spec.protocol compact_protocols with
      | Some s -> Ok s
      | None ->
          Error
            (Printf.sprintf
               "compact: no bounded-bandwidth variant of %s (have: %s)"
               spec.protocol
               (String.concat ", " compact_protocol_names))
  in
  let* r_protocol = trying (fun () -> select r_params) in
  let* r_topology =
    trying (fun () ->
        Net.Topology.make ~n:spec.n
          ~link:(Net.Link.make ~latency:spec.latency ~loss:spec.loss))
  in
  let* r_sync =
    sync_of r_topology ~rto:spec.rto ~round_duration:spec.round_duration
      ~retries:spec.retries
  in
  let* () = trying (fun () -> Net.Sync.check r_sync r_topology) in
  let* r_dynamic =
    trying (fun () ->
        Net.Inject.dynamic ~omit_prob:spec.omit_prob
          ~partitions:spec.partitions
          ~partition_span:
            (Option.value spec.partition_span ~default:(2.0 *. r_sync.Net.Sync.rto))
          ~max_faulty:spec.t_failures ())
  in
  (* the wave size first: the runs default derives from it *)
  let* r_mux =
    match spec.mux with
    | Mux_off -> Ok None
    | Mux_auto -> Ok (Some 1)
    | Mux_live k ->
        if k >= 1 then Ok (Some k) else Error "mux wave size must be >= 1"
  in
  let r_runs =
    match (spec.runs, spec.mux) with
    | Some r, _ -> r
    | None, Mux_live live -> live
    | None, (Mux_off | Mux_auto) -> 100
  in
  let* () = if r_runs >= 1 then Ok () else Error "runs must be >= 1" in
  Ok { r_spec = spec; r_protocol; r_params; r_topology; r_sync; r_dynamic;
       r_runs; r_mux }

let run ?cancel ?progress r =
  Net.Netsim.sweep ?jobs:r.r_spec.jobs ?mux:r.r_mux ?cancel ?progress
    r.r_protocol r.r_params ~sync:r.r_sync ~topology:r.r_topology
    ~dynamic:r.r_dynamic ~seed:r.r_spec.seed ~runs:r.r_runs

(* --- JSON (de)serialization of the spec --- *)

let mode_to_string = function
  | Params.Crash -> "crash"
  | Params.Omission -> "omission"
  | Params.General_omission -> "general-omission"

let mode_of_string = function
  | "crash" -> Some Params.Crash
  | "omission" -> Some Params.Omission
  | "general-omission" -> Some Params.General_omission
  | _ -> None

let check_keys ~allowed params =
  match params with
  | Json.Obj fields ->
      let rec go = function
        | [] -> Ok ()
        | (k, _) :: rest ->
            if List.mem k allowed then go rest
            else
              Error
                (Printf.sprintf "unknown field %S (allowed: %s)" k
                   (String.concat ", " allowed))
      in
      go fields
  | _ -> Error "params must be an object"

let get_jobs params =
  let* jobs = P.get_int_opt params "jobs" in
  Ok (Option.map (fun j -> min j (Eba_util.Parallel.available ())) jobs)

let netsim_keys =
  [
    "protocol"; "compact"; "n"; "t"; "horizon"; "mode"; "latency"; "loss";
    "seed"; "runs"; "mux"; "rto"; "round_duration"; "retries"; "omit_prob";
    "partitions"; "partition_span"; "jobs";
  ]

let get_latency ?(default = default.latency) params key =
  match P.mem params key with
  | None | Some Json.Null -> Ok default
  | Some (Json.String s) -> (
      match Net.Link.latency_of_string s with
      | lat -> Ok lat
      | exception Invalid_argument m -> Error m)
  | Some _ -> Error (Printf.sprintf "%S must be a latency spec string" key)

let get_mux params =
  match P.mem params "mux" with
  | None | Some Json.Null -> Ok Mux_off
  | Some (Json.String "off") -> Ok Mux_off
  | Some (Json.String "auto") -> Ok Mux_auto
  | Some (Json.Int k) -> Ok (Mux_live k)
  | Some _ -> Error "\"mux\" must be \"off\", \"auto\" or a wave size"

let of_json params =
  let d = default in
  let* () = check_keys ~allowed:netsim_keys params in
  let* protocol = P.get_string ~default:d.protocol params "protocol" in
  let* compact = P.get_bool ~default:d.compact params "compact" in
  let* n = P.get_int ~default:d.n params "n" in
  let* t_failures = P.get_int ~default:d.t_failures params "t" in
  let* horizon = P.get_int ~default:d.horizon params "horizon" in
  let* mode_s = P.get_string ~default:(mode_to_string d.mode) params "mode" in
  let* mode =
    match mode_of_string mode_s with
    | Some m -> Ok m
    | None -> Error (Printf.sprintf "unknown mode %S" mode_s)
  in
  let* latency = get_latency params "latency" in
  let* loss = P.get_float ~default:d.loss params "loss" in
  let* seed = P.get_int ~default:d.seed params "seed" in
  let* runs = P.get_int_opt params "runs" in
  let* mux = get_mux params in
  let* rto = P.get_float_opt params "rto" in
  let* round_duration = P.get_float_opt params "round_duration" in
  let* retries = P.get_int_opt params "retries" in
  let* omit_prob = P.get_float ~default:d.omit_prob params "omit_prob" in
  let* partitions = P.get_int ~default:d.partitions params "partitions" in
  let* partition_span = P.get_float_opt params "partition_span" in
  let* jobs = get_jobs params in
  Ok
    {
      protocol; compact; n; t_failures; horizon; mode; latency; loss; seed;
      runs; mux; rto; round_duration; retries; omit_prob; partitions;
      partition_span; jobs;
    }

let to_params spec =
  let d = default in
  let add cond field rest = if cond then field :: rest else rest in
  let opt_float key v rest =
    match v with None -> rest | Some x -> (key, Json.Float x) :: rest
  in
  let opt_int key v rest =
    match v with None -> rest | Some i -> (key, Json.Int i) :: rest
  in
  []
  |> opt_int "jobs" spec.jobs
  |> opt_float "partition_span" spec.partition_span
  |> add (spec.partitions <> d.partitions)
       ("partitions", Json.Int spec.partitions)
  |> add (spec.omit_prob <> d.omit_prob) ("omit_prob", Json.Float spec.omit_prob)
  |> opt_int "retries" spec.retries
  |> opt_float "round_duration" spec.round_duration
  |> opt_float "rto" spec.rto
  |> (fun rest ->
       match spec.mux with
       | Mux_off -> rest
       | Mux_auto -> ("mux", Json.String "auto") :: rest
       | Mux_live k -> ("mux", Json.Int k) :: rest)
  |> opt_int "runs" spec.runs
  |> add (spec.seed <> d.seed) ("seed", Json.Int spec.seed)
  |> add (spec.loss <> d.loss) ("loss", Json.Float spec.loss)
  |> add (spec.latency <> d.latency)
       ("latency", Json.String (Net.Link.latency_to_string spec.latency))
  |> add (spec.mode <> d.mode) ("mode", Json.String (mode_to_string spec.mode))
  |> add (spec.horizon <> d.horizon) ("horizon", Json.Int spec.horizon)
  |> add (spec.t_failures <> d.t_failures) ("t", Json.Int spec.t_failures)
  |> add (spec.n <> d.n) ("n", Json.Int spec.n)
  |> add spec.compact ("compact", Json.Bool true)
  |> add (spec.protocol <> d.protocol)
       ("protocol", Json.String spec.protocol)

module Probcheck = struct
  type t = {
    n : int;
    t_failures : int;
    rounds : int option;
    latency : Net.Link.latency;
    loss : string;
    rto : float option;
    round_duration : float option;
    retries : int option;
  }

  let default =
    {
      n = 3;
      t_failures = 1;
      rounds = None;
      latency = Net.Link.Const 1.0;
      loss = "0";
      rto = None;
      round_duration = None;
      retries = None;
    }

  (* The exact loss, the synchronizer timing (defaults from the latency
     bound) and the round count. *)
  let resolve spec =
    let* loss =
      match Eba_prob.Q.of_decimal_string spec.loss with
      | q -> Ok q
      | exception Invalid_argument m -> Error m
    in
    let* topology =
      trying (fun () ->
          Net.Topology.make ~n:spec.n
            ~link:(Net.Link.make ~latency:spec.latency ~loss:0.0))
    in
    let* sync =
      sync_of topology ~rto:spec.rto ~round_duration:spec.round_duration
        ~retries:spec.retries
    in
    Ok (loss, sync, Option.value spec.rounds ~default:(spec.t_failures + 1))

  let report ?cancel spec =
    let* loss, sync, rounds = resolve spec in
    trying (fun () ->
        Eba_prob.Report.make ?cancel ~n:spec.n ~t:spec.t_failures ~rounds ~loss
          ~latency:spec.latency ~sync ())

  let max_attempts = 48
  let max_power_bits = 1 lsl 24

  let too_large fmt =
    Printf.ksprintf (fun s -> Error ("probcheck too large to serve: " ^ s)) fmt

  let admit spec =
    let* loss, sync, rounds = resolve spec in
    let { Net.Sync.round_duration; rto; max_retries } = sync in
    (* [Sync.attempts] counts retransmissions strictly inside the window,
       so this bound needs no loop over them *)
    let attempts_bound =
      1.0 +. Float.min (float_of_int max_retries) (Float.ceil (round_duration /. rto))
    in
    if attempts_bound > float_of_int max_attempts then
      too_large
        "up to %.0f attempts per message (%d retries, rto %g in a %g window), past \
         the budget of %d"
        attempts_bound max_retries rto round_duration max_attempts
    else
      match
        Eba_prob.Report.power_bits ~n:spec.n ~t:spec.t_failures ~rounds ~loss
          ~latency:spec.latency ~sync
      with
      | bits when bits <= max_power_bits -> Ok ()
      | bits ->
          too_large
            "its exact powers reach %d bits in all (n = %d, %d rounds), past the \
             budget of %d bits"
            bits spec.n rounds max_power_bits
      | exception Eba_util.Combi.Overflow ->
          too_large
            "its exact powers pass max_int bits in all (n = %d, %d rounds), past \
             the budget of %d bits"
            spec.n rounds max_power_bits
      | exception Invalid_argument m -> Error m

  let keys =
    [ "n"; "t"; "rounds"; "latency"; "loss"; "rto"; "round_duration"; "retries" ]

  let of_json params =
    let d = default in
    let* () = check_keys ~allowed:keys params in
    let* n = P.get_int ~default:d.n params "n" in
    let* t_failures = P.get_int ~default:d.t_failures params "t" in
    let* rounds = P.get_int_opt params "rounds" in
    let* latency = get_latency ~default:d.latency params "latency" in
    let* loss = P.get_string ~default:d.loss params "loss" in
    let* rto = P.get_float_opt params "rto" in
    let* round_duration = P.get_float_opt params "round_duration" in
    let* retries = P.get_int_opt params "retries" in
    Ok { n; t_failures; rounds; latency; loss; rto; round_duration; retries }

  let to_params spec =
    let d = default in
    let add cond field rest = if cond then field :: rest else rest in
    let opt_float key v rest =
      match v with None -> rest | Some x -> (key, Json.Float x) :: rest
    in
    let opt_int key v rest =
      match v with None -> rest | Some i -> (key, Json.Int i) :: rest
    in
    []
    |> opt_int "retries" spec.retries
    |> opt_float "round_duration" spec.round_duration
    |> opt_float "rto" spec.rto
    |> add (spec.loss <> d.loss) ("loss", Json.String spec.loss)
    |> add (spec.latency <> d.latency)
         ("latency", Json.String (Net.Link.latency_to_string spec.latency))
    |> opt_int "rounds" spec.rounds
    |> add (spec.t_failures <> d.t_failures) ("t", Json.Int spec.t_failures)
    |> add (spec.n <> d.n) ("n", Json.Int spec.n)
end
