module Json = Eba_util.Json
module Params = Eba_sim.Params
module Net = Eba_net

let ( let* ) = Result.bind

(* Raising constructors ([Params.make], [Link.make], [Sync.make], ...)
   become typed errors here: a daemon must answer a bad request, not die
   on it. *)
let trying f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

type mux = Mux_off | Mux_auto | Mux_live of int

let mode_to_string = function
  | Params.Crash -> "crash"
  | Params.Omission -> "omission"
  | Params.General_omission -> "general-omission"

let modes = [ Params.Crash; Params.Omission; Params.General_omission ]
let mode_of_string s = List.find_opt (fun m -> mode_to_string m = s) modes

(* --- one description per parameter --- *)

type _ kind =
  | Int : int kind
  | Float : float kind
  | Flag : bool kind
  | String : string kind
  | Enum : string list -> string kind
  | Mode : Params.mode kind
  | Latency : Net.Link.latency kind
  | Mux : mux kind
  | Jobs : int option kind
  | Option : 'a kind -> 'a option kind

type ('r, 'a) param = {
  key : string;
  names : string list;
  docv : string;
  doc : string;
  kind : 'a kind;
  get : 'r -> 'a;
  set : 'r -> 'a -> 'r;
}

type 'r field = Field : ('r, 'a) param -> 'r field

let param ?(aliases = []) key ~docv ~doc kind get set =
  let long = String.map (function '_' -> '-' | c -> c) key in
  Field { key; names = long :: aliases; docv; doc; kind; get; set }

let wire_only key kind get set =
  Field { key; names = []; docv = ""; doc = ""; kind; get; set }

(* The parameters more than one verb takes, each given its verb's
   accessors. *)
let n_field get = param "n" ~docv:"N" ~doc:"Number of processors." Int get
let t_field get = param "t" ~docv:"T" ~doc:"Resilience bound (max faulty)." Int get

let horizon_field get =
  param "horizon" ~aliases:[ "T" ] ~docv:"H" ~doc:"Time horizon of the bounded model." Int get

let mode_field get =
  param "mode" ~docv:"MODE" ~doc:"Failure mode: crash, omission, or general-omission." Mode get

let latency_field get =
  param "latency" ~docv:"SPEC"
    ~doc:
      "Latency model of every link: $(b,const:C), $(b,uniform:LO,HI) or \
       $(b,spike:BASE,PROB,SPIKE) (simulated seconds)."
    Latency get

let rto_field get =
  param "rto" ~docv:"SECS"
    ~doc:"Retransmission timeout (default: derived from the latency bound)." (Option Float) get

let round_duration_field get =
  param "round_duration" ~docv:"SECS" ~doc:"Round window width (default: 8 RTOs)."
    (Option Float) get

let retries_field get =
  param "retries" ~docv:"K" ~doc:"Retransmissions per unacknowledged message (default 7)."
    (Option Int) get

let jobs_field get = wire_only "jobs" Jobs get

(* --- the wire decoder --- *)

let parse_latency s = trying (fun () -> Net.Link.latency_of_string s)

(* [null] means absent for these, and is a type error elsewhere. *)
let nullable : type a. a kind -> bool = function
  | Option _ | Latency | Mux | Jobs -> true
  | Int | Float | Flag | String | Enum _ | Mode -> false

let rec decode : type a. a kind -> string -> Json.t -> (a, string) result =
 fun kind key v ->
  let expected what = Error (Printf.sprintf "%S must be %s" key what) in
  match (kind, v) with
  | Int, Json.Int i -> Ok i
  | Int, _ -> expected "an integer"
  | Float, Json.Float x -> Ok x
  | Float, Json.Int i -> Ok (float_of_int i)
  | Float, _ -> expected "a number"
  | Flag, Json.Bool b -> Ok b
  | Flag, _ -> expected "a boolean"
  | String, Json.String s -> Ok s
  | Enum _, Json.String s -> Ok s
  | (String | Enum _), _ -> expected "a string"
  | Mode, Json.String s ->
      Option.to_result (mode_of_string s)
        ~none:(Printf.sprintf "unknown mode %S" s)
  | Mode, _ -> expected "a string"
  | Latency, Json.String s -> parse_latency s
  | Latency, _ -> expected "a latency spec string"
  | Mux, Json.String "off" -> Ok Mux_off
  | Mux, Json.String "auto" -> Ok Mux_auto
  | Mux, Json.Int k -> Ok (Mux_live k)
  | Mux, _ -> expected {|"off", "auto" or a wave size|}
  | Jobs, _ ->
      (* a peer must not make one request spawn more domains than the
         host runs; no engine's result depends on its job count *)
      let* j = decode Int key v in
      Ok (Some (min j (Eba_util.Parallel.available ())))
  | Option k, _ -> Result.map Option.some (decode k key v)

let decoder fields default params =
  match params with
  | Json.Obj members ->
      let keys = List.map (fun (Field p) -> p.key) fields in
      let* () =
        match List.find_opt (fun (k, _) -> not (List.mem k keys)) members with
        | Some (k, _) ->
            Error
              (Printf.sprintf "unknown field %S (allowed: %s)" k
                 (String.concat ", " keys))
        | None -> Ok ()
      in
      List.fold_left
        (fun acc (Field p) ->
          let* r = acc in
          match List.assoc_opt p.key members with
          | None -> Ok r
          | Some Json.Null when nullable p.kind -> Ok r
          | Some v -> Result.map (p.set r) (decode p.kind p.key v))
        (Ok default) fields
  | _ -> Error "params must be an object"

(* --- the command-line term --- *)

let latency_conv =
  Cmdliner.Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (parse_latency s)),
      fun fmt l -> Format.pp_print_string fmt (Net.Link.latency_to_string l) )

(* A wave size below 1 parses; {!resolve} refuses it, as it does a
   served one. *)
let mux_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "auto" -> Ok Mux_auto
    | "off" -> Ok Mux_off
    | s -> (
        match int_of_string_opt s with
        | Some k -> Ok (Mux_live k)
        | None -> Error (`Msg "--mux: expected auto, off or a wave size"))
  in
  let print fmt = function
    | Mux_off -> Format.pp_print_string fmt "off"
    | Mux_auto -> Format.pp_print_string fmt "auto"
    | Mux_live k -> Format.pp_print_int fmt k
  in
  Cmdliner.Arg.conv (parse, print)

let rec converter : type a. a kind -> a Cmdliner.Arg.conv =
  let open Cmdliner.Arg in
  function
  | Int -> int
  | Float -> float
  | Flag -> bool
  | String -> string
  | Enum names -> enum (List.map (fun s -> (s, s)) names)
  | Mode -> enum (List.map (fun m -> (mode_to_string m, m)) modes)
  | Latency -> latency_conv
  | Mux -> mux_conv
  | Jobs -> some int
  | Option k -> some (converter k)

let cli_arg : type a. a kind -> a -> Cmdliner.Arg.info -> a Cmdliner.Term.t =
 fun kind absent i ->
  let open Cmdliner.Arg in
  match kind with
  | Flag -> value & flag i
  | _ -> value & opt (converter kind) absent i

let cli fields default =
  let open Cmdliner in
  List.fold_left
    (fun acc (Field p) ->
      match p.names with
      | [] -> acc
      | names ->
          let arg =
            cli_arg p.kind (p.get default)
              (Arg.info names ~docv:p.docv ~doc:p.doc)
          in
          Term.(const p.set $ acc $ arg))
    (Term.const default) fields

(* --- netsim-sweep --- *)

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

let lookup fmt table name =
  match List.assoc_opt name table with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf fmt name (String.concat ", " (List.map fst table)))

let select_protocol = lookup "unknown protocol %S (have: %s)" protocols

let fields =
  [
    param "protocol" ~aliases:[ "p" ] ~docv:"PROTOCOL"
      ~doc:
        (Printf.sprintf "Operational protocol to simulate: %s."
           (String.concat ", " protocol_names))
      (Enum protocol_names) (fun s -> s.protocol) (fun s protocol -> { s with protocol });
    param "compact" ~docv:""
      ~doc:
        "Use the bounded-bandwidth codec of the protocol (p0opt, p0opt+ and \
         chain0 only): identical decisions, and each destination is sent \
         only what it is not proven to hold.  The p0opt and chain0 codecs \
         never send more bytes than the full ones; p0opt+'s saves bytes \
         only over longer horizons and sends more at the default one."
      Flag (fun s -> s.compact) (fun s compact -> { s with compact });
    n_field (fun s -> s.n) (fun s n -> { s with n });
    t_field (fun s -> s.t_failures) (fun s t_failures -> { s with t_failures });
    horizon_field (fun s -> s.horizon) (fun s horizon -> { s with horizon });
    mode_field (fun s -> s.mode) (fun s mode -> { s with mode });
    latency_field (fun s -> s.latency) (fun s latency -> { s with latency });
    param "loss" ~docv:"P" ~doc:"Per-copy drop probability of every link (data and acks)."
      Float (fun s -> s.loss) (fun s loss -> { s with loss });
    param "seed" ~docv:"SEED"
      ~doc:
        "Master seed.  The sweep is a pure function of (parameters, seed): \
         rerunning reproduces the summary bit for bit, for any $(b,--jobs)."
      Int (fun s -> s.seed) (fun s seed -> { s with seed });
    param "runs" ~docv:"RUNS"
      ~doc:
        "Independent runs, each with a fresh random initial configuration \
         and adversary (default 100; with $(b,--mux K), defaults to K)."
      (Option Int) (fun s -> s.runs) (fun s runs -> { s with runs });
    param "mux" ~docv:"K"
      ~doc:
        "Legacy wave size, kept for existing scripts: runs execute one at a \
         time whatever is given, so the summary is bit-identical for \
         $(b,off) (the default), $(b,auto) and every $(docv).  With \
         $(b,auto) or $(docv), also reports instances per second and the \
         p99 decision latency; with $(docv), $(b,--runs) defaults to \
         $(docv)."
      Mux (fun s -> s.mux) (fun s mux -> { s with mux });
    rto_field (fun s -> s.rto) (fun s rto -> { s with rto });
    round_duration_field (fun s -> s.round_duration) (fun s round_duration ->
        { s with round_duration });
    retries_field (fun s -> s.retries) (fun s retries -> { s with retries });
    param "omit_prob" ~docv:"P"
      ~doc:"Omission modes: probability a faulty processor's copy is suppressed."
      Float (fun s -> s.omit_prob) (fun s omit_prob -> { s with omit_prob });
    param "partitions" ~docv:"K" ~doc:"Transient network partitions per run."
      Int (fun s -> s.partitions) (fun s partitions -> { s with partitions });
    param "partition_span" ~docv:"SECS" ~doc:"Duration of each partition (default: 2 RTOs)."
      (Option Float) (fun s -> s.partition_span) (fun s partition_span ->
        { s with partition_span });
    jobs_field (fun s -> s.jobs) (fun s jobs -> { s with jobs });
  ]

let of_json = decoder fields default
let term = cli fields default

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

(* The synchronizer both verbs resolve: what the request leaves out
   defaults from the latency bound ([Sync.default_for]), the window to
   8 rto; a latency bound past the window is refused. *)
let sync_of topology ~rto ~round_duration ~retries =
  let dflt = Net.Sync.default_for topology in
  let rto = Option.value rto ~default:dflt.Net.Sync.rto in
  trying (fun () ->
      let sync =
        Net.Sync.make
          ~round_duration:(Option.value round_duration ~default:(8.0 *. rto))
          ~rto
          ~max_retries:(Option.value retries ~default:dflt.Net.Sync.max_retries)
      in
      Net.Sync.check sync topology;
      sync)

let resolve spec =
  let* r_params =
    trying (fun () ->
        Params.make ~n:spec.n ~t:spec.t_failures ~horizon:spec.horizon
          ~mode:spec.mode)
  in
  let* select =
    if spec.compact then
      lookup "compact: no bounded-bandwidth variant of %s (have: %s)" compact_protocols
        spec.protocol
    else select_protocol spec.protocol
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
      n = default.n;
      t_failures = default.t_failures;
      rounds = None;
      latency = default.latency;
      loss = "0";
      rto = None;
      round_duration = None;
      retries = None;
    }

  let fields =
    [
      n_field (fun s -> s.n) (fun s n -> { s with n });
      t_field (fun s -> s.t_failures) (fun s t_failures -> { s with t_failures });
      param "rounds" ~docv:"R"
        ~doc:
          "Protocol rounds in a run (default: t + 1, FloodSet's decision \
           deadline)."
        (Option Int) (fun s -> s.rounds) (fun s rounds -> { s with rounds });
      latency_field (fun s -> s.latency) (fun s latency -> { s with latency });
      param "loss" ~docv:"P"
        ~doc:
          "Per-copy drop probability, read exactly as a decimal literal: \
           $(b,0.05) means the rational 1/20, not the nearest float."
        String (fun s -> s.loss) (fun s loss -> { s with loss });
      rto_field (fun s -> s.rto) (fun s rto -> { s with rto });
      round_duration_field (fun s -> s.round_duration) (fun s round_duration ->
          { s with round_duration });
      retries_field (fun s -> s.retries) (fun s retries -> { s with retries });
    ]

  let of_json = decoder fields default
  let term = cli fields default

  (* The exact loss, the synchronizer timing (defaults from the latency
     bound) and the round count. *)
  let resolve spec =
    let* loss = trying (fun () -> Eba_prob.Q.of_decimal_string spec.loss) in
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
end

module Knowledge = struct
  type t = {
    n : int;
    t_failures : int;
    horizon : int;
    mode : Params.mode;
    protocol : string;
    query : string;
    jobs : int option;
  }

  let default =
    {
      n = default.n;
      t_failures = default.t_failures;
      horizon = default.horizon;
      mode = default.mode;
      protocol = "f-lambda-2";
      query = "spec";
      jobs = None;
    }

  let fields =
    [
      n_field (fun s -> s.n) (fun s n -> { s with n });
      t_field (fun s -> s.t_failures) (fun s t_failures -> { s with t_failures });
      horizon_field (fun s -> s.horizon) (fun s horizon -> { s with horizon });
      mode_field (fun s -> s.mode) (fun s mode -> { s with mode });
      wire_only "protocol" String (fun s -> s.protocol) (fun s protocol -> { s with protocol });
      wire_only "query" String (fun s -> s.query) (fun s query -> { s with query });
      jobs_field (fun s -> s.jobs) (fun s jobs -> { s with jobs });
    ]

  (* The exhaustive query runs an operational protocol, so its protocol
     defaults to FloodSet. *)
  let of_json params =
    let default =
      match params with
      | Json.Obj members
        when List.assoc_opt "query" members = Some (Json.String "exhaustive") ->
          { default with protocol = "floodset" }
      | _ -> default
    in
    decoder fields default params

  let term = cli fields default

  let model_params k =
    trying (fun () ->
        Params.make ~n:k.n ~t:k.t_failures ~horizon:k.horizon ~mode:k.mode)
end
