(** Request specifications for the compute verbs — the {e single} place
    the parameters of a [netsim-sweep], [probcheck] or [knowledge-query]
    workload are described and interpreted.

    Each verb has one field table ({!fields}, {!Probcheck.fields},
    {!Knowledge.fields}): every parameter is described once, with its
    JSON key, its command-line flag, its help text and its {!kind}, and
    reads its default from the verb's [default] record.  The wire decoder
    ([of_json]) and the command-line term ([term]) are folds over that
    table, so [eba netsim], [eba probcheck] and the semantic commands
    parse their flags into the same record the daemon decodes from a
    request's ["params"].  A parameter's JSON key is its long flag with
    ['-'] read as ['_']; [jobs], [query] and knowledge-query's
    [protocol] are wire-only.  Both sides then execute the record through
    {!resolve}/{!run} (or {!Probcheck.report}), so a served answer is
    bit-identical to the batch CLI's for the same request identity {e by
    construction}.  The differential suite pins the identity end-to-end
    over a live socket anyway. *)

module Json = Eba_util.Json
module Params = Eba_sim.Params
module Net = Eba_net

(** The legacy multiplex selection.  The {!Eba_net.Mux} engine runs one
    instance at a time whatever is chosen, so the result is the same for
    all three; only the [runs] default reads it ([Mux_live k] defaults
    [runs] to [k]), and a wave size below 1 is refused. *)
type mux = Mux_off | Mux_auto | Mux_live of int

val mode_to_string : Params.mode -> string
val mode_of_string : string -> Params.mode option

(** {1 Field tables} *)

(** How a parameter reads from the wire and from the command line.  On
    the wire, [null] means absent for [Option], [Latency], [Mux] and
    [Jobs], and is a type error for the others. *)
type _ kind =
  | Int : int kind
  | Float : float kind
  | Flag : bool kind
  | String : string kind
  | Enum : string list -> string kind
      (** only these names on the command line; {!resolve} checks a
          served one *)
  | Mode : Params.mode kind
  | Latency : Net.Link.latency kind
  | Mux : mux kind
  | Jobs : int option kind
      (** clamped to {!Eba_util.Parallel.available}: a peer must not make
          one request spawn more domains than the host runs *)
  | Option : 'a kind -> 'a option kind

type ('r, 'a) param = {
  key : string;
  names : string list;  (** [[]] for a wire-only parameter *)
  docv : string;
  doc : string;
  kind : 'a kind;
  get : 'r -> 'a;
  set : 'r -> 'a -> 'r;
}

type 'r field = Field : ('r, 'a) param -> 'r field

(** {1 netsim-sweep} *)

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
  runs : int option;  (** [None]: 100, or the explicit mux wave size *)
  mux : mux;
  rto : float option;  (** [None]: derived from the topology's bound *)
  round_duration : float option;  (** [None]: 8 RTOs *)
  retries : int option;  (** [None]: the {!Eba_net.Sync.default_for} budget *)
  omit_prob : float;
  partitions : int;
  partition_span : float option;  (** [None]: 2 RTOs *)
  jobs : int option;  (** engine domains; [None] defers to the process default *)
}

val default : t
(** FloodSet, [n = 3], [t = 1], [horizon = 3], crash mode, unit constant
    latency, no loss, seed 1 — the CLI's flag defaults. *)

val protocol_names : string list
val compact_protocol_names : string list

val select_protocol :
  string -> (Params.t -> (module Eba_protocols.Protocol_intf.PROTOCOL), string) result
(** The operational protocol of this name (its module for the run
    parameters), for a sweep and the exhaustive knowledge query alike. *)

val fields : t field list

val of_json : Json.t -> (t, string) result
(** Unknown fields are errors: a typo must not silently mean its
    default. *)

val term : t Cmdliner.Term.t

type resolved = {
  r_spec : t;
  r_protocol : (module Eba_protocols.Protocol_intf.PROTOCOL);
  r_params : Params.t;
  r_topology : Net.Topology.t;
  r_sync : Net.Sync.t;
  r_dynamic : Net.Inject.dynamic;
  r_runs : int;
  r_mux : int option;
      (** [None] for [Mux_off], [Some 1] for [Mux_auto], [Some k] for
          [Mux_live k]; {!Eba_net.Netsim.sweep} ignores it *)
}

val resolve : t -> (resolved, string) result
(** Validates everything up front (protocol name, compact availability,
    parameter ranges, sync timing, a latency bound that fits the round
    window as {!Eba_net.Sync.check} requires) and freezes the derived
    defaults. *)

val run :
  ?cancel:Eba_util.Cancel.t ->
  ?progress:(done_:int -> total:int -> unit) ->
  resolved ->
  Net.Net_stats.summary
(** {!Eba_net.Netsim.sweep} with the resolved arguments — bit-identical
    for every job count and [mux] choice.  [cancel] and [progress] pass
    straight through to the sweep (polled once per run); both default
    off, so CLI and daemon answers stay byte-identical whether or not a
    caller opts in. *)

(** The [probcheck] verb: exact failure probabilities, computed. *)
module Probcheck : sig
  type t = {
    n : int;
    t_failures : int;
    rounds : int option;  (** [None]: t + 1 *)
    latency : Net.Link.latency;
    loss : string;  (** decimal literal, read exactly ("0.05" = 1/20) *)
    rto : float option;
    round_duration : float option;
    retries : int option;
  }

  val default : t
  val fields : t field list
  val of_json : Json.t -> (t, string) result
  val term : t Cmdliner.Term.t

  val report :
    ?cancel:Eba_util.Cancel.t -> t -> (Eba_prob.Report.t, string) result
  (** The exact Markov analysis ({!Eba_prob.Report.make}) on the
      synchronizer {!resolve} would give a sweep of the same timing (a
      latency bound past the round window is an [Error]); [cancel] is
      polled between its major steps and per landing row. *)

  val max_attempts : int
  (** 48: the most transmission attempts per message a served request may
      ask for. *)

  val max_power_bits : int
  (** 2^24 = 16,777,216: the budget of a served report's exact powers,
      their summed bit lengths as {!Eba_prob.Report.power_bits} bounds
      them. *)

  val admit : t -> (unit, string) result
  (** The served path's bounds, checked before any exact power is
      raised (the CLI has none): an [Error] naming the size and the budget
      when [1 + min retries ceil(round_duration / rto)] passes
      {!max_attempts}, or {!Eba_prob.Report.power_bits} passes
      {!max_power_bits}.  Within the attempt budget, arguments {!report}
      would reject get the error it would return. *)
end

(** The [knowledge-query] verb, whose universe parameters are also the
    semantic commands' ([eba model], [check], [optimize]) flags. *)
module Knowledge : sig
  type t = {
    n : int;
    t_failures : int;
    horizon : int;
    mode : Params.mode;
    protocol : string;  (** absent: [f-lambda-2], or [floodset] when exhaustive *)
    query : string;  (** [spec] or [exhaustive] *)
    jobs : int option;
  }

  val default : t
  val fields : t field list
  val of_json : Json.t -> (t, string) result

  val term : t Cmdliner.Term.t

  val model_params : t -> (Params.t, string) result
end
