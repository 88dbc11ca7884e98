(** Request specifications for the compute verbs — the {e single} place
    the parameters of a [netsim-sweep] or [probcheck] workload are
    interpreted.

    Both [bin/eba] and the resident daemon build one of these records
    (the CLI from its flags, the daemon from a request's ["params"]
    object) and execute it through {!resolve}/{!run} here, so a served
    answer is bit-identical to the batch CLI's for the same request
    identity {e by construction} — there is no second copy of the
    defaulting logic to drift.  The differential suite pins the identity
    end-to-end over a live socket anyway. *)

module Json = Eba_util.Json
module Params = Eba_sim.Params
module Net = Eba_net

(** The legacy multiplex selection.  The {!Eba_net.Mux} engine runs one
    instance at a time whatever is chosen, so the result is the same for
    all three; only the [runs] default reads it ([Mux_live k] defaults
    [runs] to [k]), and a wave size below 1 is refused. *)
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

val protocols :
  (string * (Params.t -> (module Eba_protocols.Protocol_intf.PROTOCOL))) list
(** The operational selector table (protocol name -> module for the run
    parameters), shared with the CLI and the exhaustive knowledge query. *)

val mode_to_string : Params.mode -> string
val mode_of_string : string -> Params.mode option

val check_keys : allowed:string list -> Json.t -> (unit, string) result
(** Reject any field outside [allowed] — a misspelled parameter must not
    silently mean its default. *)

val get_jobs : Json.t -> (int option, string) result
(** A request's optional ["jobs"], clamped to
    {!Eba_util.Parallel.available}: a peer must not make one request spawn
    more domains than the host runs.  Every engine's result is
    independent of its job count, so the clamp never changes a reply. *)

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

val of_json : Json.t -> (t, string) result
(** Decode a request's ["params"] object; unknown fields are errors
    (a typo must not silently fall back to a default). *)

val to_params : t -> (string * Json.t) list
(** The inverse — the ["params"] fields a client sends.  Omits fields
    still at their default, so requests stay small. *)

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

  val report :
    ?cancel:Eba_util.Cancel.t -> t -> (Eba_prob.Report.t, string) result
  (** The exact Markov analysis ({!Eba_prob.Report.make}); [cancel] is
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

  val of_json : Json.t -> (t, string) result
  val to_params : t -> (string * Json.t) list
end
