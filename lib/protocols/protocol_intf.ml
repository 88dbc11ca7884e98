(** The operational protocol interface: the message-generation /
    state-transition / output form of Section 2.3, for protocols that run
    as real message-passing automata (as opposed to the knowledge-based
    decision pairs of [Eba_core]).

    One round proceeds as: every processor computes its outgoing messages
    with [send]; the failure pattern removes some of them; every processor
    then ingests what arrived with [receive].  Decisions are read with
    [output] at each time step (time 0 included) and are irreversible: the
    first non-[None] output is the decision. *)

module Params = Eba_sim.Params
module Value = Eba_sim.Value

(** Sizing conventions of the nominal wire encoding, shared by every
    protocol's {!PROTOCOL.wire_size}.  The encoding is byte-aligned and
    deliberately simple — no varints, no compression — so byte counts are
    exact, machine-independent integers that tests can compare:

    - every message starts with a {!header}: 1 tag byte (protocol/message
      kind) + 4 bytes of round stamp, the epoch that lets retransmitted or
      reordered copies merge idempotently;
    - a processor id is {!proc_id} = 2 bytes (caps [n] at 65536, far above
      the simulator's 4096 cap);
    - a sparse known-value entry is {!entry} = 3 bytes (id + value byte);
    - a dense vector of ternary values (0 / 1 / unknown) packs 4 to a byte:
      {!trit_vector};
    - a processor set packs 8 membership bits to a byte: {!set_bytes}. *)
module Wire = struct
  let header = 5
  let proc_id = 2
  let entry = proc_id + 1
  let trit_vector n = (n + 3) / 4
  let set_bytes n = (n + 7) / 8
end

module type PROTOCOL = sig
  val name : string

  type state
  type msg

  val init : Params.t -> me:int -> Value.t -> state
  (** State at time 0. *)

  val send : Params.t -> state -> round:int -> msg option array
  (** [send params st ~round] returns the message for each destination
      ([None] = protocol sends nothing there; the self slot is ignored).
      The array length must be [n]. *)

  val receive : Params.t -> state -> round:int -> msg option array -> state
  (** [receive params st ~round arrived] with [arrived.(j)] the message
      from [j] if it was sent and delivered. *)

  val output : state -> Value.t option
  (** Current decision, if any; once some value is returned the runner
      records the first time it appeared. *)

  val wire_size : Params.t -> msg -> int
  (** Exact serialized size of one message in bytes under the {!Wire}
      conventions (header included).  A pure function of the message
      content and [params] — never of time or of the sending state — so
      retransmitted copies of a message all weigh the same and byte
      accounting is deterministic.  The harnesses treat it as a metric
      only: no protocol step may depend on it. *)
end

(** One message for every destination but [me]: the full-information
    codecs share a single snapshot, which no [receive] ever writes. *)
let broadcast (params : Params.t) ~me msg =
  let out = Array.make params.Params.n None and m = Some msg in
  for j = 0 to params.Params.n - 1 do
    if j <> me then out.(j) <- m
  done;
  out

(** The instance of a set-carrying protocol for [params]: [word]
    (single-word sets) while [n] fits one word, [wide] beyond. *)
let by_width word wide (params : Params.t) : (module PROTOCOL) =
  if params.Params.n <= Eba_util.Bitset.max_width then word else wide
