(** Synchronous execution of an operational protocol under a failure
    pattern (the round structure of Section 2.3).

    Crash semantics: a processor that crashes in round [k] sends normally
    before round [k], sends only to the pattern's recipient set in round
    [k], and nothing afterwards; it keeps receiving (its state and outputs
    are irrelevant to the specification but are still tracked).  Omission
    semantics: the pattern's per-round omission sets are removed from
    whatever the protocol sends. *)

module Params = Eba_sim.Params
module Config = Eba_sim.Config
module Pattern = Eba_sim.Pattern
module Value = Eba_sim.Value
module Decision = Eba_sim.Decision

type trace = {
  decisions : Decision.t option array;  (** per processor, first output *)
  messages_attempted : int;  (** messages the protocol asked to send *)
  messages_delivered : int;
  bytes_attempted : int;
      (** total {!Protocol_intf.PROTOCOL.wire_size} of attempted messages *)
  bytes_delivered : int;  (** ... and of the delivered ones *)
}

module Make (P : Protocol_intf.PROTOCOL) : sig
  val run : Params.t -> Config.t -> Pattern.t -> trace
  (** Executes rounds [1..horizon] and returns the per-processor decisions
      (scanning outputs at every time from 0 to the horizon). *)
end
