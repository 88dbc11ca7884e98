(** The full-information protocol as an operational protocol.

    Processors broadcast their entire view every round and decide by
    looking their view up in a knowledge-based decision pair.  Sharing the
    hash-consing arena with an enumerated {!Eba.Model} means a view
    built here is {e the same integer} as the corresponding view in the
    model — executing this protocol under a pattern must reproduce the
    model's states and decisions exactly, which is the cross-layer
    integration test for Prop 2.2 and for the whole simulation stack. *)

module View = Eba.View
module Kb_protocol = Eba.Kb_protocol

module Make (Ctx : sig
  val store : View.store
  val pair : Kb_protocol.pair
end) : Eba.Protocol_intf.PROTOCOL
