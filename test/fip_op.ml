module View = Eba.View
module Kb_protocol = Eba.Kb_protocol
module Decision_set = Eba.Decision_set
module Params = Eba.Params
module Value = Eba.Value

module Make (Ctx : sig
  val store : View.store
  val pair : Kb_protocol.pair
end) : Eba.Protocol_intf.PROTOCOL = struct
  let name = "FIP"

  type msg = View.id
  type state = { me : int; view : View.id }

  let init _params ~me value = { me; view = View.leaf Ctx.store ~owner:me value }

  let send (params : Params.t) st ~round:_ =
    Array.init params.Params.n (fun j -> if j = st.me then None else Some st.view)

  let receive _params st ~round:_ arrived =
    let received = Array.map Fun.id arrived in
    received.(st.me) <- None;
    { st with view = View.node Ctx.store ~owner:st.me ~prev:st.view ~received }

  let output st =
    let in_zero = Decision_set.mem Ctx.pair.Kb_protocol.zero st.view
    and in_one = Decision_set.mem Ctx.pair.Kb_protocol.one st.view in
    if in_zero && in_one then None
    else if in_zero then Some Value.Zero
    else if in_one then Some Value.One
    else None

  (* What travels here is a hash-consed view id into the shared arena, not
     a serialization of the view: header + an 8-byte store reference.  A
     real full-information wire format would grow exponentially with the
     round; this protocol exists for cross-layer differential testing, so
     its byte count is the (honest) cost of the reference, documented as
     such rather than a fiction of serializing the tree. *)
  let wire_size _params (_ : msg) = Eba.Protocol_intf.Wire.header + 8
end
