(** [P0opt-delta]: the bounded-bandwidth variant of {!P0opt} — identical
    decision rules over identical known-value vectors, but instead of
    broadcasting the whole vector every round, a processor sends each
    destination only the entries the destination is not yet known to hold.

    Naive "entries that changed since last round" is {e not} equivalent to
    the full protocol under failures: a faulty sender can deliver an entry
    to some destinations and not others in the round it was new, and a
    change-only delta would never offer it again.  The sound rule is
    {e confirm-or-resend}:

    - I keep, per destination [d], the set [confirmed.(d)] of slots I can
      prove [d] knows — [d]'s own slot, plus every slot that arrived {e in
      a message from [d]} (whatever [d] sent me, [d] knew);
    - the round-[k] message to [d] carries the entries of
      [known \ confirmed.(d)], plus a one-round {e fresh echo} of the
      entries I learned in round [k-1] (so knowledge I gained from [d]
      itself flows back as confirmation, and the deltas go quiet);
    - entries are [(slot, value)] pairs under a round-stamped header, and
      each slot holds at most one value per run, so merging arrived entries
      into the vector is idempotent: late, reordered or retransmitted
      copies within a round land in the same state.

    In memory a delta is a {e slot set} read against the sender's known
    vector, which every message of a round shares ([receive] copies the
    vector before writing, so a vector never changes once a state holds
    it).  With [known_set] the slots holding a value, the message to [d]
    is [((known_set \ confirmed.(d)) ∪ fresh) \ {d}] — three set
    operations, no per-slot scan — and a receiver copies values only for
    the slots it learns, [slots \ known_set].  The wire size counts the
    set's entries, so the bytes are those of the pair encoding.

    Induction over rounds shows every processor's [known] vector (and
    heard-from sets — message {e presence} is identical: both variants send
    to everyone, every round) equals the full variant's in every run, so
    decisions match in value and time everywhere; the test suite checks
    this point-for-point over exhaustive crash and omission universes, and
    [test_compact]'s same-seed lossy sweep pairs check it at n = 64 on
    [Procset.Wide] sets.  Only the wire size differs: deltas are empty from
    round 3 of a failure-free run, where the full vector keeps riding in
    full. *)

module Params = Eba_sim.Params
module Value = Eba_sim.Value

module type COMPACT = sig
  include Protocol_intf.PROTOCOL

  (** Test hooks: enough constructor/observer surface to drive [receive]
      with hand-built deltas and check reconstruction (the qcheck merge
      property), without exposing the state representation. *)

  val known : state -> Value.t option array
  (** A copy of the known-value vector. *)

  val message : round:int -> (int * Value.t) list -> msg
  (** A delta carrying exactly these entries. *)

  val entries : msg -> (int * Value.t) list
  (** The entries of a delta, in slot order. *)
end

module Make (S : Eba_util.Procset.S) = struct
  (* [d_values] is the sender's whole known vector, shared by every
     message of its round; only the slots in [d_slots] are read *)
  type msg = { d_round : int; d_slots : S.t; d_values : Value.t option array }

  type state = {
    me : int;
    n : int;
    known : Value.t option array;  (* never written once a state holds it *)
    known_set : S.t;  (* the slots of [known] that hold a value *)
    confirmed : S.t array;  (* per destination: slots provably known there *)
    fresh : S.t;  (* slots learned in the previous round's receive *)
    heard_last : S.t option;
    heard_prev : S.t option;
    time : int;
    decided : Value.t option;
  }

  let name = "P0opt-delta"

  (* decision rules: verbatim P0opt *)

  let knows_zero st =
    Array.exists (function Some v -> Value.equal v Value.Zero | None -> false) st.known

  let knows_all_one st =
    Array.for_all (function Some v -> Value.equal v Value.One | None -> false) st.known

  let quiescent st =
    match (st.heard_last, st.heard_prev) with
    | Some a, Some b -> S.equal a b
    | (Some _ | None), _ -> false

  let decide st =
    if st.decided <> None then st.decided
    else if knows_zero st then Some Value.Zero
    else if knows_all_one st || (st.time >= 2 && quiescent st) then Some Value.One
    else None

  let init (params : Params.t) ~me value =
    let n = params.Params.n in
    let known = Array.make n None in
    known.(me) <- Some value;
    let st =
      {
        me;
        n;
        known;
        known_set = S.singleton me;
        confirmed = Array.init n (fun d -> S.singleton d);
        fresh = S.singleton me;
        heard_last = None;
        heard_prev = None;
        time = 0;
        decided = None;
      }
    in
    { st with decided = decide st }

  let send (params : Params.t) st ~round =
    (* [fresh] is a subset of [known_set], so this is "every known slot
       unconfirmed at d, or fresh", minus d's own *)
    Array.init params.Params.n (fun d ->
        if d = st.me then None
        else
          let slots = S.union (S.diff st.known_set st.confirmed.(d)) st.fresh in
          Some { d_round = round; d_slots = S.remove d slots; d_values = st.known })

  let receive _params st ~round arrived =
    let n = st.n in
    let known = Array.copy st.known in
    let known_set = ref st.known_set in
    let confirmed = Array.copy st.confirmed in
    let heard = ref S.empty in
    Array.iteri
      (fun j m ->
        match m with
        | None -> ()
        | Some { d_round = _; d_slots; d_values } ->
            heard := S.add j !heard;
            (* whatever j sent me, j knew at send time *)
            confirmed.(j) <- S.union confirmed.(j) d_slots;
            (* one value per slot per run: the first sender supplies it *)
            let learned = S.diff d_slots !known_set in
            if not (S.is_empty learned) then begin
              let stray = ref false in
              S.iter
                (fun p -> if p < n then known.(p) <- d_values.(p) else stray := true)
                learned;
              (* only hand-built messages carry slots past [n] *)
              let learned = if !stray then S.inter learned (S.full n) else learned in
              known_set := S.union !known_set learned
            end)
      arrived;
    let st =
      {
        st with
        known;
        known_set = !known_set;
        confirmed;
        fresh = S.diff !known_set st.known_set;
        heard_prev = st.heard_last;
        heard_last = Some !heard;
        time = round;
      }
    in
    { st with decided = decide st }

  let output st = st.decided

  (* a delta never costs more than the dense vector the full variant sends *)
  let wire_size (params : Params.t) m =
    let open Protocol_intf.Wire in
    header + min (entry * S.cardinal m.d_slots) (trit_vector params.Params.n)

  (* test hooks *)
  let known st = Array.copy st.known

  let message ~round entries =
    (* slots no set can hold are dropped: [receive] would ignore them *)
    let entries = List.filter (fun (p, _) -> p >= 0 && p < S.max_width) entries in
    let width = List.fold_left (fun w (p, _) -> max w (p + 1)) 0 entries in
    let d_values = Array.make width None in
    List.iter
      (fun (p, v) -> if Option.is_none d_values.(p) then d_values.(p) <- Some v)
      entries;
    { d_round = round; d_slots = S.of_list (List.map fst entries); d_values }

  let entries m = List.map (fun p -> (p, Option.get m.d_values.(p))) (S.to_list m.d_slots)
end

module Word = Make (Eba_util.Procset.Word)
module Wide = Make (Eba_util.Procset.Wide)
include Word

let for_params (params : Params.t) : (module Protocol_intf.PROTOCOL) =
  if params.Params.n <= Eba_util.Bitset.max_width then (module Word) else (module Wide)
