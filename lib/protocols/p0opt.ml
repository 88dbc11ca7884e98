(** [P0opt] (Section 2.2): the optimal crash-mode EBA protocol obtained by
    keeping [P0]'s rule for deciding 0 and deciding 1 as early as possible.

    Every processor maintains what it knows of the initial values and
    sends it each round.  It decides 0 as soon as it learns of an initial
    0, and decides 1 as soon as either

    (a) it knows every initial value is 1, or
    (b) it hears from the same set of processors in two consecutive rounds
        and still knows of no initial 0

    — in which case no nonfaulty processor can ever learn of a 0 (crash
    failures only).  Theorem 6.2: this makes the same decisions as the
    knowledge-based [F^Λ,2] at corresponding points, with linear-size
    messages instead of full-information ones.

    One state and one set of rules serve two message codecs.  A message
    is a {e slot set} read against the sender's known vector, which every
    message of a round shares ([receive] copies the vector before writing,
    so a vector never changes once a state holds it); a receiver copies
    values only for the slots it learns, [slots \ known_set].

    - The full codec sends every known slot: the whole vector, a dense
      trit array on the wire.
    - The compact codec, [P0opt-delta], sends each destination only the
      entries it is not yet known to hold.  Naive "entries that changed
      since last round" is {e not} equivalent under failures: a faulty
      sender can deliver an entry to some destinations and not others in
      the round it was new, and a change-only delta would never offer it
      again.  The sound rule is {e confirm-or-resend}:
      - I keep, per destination [d], the set [confirmed.(d)] of slots I
        can prove [d] knows — [d]'s own slot, plus every slot that
        arrived {e in a message from [d]} (whatever [d] sent me, [d]
        knew);
      - the round-[k] message to [d] carries [known_set \ confirmed.(d)],
        plus a one-round {e fresh echo} of the slots I learned in round
        [k-1] (so knowledge I gained from [d] itself flows back as
        confirmation, and the deltas go quiet), minus [d]'s own slot —
        three set operations, no per-slot scan;
      - on the wire entries are [(slot, value)] pairs under a
        round-stamped header, and each slot holds at most one value per
        run, so merging is idempotent: late, reordered or retransmitted
        copies within a round land in the same state.

    Induction over rounds shows every processor's known vector (and
    heard-from sets — message {e presence} is identical: both codecs send
    to everyone, every round) is the same under both codecs in every run,
    so decisions match in value and time everywhere; the test suite
    checks this point-for-point over exhaustive crash and omission
    universes, and [test_compact]'s same-seed lossy sweep pairs check it
    at n = 64 on [Procset.Wide] sets.  Only the wire size differs: deltas
    are empty from round 3 of a failure-free run, where the full vector
    keeps riding in full.

    The processor-set state is the known-slot set, the heard-from sets
    of rule (b) and the compact codec's bookkeeping, so the protocol is
    functorized over {!Eba_util.Procset.S}: [Word] keeps single-word sets
    at [n <= 62]; [Wide] runs the identical rules at any [n] under the
    network simulator. *)

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
  (* [values] is the sender's whole known vector, shared by every message
     of its round; only the slots in [slots] are read *)
  type msg = { slots : S.t; values : Value.t option array }

  type 'book core = {
    me : int;
    n : int;
    known : Value.t option array;  (* never written once a state holds it *)
    known_set : S.t;  (* the slots of [known] that hold a value *)
    heard_last : S.t option;  (* senders heard from in the last round *)
    heard_prev : S.t option;  (* ... and the round before *)
    time : int;
    decided : Value.t option;
    book : 'book;  (* the codec's per-destination bookkeeping *)
  }

  let knows_zero st =
    Array.exists (function Some v -> Value.equal v Value.Zero | None -> false) st.known

  let knows_all_one st =
    Array.for_all (function Some v -> Value.equal v Value.One | None -> false) st.known

  let quiescent st =
    (* condition (b): same heard-from set two rounds running *)
    match (st.heard_last, st.heard_prev) with
    | Some a, Some b -> S.equal a b
    | (Some _ | None), _ -> false

  let decide st =
    if st.decided <> None then st.decided
    else if knows_zero st then Some Value.Zero
    else if knows_all_one st || (st.time >= 2 && quiescent st) then Some Value.One
    else None

  let init_core (params : Params.t) ~me value book =
    let known = Array.make params.Params.n None in
    known.(me) <- Some value;
    let st =
      {
        me;
        n = params.Params.n;
        known;
        known_set = S.singleton me;
        heard_last = None;
        heard_prev = None;
        time = 0;
        decided = None;
        book;
      }
    in
    { st with decided = decide st }

  (* the merge both codecs share: [confirmed], the compact codec's, gets
     what each sender carried, and [book] the merged known set *)
  let receive_core ?confirmed st ~round arrived ~book =
    let n = st.n in
    let known = Array.copy st.known in
    let known_set = ref st.known_set in
    let heard = ref S.empty in
    Array.iteri
      (fun j m ->
        match m with
        | None -> ()
        | Some { slots; values } ->
            heard := S.add j !heard;
            (match confirmed with
            | Some c -> c.(j) <- S.union c.(j) slots
            | None -> ());
            (* one value per slot per run: the first sender supplies it *)
            let learned = S.diff slots !known_set in
            if not (S.is_empty learned) then begin
              let stray = ref false in
              S.iter (fun p -> if p < n then known.(p) <- values.(p) else stray := true) learned;
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
        heard_prev = st.heard_last;
        heard_last = Some !heard;
        time = round;
        book = book !known_set;
      }
    in
    { st with decided = decide st }

  let output st = st.decided

  (* the full codec *)

  type state = unit core

  let name = "P0opt"
  let init params ~me value = init_core params ~me value ()

  let send params st ~round:_ =
    Protocol_intf.broadcast params ~me:st.me { slots = st.known_set; values = st.known }

  let receive _params st ~round arrived = receive_core st ~round arrived ~book:ignore

  (* the whole vector rides as a dense trit array *)
  let wire_size (params : Params.t) (_ : msg) =
    Protocol_intf.Wire.(header + trit_vector params.Params.n)

  module Compact = struct
    type nonrec msg = msg

    type book = {
      confirmed : S.t array;  (* per destination: slots provably known there *)
      fresh : S.t;  (* slots learned in the previous round's receive *)
    }

    type state = book core

    let name = "P0opt-delta"

    let init (params : Params.t) ~me value =
      let n = params.Params.n in
      (* made with [S.empty] and filled, for the reason [send]'s array is
         made with [None] *)
      let confirmed = Array.make n S.empty in
      for d = 0 to n - 1 do
        confirmed.(d) <- S.singleton d
      done;
      init_core params ~me value { confirmed; fresh = S.singleton me }

    let send (params : Params.t) st ~round:_ =
      (* [fresh] is a subset of [known_set], so this is "every known slot
         unconfirmed at d, or fresh", minus d's own.  The array is made
         with [None]: past 256 slots, a young seed would force a minor
         collection per call. *)
      let out = Array.make params.Params.n None in
      for d = 0 to params.Params.n - 1 do
        if d <> st.me then begin
          let slots = S.union (S.diff st.known_set st.book.confirmed.(d)) st.book.fresh in
          out.(d) <- Some { slots = S.remove d slots; values = st.known }
        end
      done;
      out

    let receive _params st ~round arrived =
      (* whatever j sent me, j knew at send time *)
      let confirmed = Array.copy st.book.confirmed in
      receive_core ~confirmed st ~round arrived ~book:(fun known_set ->
          { confirmed; fresh = S.diff known_set st.known_set })

    let output = output

    (* a delta never costs more than the dense vector the full codec sends *)
    let wire_size (params : Params.t) m =
      let open Protocol_intf.Wire in
      header + min (entry * S.cardinal m.slots) (trit_vector params.Params.n)

    (* test hooks *)
    let known st = Array.copy st.known

    let message ~round:_ entries =
      (* slots no set can hold are dropped: [receive] would ignore them *)
      let entries = List.filter (fun (p, _) -> p >= 0 && p < S.max_width) entries in
      let width = List.fold_left (fun w (p, _) -> max w (p + 1)) 0 entries in
      let values = Array.make width None in
      List.iter (fun (p, v) -> if Option.is_none values.(p) then values.(p) <- Some v) entries;
      { slots = S.of_list (List.map fst entries); values }

    let entries m = List.map (fun p -> (p, Option.get m.values.(p))) (S.to_list m.slots)
  end
end

module Word = Make (Eba_util.Procset.Word)
module Wide = Make (Eba_util.Procset.Wide)
include Word

let for_params = Protocol_intf.by_width (module Word) (module Wide)

module Compact = struct
  module Word = Word.Compact
  module Wide = Wide.Compact
  include Word

  let for_params = Protocol_intf.by_width (module Word) (module Wide)
end
