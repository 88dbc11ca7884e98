(** The operational 0-chain protocol for omission failures (Section 6.2,
    Prop 6.4): an implementable counterpart of [FIP(Z⁰, O⁰)].

    A processor carries a {e chain flag} — "an initial 0 has reached me
    along a trusted hop-per-round path" — and a set of processors it knows
    to be faulty (a missing message convicts its sender: only senders fail
    in the sending-omission mode; convictions are gossiped).  Rules:

    - the flag starts true iff the initial value is 0, and is set at round
      [k] if some sender the receiver did not already suspect delivers a
      true flag in round [k];
    - decide 0 as soon as the flag is true;
    - decide 1 after the first round that brings {e no news}: no new
      suspicions, no new gossip, and no flag — then (Prop 6.4) no 0-chain
      can ever exist, so no nonfaulty processor will ever decide 0.

    All nonfaulty processors decide by time [f+1] where [f] processors
    actually fail.  The knowledge-based [FIP(Z⁰, O⁰)] dominates this
    implementation (its decide-1 test is the exact epistemic condition,
    not the no-news sufficient condition); the test-suite checks both
    directions of that relationship.

    A message is the chain flag plus {e news}: suspicions to merge.  One
    state and one set of rules serve two codecs:

    - the full codec's news is the whole suspicion set, a dense bitmap on
      the wire;
    - the compact codec, [Chain0-cert], sends each destination a
      {e certificate} — the suspicions it is not yet proven to hold — by
      the confirm-or-resend discipline of {!P0opt}'s compact codec:
      [confirmed.(d)] accumulates the suspicions that arrived {e in
      certificates from [d]} (whatever [d] gossiped, [d] suspects — and
      suspicion sets only grow), and the certificate to [d] carries
      [suspected \ confirmed.(d)] plus a one-round {e fresh echo} of the
      suspicions gained last round, so convictions learned from [d]
      itself flow back as confirmation and the certificates go quiet —
      exactly when the no-news decide-1 rule fires.  Set union is
      idempotent, so late or retransmitted copies merge cleanly under
      the round-stamped header.

    Certificate contents differ from the full suspicion sets, but the
    receiver-side union reconstructs the identical suspicion set at every
    step (missing elements are precisely ones the receiver already
    holds), so flags, convictions, no-news rounds — and therefore
    decisions in value and time — are the same under both codecs on
    every run.  The differential suite checks this point-for-point over
    exhaustive omission universes, and [test_compact]'s same-seed lossy
    sweep pairs check it at n = 64 on [Procset.Wide] sets.

    The suspicion sets in state and on the wire are the only
    processor-set data, so the protocol is functorized over
    {!Eba_util.Procset.S}: [Word] at [n <= 62], [Wide] at any [n]. *)

module Params = Eba_sim.Params
module Value = Eba_sim.Value

module Make (S : Eba_util.Procset.S) = struct
  type msg = { chain : bool; news : S.t }

  type 'book core = {
    me : int;
    n : int;
    chain : bool;
    suspected : S.t;
    decided : Value.t option;
    time : int;
    book : 'book;  (* the codec's per-destination bookkeeping *)
  }

  let init_core (params : Params.t) ~me value book =
    let chain = Value.equal value Value.Zero in
    {
      me;
      n = params.Params.n;
      chain;
      suspected = S.empty;
      decided = (if chain then Some Value.Zero else None);
      time = 0;
      book;
    }

  (* the merge both codecs share: [confirmed], the compact codec's, gets
     what each sender gossiped, and [book] the merged suspicion set *)
  let receive_core ?confirmed st ~round arrived ~book =
    (* Silence in this round convicts the sender, and gossip arriving this
       round counts too: the chain-hop trust condition of the paper is
       ¬B^N at the time the hop lands, i.e. {e after} all round-k evidence.
       So convictions are merged first and flags accepted only from senders
       who survive the merge. *)
    let silent = ref S.empty in
    let gossip = ref S.empty in
    let flagged = ref S.empty in
    Array.iteri
      (fun j m ->
        if j <> st.me then
          match m with
          | None -> silent := S.add j !silent
          | Some ({ chain; news } : msg) ->
              gossip := S.union !gossip news;
              (match confirmed with
              | Some c -> c.(j) <- S.union c.(j) news
              | None -> ());
              if chain then flagged := S.add j !flagged)
      arrived;
    let suspected' = S.union st.suspected (S.union !silent !gossip) in
    let no_news = S.equal suspected' st.suspected in
    let chain = st.chain || not (S.is_empty (S.diff !flagged suspected')) in
    let decided =
      match st.decided with
      | Some _ as d -> d
      | None ->
          if chain then Some Value.Zero
          else if no_news then Some Value.One
          else None
    in
    { st with chain; suspected = suspected'; decided; time = round; book = book suspected' }

  let output st = st.decided

  (* the full codec *)

  type state = unit core

  let name = "Chain0"
  let init params ~me value = init_core params ~me value ()

  let send params st ~round:_ =
    Protocol_intf.broadcast params ~me:st.me { chain = st.chain; news = st.suspected }

  let receive _params st ~round arrived = receive_core st ~round arrived ~book:ignore

  (* flag byte + the suspicion set as a dense bitmap *)
  let wire_size (params : Params.t) (_ : msg) =
    Protocol_intf.Wire.(header + 1 + set_bytes params.Params.n)

  module Compact = struct
    type nonrec msg = msg

    type book = {
      confirmed : S.t array;  (* per destination: suspicions provably held there *)
      fresh : S.t;  (* suspicions gained in the previous round's receive *)
    }

    type state = book core

    let name = "Chain0-cert"

    let init (params : Params.t) ~me value =
      init_core params ~me value
        { confirmed = Array.make params.Params.n S.empty; fresh = S.empty }

    let send (params : Params.t) st ~round:_ =
      let out = Array.make params.Params.n None in
      for d = 0 to params.Params.n - 1 do
        if d <> st.me then
          let news = S.union (S.diff st.suspected st.book.confirmed.(d)) st.book.fresh in
          out.(d) <- Some { chain = st.chain; news }
      done;
      out

    let receive _params st ~round arrived =
      (* whatever j gossiped, j suspects *)
      let confirmed = Array.copy st.book.confirmed in
      receive_core ~confirmed st ~round arrived ~book:(fun suspected ->
          { confirmed; fresh = S.diff suspected st.suspected })

    let output = output

    (* flag byte + sparse conviction ids, never above the dense bitmap *)
    let wire_size (params : Params.t) m =
      let open Protocol_intf.Wire in
      header + 1 + min (proc_id * S.cardinal m.news) (set_bytes params.Params.n)
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
