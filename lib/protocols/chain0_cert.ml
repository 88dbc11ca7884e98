(** [Chain0-cert]: the bounded-bandwidth variant of {!Chain0} — identical
    chain flag and suspicion-set evolution, but instead of gossiping the
    whole suspicion set every round, a processor sends each destination a
    {e certificate}: the suspicions the destination is not yet proven to
    hold.

    The same confirm-or-resend discipline as {!P0opt_delta}, specialized
    to suspicion sets:

    - [confirmed.(d)] accumulates the suspicions that arrived {e in
      certificates from [d]} (whatever [d] gossiped, [d] suspects — and
      suspicion sets only grow);
    - the certificate to [d] carries [suspected \ confirmed.(d)] plus a
      one-round {e fresh echo} of the suspicions gained last round, so
      convictions learned from [d] itself flow back as confirmation and
      the certificates go quiet — exactly when the full protocol's
      {e no-news} decide-1 rule fires;
    - the chain flag still rides in every message (one byte), and set
      union is idempotent, so late or retransmitted copies merge cleanly
      under the round-stamped header.

    Certificate contents differ from the full suspicion sets, but the
    receiver-side union reconstructs the identical [suspected'] at every
    step (missing elements are precisely ones the receiver already holds),
    so flags, convictions, no-news rounds — and therefore decisions in
    value and time — match {!Chain0} on every run.  The differential suite
    checks this point-for-point over exhaustive omission universes, and
    [test_compact]'s same-seed lossy sweep pairs check it at n = 64 on
    [Procset.Wide] sets. *)

module Params = Eba_sim.Params
module Value = Eba_sim.Value

module Make (S : Eba_util.Procset.S) = struct
  type msg = { c_round : int; c_chain : bool; c_news : S.t }

  type state = {
    me : int;
    n : int;
    chain : bool;
    suspected : S.t;
    confirmed : S.t array;  (* per destination: suspicions provably held there *)
    fresh : S.t;  (* suspicions gained in the previous round's receive *)
    decided : Value.t option;
    time : int;
  }

  let name = "Chain0-cert"

  let init (params : Params.t) ~me value =
    let chain = Value.equal value Value.Zero in
    {
      me;
      n = params.Params.n;
      chain;
      suspected = S.empty;
      confirmed = Array.make params.Params.n S.empty;
      fresh = S.empty;
      decided = (if chain then Some Value.Zero else None);
      time = 0;
    }

  let send (params : Params.t) st ~round =
    let out = Array.make params.Params.n None in
    for d = 0 to params.Params.n - 1 do
      if d <> st.me then
        let news = S.union (S.diff st.suspected st.confirmed.(d)) st.fresh in
        out.(d) <- Some { c_round = round; c_chain = st.chain; c_news = news }
    done;
    out

  let receive _params st ~round arrived =
    (* the full protocol's rules verbatim, with certificates in place of
       whole suspicion sets as the gossip *)
    let silent = ref S.empty in
    let gossip = ref S.empty in
    let flagged = ref S.empty in
    let confirmed = Array.copy st.confirmed in
    Array.iteri
      (fun j m ->
        if j <> st.me then
          match m with
          | None -> silent := S.add j !silent
          | Some { c_round = _; c_chain; c_news } ->
              gossip := S.union !gossip c_news;
              (* whatever j gossiped, j suspects *)
              confirmed.(j) <- S.union confirmed.(j) c_news;
              if c_chain then flagged := S.add j !flagged)
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
    {
      st with
      chain;
      suspected = suspected';
      confirmed;
      fresh = S.diff suspected' st.suspected;
      decided;
      time = round;
    }

  let output st = st.decided

  (* flag byte + sparse conviction ids, never above the dense bitmap *)
  let wire_size (params : Params.t) m =
    let open Protocol_intf.Wire in
    let n = params.Params.n in
    header + 1 + min (proc_id * S.cardinal m.c_news) (set_bytes n)
end

module Word = Make (Eba_util.Procset.Word)
module Wide = Make (Eba_util.Procset.Wide)
include Word

let for_params (params : Params.t) : (module Protocol_intf.PROTOCOL) =
  if params.Params.n <= Eba_util.Bitset.max_width then (module Word) else (module Wide)
