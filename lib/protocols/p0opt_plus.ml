(** [P0opt+]: an optimal crash-mode EBA protocol with polynomial-size
    messages that matches the knowledge-based [F^Λ,2] {e for every t}.

    Theorem 6.2 presents [P0opt] (value vectors + the "same heard-set
    twice" rule) as equivalent to [F^Λ,2].  Exhaustive checking shows that
    equivalence is a [t = 1] phenomenon: for [t ≥ 2], a processor that
    crashes in round 1 while delivering its last message {e to me} keeps my
    heard-set shrinking, so rule (b) stays silent even when gossiped
    delivery evidence already pins every potential witness of a 0 as dead.
    [P0opt] remains correct but is strictly dominated.

    This variant closes the gap by gossiping, for every processor [j], the
    row [(v_j, heard_j(1), ..., heard_j(k))] — everything a full-information
    view contains in the crash mode, in [O(n² T)] bits.  Decisions:

    - decide 0 on (transitively) learning any initial 0;
    - decide 1 at time [m] when nobody can possibly know a 0 and be
      nonfaulty: compute the {e possibly-knows-0} relation
      [K(x, k)] — [x]'s value is unknown to me at [k = 0]; thereafter
      [K(x,k)] holds if my rows do not cover [x]'s time-[k] state and
      either [K(x,k-1)], or some [b] with [K(b,k-1)] might have delivered
      to [x] in round [k] ([b] not provably crashed before [k], delivery
      not contradicted by a known heard-set).  Decide 1 iff every [x] with
      [K(x,m)] is provably crashed (some known heard-set shows a missed
      message from [x], so [x] is faulty and permanently silent).

    The test-suite checks, exhaustively over crash universes with t = 1
    and t = 2, that this protocol makes {e exactly} the decisions of
    [F^Λ,2] at corresponding points.

    The rules read the row table alone, and two message codecs fill it:

    - the full codec sends the whole table every round.  Rows are
      immutable once shared (every mutation copies first), so tables flow
      through messages by reference: [send] shares the whole table with
      every destination and merging keeps the winning row as-is;
    - the compact codec, [P0opt+delta], sends a destination only the
      {e row extensions} it is not yet proven to hold.  The coverage
      evidence is the delta traffic itself: when [d]'s message carries an
      extension of [x]'s row up to round [u], then [d]'s own copy of that
      row reached [u] at send time (rows only grow, so it still does).  I
      track [cu.(d).(x)], the highest such [u] per destination and row,
      and every row that has outgrown it travels to [d] as the extension
      [(cu.(d).(x), r_upto]] — with the initial value attached when
      [cu.(d).(x) < 0], i.e. when [d] is not known to hold the row at
      all.  [d]'s own row ([cu.(d).(d) = max_int]) and my rows that [d]
      already covers travel as nothing.  No echo is needed (unlike
      [P0opt]'s compact codec): row extensions keep flowing every round a
      row grows, and what I learned from [d] raises [cu.(d)] directly.

      In memory a compact message is my table and my coverage row
      [cu.(d)], both shared by reference (book rows are copy-on-write
      like table rows), so [send] copies nothing.  The wire encoding it
      is sized by is one explicit [(owner, value, from, heard-sets)]
      entry per travelling row under a round-stamped header, so applying
      it is idempotent and order-independent: an extension is adopted
      only where it strictly grows my row and seamlessly continues it,
      and retransmitted or reordered copies within a round reconstruct
      the same table (row content is unique per run — heard-sets are
      facts about the run, not about who reported them).

    By induction the table is the same under both codecs at every
    processor after every round, message presence being identical — so
    decisions match in value and time everywhere (differential suite,
    exhaustive crash and omission universes; [test_compact]'s same-seed
    lossy sweep pairs at n = 64, on [Procset.Wide] sets).  Only the wire
    size differs: the full table weighs [O(n · T)] dense sets per message
    forever, while deltas carry each heard-set roughly once per
    destination.  Functorized over {!Eba_util.Procset.S} for the
    heard-sets, the protocol runs at any [n] under the simulator. *)

module Params = Eba_sim.Params
module Value = Eba_sim.Value

module Make (S : Eba_util.Procset.S) = struct
  type row = {
    r_value : Value.t;
    r_heard : S.t array;  (* r_heard.(k-1) = senders heard in round k *)
    r_upto : int;  (* rounds covered: r_heard.(0 .. r_upto - 1) are valid *)
  }

  type 'book core = {
    me : int;
    n : int;
    horizon : int;
    table : row option array;
    time : int;
    decided : Value.t option;
    book : 'book;  (* the codec's per-destination bookkeeping *)
  }

  let copy_row r = { r with r_heard = Array.copy r.r_heard }

  let knows_zero table =
    Array.exists
      (function Some r -> Value.equal r.r_value Value.Zero | None -> false)
      table

  (* first round at which x is provably crashed: some known heard-set misses
     a message from x *)
  let crash_evidence table x =
    let best = ref None in
    Array.iteri
      (fun a row ->
        match row with
        | None -> ()
        | Some r ->
            if a <> x then
              for k = 1 to r.r_upto do
                if not (S.mem x r.r_heard.(k - 1)) then
                  match !best with
                  | Some b when b <= k -> ()
                  | Some _ | None -> best := Some k
              done)
      table;
    !best

  let upto table x = match table.(x) with None -> -1 | Some r -> r.r_upto

  let known_not_delivered table ~sender ~receiver ~round =
    match table.(receiver) with
    | Some r when round <= r.r_upto -> not (S.mem sender r.r_heard.(round - 1))
    | Some _ | None -> false

  (* Decide 1 at [time] when nobody can possibly know a 0 and be nonfaulty:
     the possibly-knows-0 fixpoint described above, computed from the
     table alone. *)
  let safe_to_decide_one ~time table =
    let n = Array.length table in
    let evidence = Array.init n (fun x -> crash_evidence table x) in
    let k_now = Array.init n (fun x -> table.(x) = None) in
    let k_now = ref k_now in
    for k = 1 to time do
      let next =
        Array.init n (fun x ->
            upto table x < k
            && ((!k_now).(x)
               ||
               let feeds b =
                 (!k_now).(b)
                 && (not (known_not_delivered table ~sender:b ~receiver:x ~round:k))
                 && match evidence.(b) with Some kb -> kb >= k | None -> true
               in
               let rec any b = b < n && ((b <> x && feeds b) || any (b + 1)) in
               any 0))
      in
      k_now := next
    done;
    let threat x = (!k_now).(x) && evidence.(x) = None in
    let rec any x = x < n && (threat x || any (x + 1)) in
    not (any 0)

  let decide st =
    if st.decided <> None then st.decided
    else if knows_zero st.table then Some Value.Zero
    else if safe_to_decide_one ~time:st.time st.table then Some Value.One
    else None

  let init_core (params : Params.t) ~me value book =
    let table = Array.make params.Params.n None in
    table.(me) <-
      Some { r_value = value; r_heard = Array.make params.Params.horizon S.empty; r_upto = 0 };
    let st =
      {
        me;
        n = params.Params.n;
        horizon = params.Params.horizon;
        table;
        time = 0;
        decided = None;
        book;
      }
    in
    { st with decided = decide st }

  (* [merge table j m] folds what [j] sent into my copy of the table *)
  let receive_core st ~round arrived ~merge book =
    let table = Array.copy st.table in
    let heard = ref S.empty in
    Array.iteri
      (fun j m ->
        match m with
        | None -> ()
        | Some m ->
            heard := S.add j !heard;
            merge table j m)
      arrived;
    (* Extend my own row with this round's heard-set; the copy keeps every
       row that escaped through [send] (or arrived from elsewhere) frozen.
       My own row is present in every reachable state: [init] installs it
       and no merge turns a [Some] into [None] — no wire input, however
       corrupted, can delete a row, it can only fail to add one.  Should
       future state surgery ever break that invariant, fail as a
       diagnosable error rather than an assertion crash mid-protocol. *)
    (match table.(st.me) with
    | Some r ->
        let r = copy_row r in
        r.r_heard.(round - 1) <- !heard;
        table.(st.me) <- Some { r with r_upto = round }
    | None -> invalid_arg "P0opt+.receive: own row missing from table");
    let st = { st with table; time = round; book } in
    { st with decided = decide st }

  let output st = st.decided

  (* the full codec *)

  type msg = row option array  (* my whole table *)
  type state = unit core

  let name = "P0opt+"
  let init params ~me value = init_core params ~me value ()

  (* Rows are copy-on-write (see [receive_core]), so the table itself is
     the snapshot: one reference shared with every destination instead of
     n - 1 deep copies of an O(n · horizon) structure. *)
  let send params st ~round:_ = Protocol_intf.broadcast params ~me:st.me st.table

  let merge_row mine theirs =
    match (mine, theirs) with
    | None, r | r, None -> r
    | Some a, Some b -> Some (if a.r_upto >= b.r_upto then a else b)

  let receive _params st ~round arrived =
    receive_core st ~round arrived
      ~merge:(fun table _ their_table ->
        Array.iteri (fun x r -> table.(x) <- merge_row table.(x) r) their_table)
      ()

  (* every present row costs its value byte, a length byte for the
     covered prefix, its owner id and [r_upto] dense heard-sets *)
  let wire_size (params : Params.t) (m : msg) =
    let open Protocol_intf.Wire in
    let n = params.Params.n in
    let bytes = ref header in
    Array.iter
      (function
        | None -> ()
        | Some r -> bytes := !bytes + proc_id + 2 + (r.r_upto * set_bytes n))
      m;
    !bytes

  module Compact = struct
    (* the sender's whole table and its coverage row for the
       destination, both shared: only the rows that outgrew the coverage
       travel, each as the window past it *)
    type msg = { rows : row option array; cov : int array }

    (* cu.(d).(x): highest r_upto of x's row provably held at d;
       -1 = d not known to hold the row; cu.(d).(d) = max_int, so d's own
       row never travels to d *)
    type state = int array array core

    let name = "P0opt+delta"

    let init (params : Params.t) ~me value =
      let n = params.Params.n in
      init_core params ~me value
        (Array.init n (fun d -> Array.init n (fun x -> if x = d then max_int else -1)))

    (* Book rows are copy-on-write (see [receive]), like table rows, so a
       message is one small record per destination.  The array is made
       with [None]: past 256 slots, a young seed would force a minor
       collection per call. *)
    let send (params : Params.t) st ~round:_ =
      let out = Array.make params.Params.n None in
      for d = 0 to params.Params.n - 1 do
        if d <> st.me then out.(d) <- Some { rows = st.table; cov = st.book.(d) }
      done;
      out

    (* Row [x] travels when the sender's copy outgrew the destination's
       proven coverage [cov.(x)], as the window [max 1 (cov.(x) + 1) ..
       r_upto].  Where that window continues my row, my row is a prefix
       of the sender's (row content is unique per run), so [merge_row]
       adopts the sender's row as-is.  Rows past [n] or past a short
       [cov], and windows that start past my covered prefix or end past
       the horizon, are dropped: an honest sender produces none of them,
       so the guards only shield a protocol step from corrupted wire
       input. *)
    let receive _params st ~round arrived =
      let cu = Array.copy st.book in
      receive_core st ~round arrived
        ~merge:(fun table j { rows; cov } ->
          let cuj = Array.copy cu.(j) in
          for x = 0 to min st.n (min (Array.length rows) (Array.length cov)) - 1 do
            match rows.(x) with
            | Some r as theirs when r.r_upto > cov.(x) ->
                (* whatever j sent me, j's row covered at send time *)
                if r.r_upto > cuj.(x) then cuj.(x) <- r.r_upto;
                let from = Int.max 1 (cov.(x) + 1) in
                if r.r_upto <= st.horizon && from <= Int.max 0 (upto table x) + 1 then
                  table.(x) <- merge_row table.(x) theirs
            | Some _ | None -> ()
          done;
          cu.(j) <- cuj)
        cu

    let output = output

    (* the wire encoding: per travelled row, owner id, value byte, window
       bounds, and one dense heard-set per round of the window.  [Int.max],
       not the polymorphic [max]: this runs once per destination. *)
    let wire_size (params : Params.t) { rows; cov } =
      let open Protocol_intf.Wire in
      let set = set_bytes params.Params.n in
      let bytes = ref header in
      for x = 0 to min (Array.length rows) (Array.length cov) - 1 do
        match rows.(x) with
        | Some r when r.r_upto > cov.(x) ->
            bytes := !bytes + proc_id + 3 + ((r.r_upto - Int.max 0 cov.(x)) * set)
        | Some _ | None -> ()
      done;
      !bytes
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
