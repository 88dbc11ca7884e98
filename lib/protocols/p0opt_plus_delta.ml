(** [P0opt+delta]: the bounded-bandwidth variant of {!P0opt_plus} —
    identical decision rules over the identical {!Known_rows} table, but a
    destination receives only {e row extensions} it is not yet proven to
    hold, instead of the whole table every round.

    The coverage evidence is the delta traffic itself: when [d]'s message
    carries an extension of [x]'s row up to round [u], then [d]'s own copy
    of that row reached [u] at send time (rows only grow, so it still
    does).  I track [cu.(d).(x)], the highest such [u] per destination and
    row, and send [d] the extension [(cu.(d).(x), r_upto]] of every row
    that has outgrown it — with the initial value attached when
    [cu.(d).(x) < 0], i.e. when [d] is not known to hold the row at all.
    [d]'s own row ([cu.(d).(d) >= 0] from the start) and my rows that [d]
    already covers travel as nothing.

    No separate echo is needed (unlike {!P0opt_delta}): row extensions
    keep flowing every round a row grows, and what I learned from [d]
    raises [cu.(d)] directly.  Entries carry an explicit
    [(from, heard-sets)] window under a round-stamped header, so applying
    one is idempotent and order-independent: an extension is grafted only
    where it strictly grows my row and seamlessly continues it, and
    retransmitted / reordered copies within a round reconstruct the same
    table ([Known_rows] content is unique per run — heard-sets are facts
    about the run, not about who reported them).

    By induction the table equals the full variant's at every processor
    after every round, message presence being identical — so decisions
    match in value and time everywhere (differential suite, exhaustive
    crash and omission universes; [test_compact]'s same-seed lossy sweep
    pairs at n = 64, on [Procset.Wide] sets).  Only the wire
    size differs: the full table weighs [O(n · T)] dense sets per message
    forever, while deltas carry each heard-set roughly once per
    destination. *)

module Params = Eba_sim.Params
module Value = Eba_sim.Value

module Make (S : Eba_util.Procset.S) = struct
  module K = Known_rows.Make (S)

  type entry = {
    e_proc : int;  (* whose row *)
    e_value : Value.t;  (* its initial value (used when the row is new) *)
    e_from : int;  (* first covered round of the window, >= 1 *)
    e_heard : S.t array;  (* heard-sets of rounds e_from .. e_from+len-1 *)
  }

  type msg = { d_round : int; d_entries : entry array }

  type state = {
    me : int;
    n : int;
    horizon : int;
    table : K.row option array;
    cu : int array array;
        (* cu.(d).(x): highest r_upto of x's row provably held at d;
           -1 = d not known to hold the row *)
    time : int;
    decided : Value.t option;
  }

  let name = "P0opt+delta"

  let decide st =
    if st.decided <> None then st.decided
    else if K.knows_zero st.table then Some Value.Zero
    else if K.safe_to_decide_one ~time:st.time st.table then Some Value.One
    else None

  let init (params : Params.t) ~me value =
    let n = params.Params.n in
    let table = Array.make n None in
    table.(me) <-
      Some
        {
          K.r_value = value;
          r_heard = Array.make params.Params.horizon S.empty;
          r_upto = 0;
        };
    let st =
      {
        me;
        n;
        horizon = params.Params.horizon;
        (* everyone holds their own row from time 0 *)
        cu = Array.init n (fun d -> Array.init n (fun x -> if x = d then 0 else -1));
        table;
        time = 0;
        decided = None;
      }
    in
    { st with decided = decide st }

  let send (params : Params.t) st ~round =
    Array.init params.Params.n (fun d ->
        if d = st.me then None
        else begin
          let entries = ref [] in
          let cud = st.cu.(d) in
          for x = st.n - 1 downto 0 do
            (* never offer d its own row: d's copy is extended locally every
               round, so it is always at least as long as anyone else's *)
            match st.table.(x) with
            | Some r when x <> d && r.K.r_upto > cud.(x) ->
                let from = max 1 (cud.(x) + 1) in
                entries :=
                  {
                    e_proc = x;
                    e_value = r.K.r_value;
                    e_from = from;
                    e_heard = Array.sub r.K.r_heard (from - 1) (r.K.r_upto - from + 1);
                  }
                  :: !entries
            | Some _ | None -> ()
          done;
          Some { d_round = round; d_entries = Array.of_list !entries }
        end)

  (* Graft an arrived extension onto my copy of the row.  Windows that
     start beyond my covered prefix or beyond the horizon are dropped: an
     honest sender can produce neither (it extends from my proven
     coverage), so the guards only shield the merge from corrupted wire
     input — a protocol step must not crash on it. *)
  let apply_entry st table e =
    let len = Array.length e.e_heard in
    let upto_e = e.e_from + len - 1 in
    if e.e_from >= 1 && upto_e <= st.horizon then
      match table.(e.e_proc) with
      | None ->
          if e.e_from = 1 then begin
            let r_heard = Array.make st.horizon S.empty in
            Array.blit e.e_heard 0 r_heard 0 len;
            table.(e.e_proc) <-
              Some { K.r_value = e.e_value; r_heard; r_upto = upto_e }
          end
      | Some r when upto_e > r.K.r_upto && e.e_from <= r.K.r_upto + 1 ->
          let r = K.copy_row r in
          for k = r.K.r_upto + 1 to upto_e do
            r.K.r_heard.(k - 1) <- e.e_heard.(k - e.e_from)
          done;
          table.(e.e_proc) <- Some { r with K.r_upto = upto_e }
      | Some _ -> ()

  let receive _params st ~round arrived =
    let table = Array.map Fun.id st.table in
    let cu = Array.copy st.cu in
    let heard = ref S.empty in
    Array.iteri
      (fun j m ->
        match m with
        | None -> ()
        | Some { d_round = _; d_entries } ->
            heard := S.add j !heard;
            let cuj = Array.copy cu.(j) in
            Array.iter
              (fun e ->
                if e.e_proc >= 0 && e.e_proc < st.n then begin
                  let upto_e = e.e_from + Array.length e.e_heard - 1 in
                  (* whatever j sent me, j's row covered at send time *)
                  if upto_e > cuj.(e.e_proc) then cuj.(e.e_proc) <- upto_e;
                  apply_entry st table e
                end)
              d_entries;
            cu.(j) <- cuj)
      arrived;
    (* extend my own row with this round's heard-set — same invariant and
       same typed failure as the full variant (see {!P0opt_plus}) *)
    (match table.(st.me) with
    | Some r ->
        let r = K.copy_row r in
        r.K.r_heard.(round - 1) <- !heard;
        table.(st.me) <- Some { r with K.r_upto = round }
    | None -> invalid_arg "P0opt+delta.receive: own row missing from table");
    let st = { st with table; cu; time = round } in
    { st with decided = decide st }

  let output st = st.decided

  (* per entry: owner id, value byte, window bounds, and one dense
     heard-set per covered round *)
  let wire_size (params : Params.t) m =
    let open Protocol_intf.Wire in
    let n = params.Params.n in
    let bytes = ref header in
    Array.iter
      (fun e -> bytes := !bytes + proc_id + 3 + (Array.length e.e_heard * set_bytes n))
      m.d_entries;
    !bytes
end

module Word = Make (Eba_util.Procset.Word)
module Wide = Make (Eba_util.Procset.Wide)
include Word

let for_params (params : Params.t) : (module Protocol_intf.PROTOCOL) =
  if params.Params.n <= Eba_util.Bitset.max_width then (module Word) else (module Wide)
