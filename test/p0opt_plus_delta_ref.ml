(* The reference P0opt+delta codec: a message is a fresh array of
   [(owner, value, from, heard-sets)] entries, built per destination by
   copying the window of every row that outgrew the destination's proven
   coverage, and grafted one entry at a time.  The library's codec
   (Eba.P0opt_plus.Compact) sends the sender's shared row table with its
   coverage row for the destination instead; this one shares none of
   that, which makes it the oracle test_compact compares the library's
   message sizes, decisions and sweep summaries against. *)

module Params = Eba.Params
module Value = Eba.Value
module Protocol_intf = Eba.Protocol_intf

module Make (S : Eba.Procset.S) : Protocol_intf.PROTOCOL = struct
  type row = {
    r_value : Value.t;
    r_heard : S.t array;  (* r_heard.(k-1) = senders heard in round k *)
    r_upto : int;  (* rounds covered: r_heard.(0 .. r_upto - 1) are valid *)
  }

  type entry = {
    e_proc : int;  (* whose row *)
    e_value : Value.t;  (* its initial value (used when the row is new) *)
    e_from : int;  (* first covered round of the window, >= 1 *)
    e_heard : S.t array;  (* heard-sets of rounds e_from .. e_from+len-1 *)
  }

  type msg = entry array

  type state = {
    me : int;
    n : int;
    horizon : int;
    table : row option array;
    cu : int array array;
        (* cu.(d).(x): highest r_upto of x's row provably held at d;
           -1 = d not known to hold the row *)
    time : int;
    decided : Value.t option;
  }

  let name = "P0opt+delta"

  (* decision rules: verbatim P0opt+ *)

  let knows_zero table =
    Array.exists
      (function Some r -> Value.equal r.r_value Value.Zero | None -> false)
      table

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

  let safe_to_decide_one ~time table =
    let n = Array.length table in
    let evidence = Array.init n (fun x -> crash_evidence table x) in
    let k_now = ref (Array.init n (fun x -> table.(x) = None)) in
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

  let init (params : Params.t) ~me value =
    let n = params.Params.n in
    let table = Array.make n None in
    table.(me) <-
      Some { r_value = value; r_heard = Array.make params.Params.horizon S.empty; r_upto = 0 };
    let st =
      {
        me;
        n;
        horizon = params.Params.horizon;
        table;
        (* everyone holds their own row from time 0 *)
        cu = Array.init n (fun d -> Array.init n (fun x -> if x = d then 0 else -1));
        time = 0;
        decided = None;
      }
    in
    { st with decided = decide st }

  let send (params : Params.t) st ~round:_ =
    Array.init params.Params.n (fun d ->
        if d = st.me then None
        else begin
          let entries = ref [] in
          let cud = st.cu.(d) in
          for x = st.n - 1 downto 0 do
            (* never offer d its own row *)
            match st.table.(x) with
            | Some r when x <> d && r.r_upto > cud.(x) ->
                let from = max 1 (cud.(x) + 1) in
                entries :=
                  {
                    e_proc = x;
                    e_value = r.r_value;
                    e_from = from;
                    e_heard = Array.sub r.r_heard (from - 1) (r.r_upto - from + 1);
                  }
                  :: !entries
            | Some _ | None -> ()
          done;
          Some (Array.of_list !entries)
        end)

  (* graft an extension where it strictly grows my row and continues it;
     windows starting past my covered prefix or ending past the horizon
     are dropped *)
  let apply_entry st table e =
    let len = Array.length e.e_heard in
    let upto_e = e.e_from + len - 1 in
    if e.e_from >= 1 && upto_e <= st.horizon then
      match table.(e.e_proc) with
      | None ->
          if e.e_from = 1 then begin
            let r_heard = Array.make st.horizon S.empty in
            Array.blit e.e_heard 0 r_heard 0 len;
            table.(e.e_proc) <- Some { r_value = e.e_value; r_heard; r_upto = upto_e }
          end
      | Some r when upto_e > r.r_upto && e.e_from <= r.r_upto + 1 ->
          let r = { r with r_heard = Array.copy r.r_heard } in
          for k = r.r_upto + 1 to upto_e do
            r.r_heard.(k - 1) <- e.e_heard.(k - e.e_from)
          done;
          table.(e.e_proc) <- Some { r with r_upto = upto_e }
      | Some _ -> ()

  let receive _params st ~round arrived =
    let table = Array.copy st.table in
    let cu = Array.copy st.cu in
    let heard = ref S.empty in
    Array.iteri
      (fun j m ->
        match m with
        | None -> ()
        | Some entries ->
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
              entries;
            cu.(j) <- cuj)
      arrived;
    (match table.(st.me) with
    | Some r ->
        let r = { r with r_heard = Array.copy r.r_heard } in
        r.r_heard.(round - 1) <- !heard;
        table.(st.me) <- Some { r with r_upto = round }
    | None -> invalid_arg "P0opt+delta reference: own row missing");
    let st = { st with table; cu; time = round } in
    { st with decided = decide st }

  let output st = st.decided

  (* per entry: owner id, value byte, window bounds, and one dense
     heard-set per covered round *)
  let wire_size (params : Params.t) m =
    let open Protocol_intf.Wire in
    let n = params.Params.n in
    Array.fold_left
      (fun bytes e -> bytes + proc_id + 3 + (Array.length e.e_heard * set_bytes n))
      header m
end

module Word = Make (Eba.Procset.Word)
module Wide = Make (Eba.Procset.Wide)
