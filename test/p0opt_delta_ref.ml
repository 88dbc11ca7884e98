(* The reference P0opt-delta codec: a delta is a fresh array of
   [(slot, value)] pairs, built per destination by scanning every slot of
   the known vector, and merged one entry at a time.  The library's
   codec (Eba.P0opt.Compact) reads a slot set against the sender's shared
   known vector instead; this one shares none of that, which makes it the
   oracle test_compact compares the library's entries, known vectors,
   decisions and sweep summaries against. *)

module Params = Eba.Params
module Value = Eba.Value
module Protocol_intf = Eba.Protocol_intf

module Make (S : Eba.Procset.S) : Eba.P0opt.COMPACT = struct
  type msg = { d_round : int; d_entries : (int * Value.t) array }

  type state = {
    me : int;
    n : int;
    known : Value.t option array;
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
    Array.init params.Params.n (fun d ->
        if d = st.me then None
        else begin
          let entries = ref [] in
          let conf = st.confirmed.(d) in
          for p = st.n - 1 downto 0 do
            if p <> d then
              match st.known.(p) with
              | Some v when (not (S.mem p conf)) || S.mem p st.fresh ->
                  entries := (p, v) :: !entries
              | Some _ | None -> ()
          done;
          Some { d_round = round; d_entries = Array.of_list !entries }
        end)

  let receive _params st ~round arrived =
    let known = Array.copy st.known in
    let confirmed = Array.copy st.confirmed in
    let heard = ref S.empty in
    let fresh = ref S.empty in
    Array.iteri
      (fun j m ->
        match m with
        | None -> ()
        | Some { d_round = _; d_entries } ->
            heard := S.add j !heard;
            let cj = ref confirmed.(j) in
            Array.iter
              (fun (p, v) ->
                if p >= 0 && p < Array.length known then begin
                  (* whatever j sent me, j knew at send time *)
                  cj := S.add p !cj;
                  match known.(p) with
                  | None ->
                      known.(p) <- Some v;
                      fresh := S.add p !fresh
                  | Some _ -> ()  (* one value per slot per run: idempotent *)
                end)
              d_entries;
            confirmed.(j) <- !cj)
      arrived;
    let st =
      {
        st with
        known;
        confirmed;
        fresh = !fresh;
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
    header + min (entry * Array.length m.d_entries) (trit_vector params.Params.n)

  (* test hooks *)
  let known st = Array.copy st.known
  let message ~round entries = { d_round = round; d_entries = Array.of_list entries }
  let entries m = Array.to_list m.d_entries
end

module Word = Make (Eba.Procset.Word)
module Wide = Make (Eba.Procset.Wide)
