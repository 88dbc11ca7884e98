module Formula = Eba_epistemic.Formula
module Nonrigid = Eba_epistemic.Nonrigid
module Pset = Eba_epistemic.Pset
module Value = Eba_sim.Value
module Model = Eba_fip.Model
module Bitset = Eba_util.Bitset

type failure = { condition : string; point : int; proc : int }

(* Every subformula shared across processors is built once here, so the
   env's memo evaluates it once: the two C□ nodes, their [∃y ∧ C□]
   conjunctions, and each (value, processor) decided atom. *)
type ctx = {
  n : Nonrigid.t;
  e0 : Formula.t;
  e1 : Formula.t;
  e0_c_zero : Formula.t;  (* ∃0 ∧ C□_{N∧O} ∃0 *)
  e1_c_one : Formula.t;  (* ∃1 ∧ C□_{N∧Z} ∃1 *)
  dec : Value.t -> int -> Formula.t;
}

let ctx env (d : Kb_protocol.decisions) =
  let model = Formula.model env in
  let n = Formula.nonfaulty env in
  let pair = d.Kb_protocol.pair in
  let n_and_o = Kb_protocol.conjoin env n "N&O" pair.Kb_protocol.one in
  let n_and_z = Kb_protocol.conjoin env n "N&Z" pair.Kb_protocol.zero in
  let e0 = Formula.exists env Value.zero and e1 = Formula.exists env Value.one in
  let decided y =
    Array.init (Model.n model) (fun i -> lazy (Kb_protocol.decided_atom env d y i))
  in
  let dec0 = decided Value.Zero and dec1 = decided Value.One in
  {
    n;
    e0;
    e1;
    e0_c_zero = Formula.And [ e0; Formula.Cbox (n_and_o, e0) ];
    e1_c_one = Formula.And [ e1; Formula.Cbox (n_and_z, e1) ];
    dec =
      (fun y i ->
        Lazy.force (match y with Value.Zero -> dec0.(i) | Value.One -> dec1.(i)));
  }

let check_per_proc env nprocs mk =
  let failures = ref [] in
  for i = 0 to nprocs - 1 do
    let condition, formula = mk i in
    match Formula.counterexample env formula with
    | None -> ()
    | Some point -> failures := { condition; point; proc = i } :: !failures
  done;
  List.rev !failures

let necessary env d =
  let c = ctx env d in
  let model = Formula.model env in
  let mk_zero i =
    ( Printf.sprintf "4.3a: decide_%d(0) => B(e0 & Cbox[N&O] e0 & ~decide(1))" i,
      Formula.Implies
        ( c.dec Value.Zero i,
          Formula.B (c.n, i, Formula.And [ c.e0_c_zero; Formula.Not (c.dec Value.One i) ])
        ) )
  in
  let mk_one i =
    ( Printf.sprintf "4.3b: decide_%d(1) => B(e1 & Cbox[N&Z] e1 & ~decide(0))" i,
      Formula.Implies
        ( c.dec Value.One i,
          Formula.B (c.n, i, Formula.And [ c.e1_c_one; Formula.Not (c.dec Value.Zero i) ])
        ) )
  in
  check_per_proc env (Model.n model) mk_zero
  @ check_per_proc env (Model.n model) mk_one

(* Prop 4.4 constrains the decision pair itself, so its decide_i(y) is the
   raw set-membership reading (Kb_protocol.member_atom): the first-entry
   outcome differs only at views whose owner knows itself faulty, where
   every B^N_i formula is vacuously true and outcomes are unconstrained. *)
let sufficient_zero_anchored env (d : Kb_protocol.decisions) =
  let c = ctx env d in
  let model = Formula.model env in
  let mem = Kb_protocol.member_atom env d.Kb_protocol.pair in
  let ok = ref true in
  for i = 0 to Model.n model - 1 do
    let a = Formula.Implies (mem Value.Zero i, Formula.B (c.n, i, c.e0)) in
    let b =
      Formula.Iff (mem Value.One i, Formula.B (c.n, i, c.e1_c_one))
    in
    if not (Formula.valid env a && Formula.valid env b) then ok := false
  done;
  !ok

let sufficient_one_anchored env (d : Kb_protocol.decisions) =
  let c = ctx env d in
  let model = Formula.model env in
  let mem = Kb_protocol.member_atom env d.Kb_protocol.pair in
  let ok = ref true in
  for i = 0 to Model.n model - 1 do
    let a =
      Formula.Iff (mem Value.Zero i, Formula.B (c.n, i, c.e0_c_zero))
    in
    let b = Formula.Implies (mem Value.One i, Formula.B (c.n, i, c.e1)) in
    if not (Formula.valid env a && Formula.valid env b) then ok := false
  done;
  !ok

(* Theorem 5.3 read off two belief tables.  [decide_i] is a function of
   [i]'s view (a first-entry outcome reads only [i]'s views so far), and
   where [i ∈ N] the point lies in its own cell, so there
   [B^N_i(ψ_y ∧ ¬decide_i(1−y))] is [B^N_i ψ_y ∧ ¬decide_i(1−y)]: the
   [B^N ψ_y] table at [i]'s view and [i]'s own outcome settle both
   conditions.  For each [i] the walk visits points in increasing order,
   so the first failure it meets for a (condition, [i]) is the least
   point, the witness the formula's counterexample names. *)
let optimality_failures env d =
  let c = ctx env d in
  let model = Formula.model env in
  let n = Model.n model and horizon = Model.horizon model in
  let b0 = Decision_set.believes env c.n c.e0_c_zero
  and b1 = Decision_set.believes env c.n c.e1_c_one in
  (* [first.(y * n + i)]: least point failing condition (a) for y = 0 or
     (b) for y = 1 at nonfaulty [i], or -1 *)
  let first = Array.make (2 * n) (-1) and views = model.Model.views in
  for r = 0 to Model.nruns model - 1 do
    let nonfaulty = Model.nonfaulty model ~run:r in
    for i = 0 to n - 1 do
      if Bitset.mem i nonfaulty then begin
        let at0, at1 =
          match Kb_protocol.outcome d ~run:r ~proc:i with
          | Some { at; value = Value.Zero } -> (at, max_int)
          | Some { at; value = Value.One } -> (max_int, at)
          | None -> (max_int, max_int)
        in
        for time = 0 to horizon do
          let point = (r * (horizon + 1)) + time in
          let v = views.((point * n) + i) in
          let dec0 = at0 <= time and dec1 = at1 <= time in
          if first.(i) < 0 && dec0 <> (Decision_set.mem b0 v && not dec1) then
            first.(i) <- point;
          if first.(n + i) < 0 && dec1 <> (Decision_set.mem b1 v && not dec0) then
            first.(n + i) <- point
        done
      end
    done
  done;
  List.concat_map
    (fun y ->
      List.filter_map
        (fun i ->
          let point = first.((y * n) + i) in
          if point < 0 then None
          else
            let condition =
              Printf.sprintf "5.3%c: nonfaulty %d decides %d iff the knowledge condition"
                (if y = 0 then 'a' else 'b') i y
            in
            Some { condition; point; proc = i })
        (List.init n Fun.id))
    [ 0; 1 ]

let is_optimal env d = optimality_failures env d = []
