(* The reference Theorem 5.3 check: one formula per (condition,
   processor),

     In(N, i) ⇒ (decide_i(y) ⇔ B^N_i(ψ_y ∧ ¬decide_i(1−y))),

   with ψ₀ = ∃0 ∧ C□_{N∧O} ∃0 and ψ₁ = ∃1 ∧ C□_{N∧Z} ∃1, each evaluated by
   the formula evaluator and reported at its least counterexample point.
   The library reads both conditions off two all-owner belief tables
   (Characterize.optimality_failures); this check shares none of that
   walk, which makes it the oracle the two are compared against, failure
   list for failure list. *)

module F = Eba.Formula
module KB = Eba.Kb_protocol
module Val = Eba.Value

let optimality_failures env (d : KB.decisions) =
  let nf = F.nonfaulty env in
  let pair = d.KB.pair in
  let n_and_o = KB.conjoin env nf "N&O" pair.KB.one in
  let n_and_z = KB.conjoin env nf "N&Z" pair.KB.zero in
  let e0 = F.exists env Val.Zero and e1 = F.exists env Val.One in
  let psi0 = F.And [ e0; F.Cbox (n_and_o, e0) ] and psi1 = F.And [ e1; F.Cbox (n_and_z, e1) ] in
  let conditions tag y psi =
    List.filter_map
      (fun i ->
        let decided v = KB.decided_atom env d v i in
        let formula =
          F.Implies
            ( F.In (nf, i),
              F.Iff (decided y, F.B (nf, i, F.And [ psi; F.Not (decided (Val.negate y)) ])) )
        in
        Option.map
          (fun point ->
            {
              Eba.Characterize.condition =
                Printf.sprintf "5.3%s: nonfaulty %d decides %d iff the knowledge condition" tag
                  i (Val.to_int y);
              point;
              proc = i;
            })
          (F.counterexample env formula))
      (List.init (Eba.Model.n (F.model env)) Fun.id)
  in
  conditions "a" Val.Zero psi0 @ conditions "b" Val.One psi1
