(** Derived basic facts used by the Section 6 protocols.

    The central one is [∃0*] (Section 6.2): a {e 0-chain} exists at point
    [(r,m)] iff an initial value of 0 has travelled along a path of
    distinct processors, one hop per round — distinct [i_0, ..., i_m] such
    that [i_0] has initial value 0, each [i_k] received [i_{k-1}]'s
    round-[k] message and does not believe [i_{k-1}] faulty at time [k],
    and [i_m] is nonfaulty.  (At [m = 0] this degenerates to "a nonfaulty
    processor holds a 0".)  [∃0*] holds at [(r,m)] iff a 0-chain exists at
    some [(r,m')] with [m' <= m].

    The paper's prose indexes the chain as [m] processors at time [m]; the
    hop-per-round reading used here is the one under which its Lemma A.10
    and A.11 arguments go through (chain membership must be acquired the
    round the value arrives, before omission echoes can reveal the
    sender's faultiness), and it makes the Prop 6.6 equivalences
    machine-checkable. *)

module Formula = Eba_epistemic.Formula

val exists0_star : Formula.env -> Formula.t
(** The [∃0*] atom over the whole model. *)

val chain_at : Formula.env -> run:int -> time:int -> bool
(** Is there a 0-chain ending exactly at [(run, time)] (a trusted delivery
    path of [time] hops from a 0)?  Exposed for unit tests of the chain
    semantics. *)
