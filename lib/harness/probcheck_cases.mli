(** The pinned [eba probcheck] parameter sets shared by the golden tests
    and their regenerator — one constructor per surface so the committed
    JSON can never drift from what the library computes. *)

val small : unit -> Eba.Prob.Report.t
(** [n = 4, t = 1], constant latency 1.0, loss 0.25, default synchronizer
    timing: 8 attempts, per-message miss exactly 1/65536. *)

val n64 : unit -> Eba.Prob.Report.t
(** The committed benchmark row's parameters ([n = 64, t = 8], uniform
    latency 0.2..1.0, loss 0.05, default timing): per-message miss exactly
    1/25600000000 — the number EXPERIMENTS.md used to hand-derive as
    [p^8 ~ 4e-11]. *)

val by_name : string -> Eba.Prob.Report.t option
(** ["small"] or ["n64"]. *)
