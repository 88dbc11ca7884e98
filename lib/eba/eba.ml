(** Eventual Byzantine agreement via continual common knowledge — the
    public umbrella module.

    This library reproduces Halpern, Moses & Waarts, "A Characterization of
    Eventual Byzantine Agreement" (PODC 1990): bounded models of
    synchronous systems with crash or sending-omission failures,
    full-information protocols, the knowledge operators up to {e continual
    common knowledge} [C□_S], the two-step construction of optimal EBA
    protocols, and operational implementations of every protocol the paper
    names.

    Quickstart:
    {[
      let params = Eba.Params.make ~n:3 ~t:1 ~horizon:3 ~mode:Eba.Params.Crash in
      let model  = Eba.Model.build params in
      let env    = Eba.Formula.env model in
      let optimal = Eba.Zoo.f_lambda_2 env in
      let report  = Eba.Spec.check (Eba.Kb_protocol.decide model optimal) in
      assert (Eba.Spec.is_eba report)
    ]} *)

(* foundation *)
module Bitset = Eba_util.Bitset
module Bigint = Eba_util.Bigint
module Procset = Eba_util.Procset
module Combi = Eba_util.Combi
module Parallel = Eba_util.Parallel
module Cancel = Eba_util.Cancel
module Metrics = Eba_util.Metrics
module Json = Eba_util.Json

(* synchronous substrate *)
module Value = Eba_sim.Value
module Params = Eba_sim.Params
module Config = Eba_sim.Config
module Pattern = Eba_sim.Pattern
module Universe = Eba_sim.Universe
module Decision = Eba_sim.Decision

(* full-information layer *)
module View = Eba_fip.View
module Model = Eba_fip.Model

(* epistemic engine *)
module Pset = Eba_epistemic.Pset
module Nonrigid = Eba_epistemic.Nonrigid
module Knowledge = Eba_epistemic.Knowledge
module Temporal = Eba_epistemic.Temporal
module Common = Eba_epistemic.Common
module Continual = Eba_epistemic.Continual
module Eventual = Eba_epistemic.Eventual
module Formula = Eba_epistemic.Formula

(* the paper's contribution *)
module Decision_set = Eba_core.Decision_set
module Kb_protocol = Eba_core.Kb_protocol
module Spec = Eba_core.Spec
module Dominance = Eba_core.Dominance
module Construct = Eba_core.Construct
module Characterize = Eba_core.Characterize
module Facts = Eba_core.Facts
module Zoo = Eba_core.Zoo
module Trace = Eba_core.Trace

(* operational protocols; P0opt, P0opt_plus and Chain0 each carry their
   bounded-bandwidth message codec as [Compact] *)
module Protocol_intf = Eba_protocols.Protocol_intf
module Runner = Eba_protocols.Runner
module P0 = Eba_protocols.P0
module P0opt = Eba_protocols.P0opt
module P0opt_plus = Eba_protocols.P0opt_plus
module Floodset = Eba_protocols.Floodset
module Chain0 = Eba_protocols.Chain0
module Stats = Eba_protocols.Stats

(* exact probability engine *)
module Prob = Eba_prob
(** Exact-rational failure probabilities: {!Eba_prob.Q} (normalized
    rationals over {!Eba_util.Bigint}), {!Eba_prob.Round_chain} (Markov
    analysis of a {!Eba_net.Sync} round window under per-copy loss),
    {!Eba_prob.Binomial} (exact confidence bounds for the Monte Carlo
    differential), {!Eba_prob.Report} (the [eba probcheck] payload). *)

(* network simulation *)
module Net = Eba_net
(** Discrete-event network simulator: {!Eba_net.Event_queue},
    {!Eba_net.Link}, {!Eba_net.Topology}, {!Eba_net.Inject},
    {!Eba_net.Sync}, {!Eba_net.Node}, {!Eba_net.Netsim},
    {!Eba_net.Net_stats}. *)

(* the resident agreement service *)
module Server = Eba_server
(** Agreement as a service: {!Eba_server.Frame} (length-prefixed JSON
    framing and sockets), {!Eba_server.Protocol} (request/response
    envelope with typed backpressure), {!Eba_server.Spec} (the shared
    request interpretation that makes served answers byte-identical to
    the batch CLI), {!Eba_server.Registry}, {!Eba_server.Req_queue},
    {!Eba_server.Pool}, {!Eba_server.Daemon}, {!Eba_server.Client},
    {!Eba_server.Bench_load}. *)
