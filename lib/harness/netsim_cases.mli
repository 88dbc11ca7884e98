(** The pinned [eba netsim] sweeps shared by the golden test and its
    regenerator: every protocol in {!Eba.Server.Spec.protocol_names}, plus
    the compact variant where one exists, on four fabrics — constant
    latency 1.0 lossless, constant latency 1.0 with loss 0.05, uniform
    latency 0.2..1.0 with loss 0.1, and omission mode with two transient
    partitions — at two seeds, a few runs each.  Then P0opt, P0opt+ and
    Chain0 (in omission mode), each full and compact, at n = 70 — past
    one word, on [Procset.Wide] sets — on one lossy uniform fabric at one
    seed, two runs each.

    Each sweep is a [#] label line followed by its
    {!Eba.Net.Net_stats.summary_json} bytes,
    computed through {!Eba.Server.Spec.run} exactly as the CLI and the
    daemon compute them.  The summary carries every identity string
    (protocol, params, seed, plan, topology, sync), so the file pins the
    engine's per-run draw order, wire accounting and decisions. *)

val render : ?mux:Eba.Server.Spec.mux -> unit -> string
(** The whole golden document, one labelled block per sweep.  [mux] (default
    [Mux_off]) goes into every spec; every choice renders the same bytes. *)
