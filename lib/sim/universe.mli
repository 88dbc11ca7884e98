(** Adversary universes: enumerations of failure patterns that define which
    runs exist in a bounded model.

    Knowledge is always computed {e relative to a system of runs}; these
    enumerators make the system explicit.  A universe contains every
    canonical pattern of the mode, and is what the correctness and
    optimality experiments quantify over; {!random_pattern} samples one
    for sizes past enumeration. *)

val crash_behaviours : Params.t -> proc:int -> Pattern.behaviour list
(** All canonical crash behaviours of [proc]: the in-horizon clean one plus,
    for every round and every strict subset of the other processors, the
    crash delivering exactly that subset. *)

val omission_behaviours : Params.t -> proc:int -> Pattern.behaviour list
(** All [2^(n-1)] per-round omission choices, over all rounds. *)

val behaviours_for : Params.t -> proc:int -> Pattern.behaviour list
(** The canonical behaviours of one faulty processor under the params' mode
    (the dispatcher behind the per-mode enumerators above). *)

val patterns_seq : Params.t -> Pattern.t Seq.t
(** Every pattern, streamed: for each faulty set of size [<= t], every
    combination of per-processor behaviours.  Nothing beyond the small
    per-processor behaviour lists is materialized, so exhaustive sweeps can
    consume universes far larger than memory.  The sequence is
    persistent and enumerates in a fixed, deterministic order. *)

val patterns : Params.t -> Pattern.t list
(** [List.of_seq (patterns_seq p)] — kept for callers that want the list. *)

val workload_seq : ?configs:Config.t list -> Params.t -> (Config.t * Pattern.t) Seq.t
(** The exhaustive run workload: every pattern of {!patterns_seq} paired
    with every initial configuration ([Config.all] by default), streamed in
    pattern-major order. *)

val count : Params.t -> int
(** [List.length (patterns p)] computed arithmetically, for guarding against
    accidentally huge models.  Raises [Combi.Overflow] when the count does
    not fit in a native [int] (e.g. exhaustive omission at [n >= 63], or
    crash at [n >= 63] with any horizon) instead of wrapping to a
    negative/garbage size. *)

val behaviour_count : Params.t -> int
(** Per-processor behaviour count computed arithmetically:
    [List.length (behaviours_for p ~proc)] for any [proc].  Raises
    [Combi.Overflow] like {!count}. *)

val random_pattern : Random.State.t -> Params.t -> Pattern.t
(** A uniformly-chosen-shape random pattern for the operational layer:
    failure count uniform in [0..t], then uniform behaviours.  In crash
    mode each faulty processor's behaviour is drawn as: crash round
    uniform over [1 .. horizon+1] with [horizon+1] meaning the in-horizon
    clean crash (so the clean behaviour carries weight [1/(horizon+1)] by
    design), then a uniformly random strict subset of recipients — when
    the drawn subset is everybody, one uniformly drawn recipient is
    dropped to de-alias from the clean crash. *)
