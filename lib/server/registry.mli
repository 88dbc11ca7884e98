(** Verb registry: maps the service's compute verbs onto the existing
    engines.

    Decoding and validation run in the event loop ({!prepare}) so a bad
    request is refused {e before} it occupies a queue slot; the returned
    thunk is the expensive part and runs in a worker.  Each thunk is a
    pure function of the request params, so replies are bit-identical
    regardless of which worker runs them or in what order — the served
    [netsim-sweep] and [probcheck] results are byte-equal to the batch
    CLI's JSON for the same identity because both sides execute the same
    {!Spec} resolution.

    Admin verbs ([status], [shutdown]) are not here: they are answered
    inline by the daemon, which owns the state they report. *)

module Json = Eba_util.Json

val verbs : string list
(** The compute verbs: [netsim-sweep], [probcheck], [knowledge-query]. *)

(** What the daemon threads into a running thunk: the request's
    cancellation token (polled by the engines at run/row boundaries; a
    fired token surfaces as {!Eba_util.Cancel.Cancelled} out of the
    thunk) and, when the request opted in, a progress sink the sweep
    calls with cumulative completed-run counts. *)
type ctx = {
  cancel : Eba_util.Cancel.t;
  progress : (done_:int -> total:int -> unit) option;
}

val no_ctx : ctx
(** A fresh never-cancelled token and no progress sink — for callers
    (tests, ad-hoc tools) that just want the thunk's result. *)

val model_cache : Model_cache.t
(** The process-wide knowledge-model cache every [knowledge-query]
    [spec] thunk goes through (capacity 8). *)

val max_knowledge_runs : int
(** The served [knowledge-query] budget: a universe of more than this
    many runs ([Universe.count] patterns × [2^n] configurations, or a
    count past [max_int]) is refused by {!prepare} with a [bad-request]
    naming the count and the budget, for the [spec] and the [exhaustive]
    query alike. *)

val prepare :
  verb:string ->
  params:Json.t ->
  ( ctx -> (Json.t, string) result,
    [ `Unknown_verb | `Bad_request of string ] )
  result
(** [Ok thunk]: params decoded (and, where cheap, resolved); running
    [thunk ctx] in any domain yields the verb's result JSON.  A thunk
    [Error] is a validation failure only detectable at execution time
    (e.g. probcheck's exact analysis rejecting its timing parameters) —
    the daemon renders it as a [bad-request] reply.  Thunks raise only
    {!Eba_util.Cancel.Cancelled} by contract (the pool renders it as the
    typed [cancelled] reply, and still guards everything else with a
    typed [internal] reply). *)
