(** The request/response envelope of the agreement service.

    A {b request} frame carries one JSON object:

    {v
      {"id": <any value, echoed back>, "verb": "<verb>", "params": {...},
       "progress": <bool, optional>}
    v}

    [id] is optional (defaults to [null]) and opaque — clients that
    pipeline several requests on one connection use it to match answers.
    [params] is optional and defaults to [{}]; its schema is per-verb
    ({!Spec}).  [progress] (default [false]) opts this request into
    streaming progress frames; it lives in the envelope, not in
    [params], so per-verb parameter schemas — and the byte-identity of
    answers to progress-free requests — are untouched.

    A {b response} frame carries one JSON object in one of five shapes,
    discriminated by ["status"]:

    {v
      {"id": ..., "status": "ok",   "result": <verb-specific JSON>}
      {"id": ..., "status": "busy", "error": {"code": "busy",
        "message": ..., "queue_depth": D, "queue_cap": C}}
      {"id": ..., "status": "error", "error": {"code": <code>,
        "message": ...}}
      {"id": ..., "status": "cancelled"}
      {"id": ..., "status": "progress", "done": K_DONE, "total": K}
    v}

    [busy] is the typed backpressure reply: the bounded request queue was
    full when the request arrived.  The connection stays open and the
    client may retry; nothing was executed.  Error codes are closed
    ({!error_code}): [bad-request] (unparseable frame or params),
    [unknown-verb], [busy], [shutting-down] (the daemon is draining and
    will not start new work), [internal] (handler raised).

    [cancelled] is the terminal answer to a request aborted by the
    [cancel] verb — the work stopped at a run/row boundary and no result
    exists.  [progress] frames are {e interim}: zero or more may precede
    a request's terminal reply (only for requests that opted in), each
    carrying the cumulative count of finished runs out of the total.
    Every other status is terminal — exactly one per request. *)

module Json = Eba_util.Json

type error_code = Bad_request | Unknown_verb | Busy | Shutting_down | Internal

val code_to_string : error_code -> string
val code_of_string : string -> error_code option

type request = {
  req_id : Json.t;  (** echoed verbatim in the response; [Null] if absent *)
  verb : string;
  params : Json.t;  (** always an object; [{}] if absent *)
  want_progress : bool;  (** the envelope's ["progress"]; [false] if absent *)
}

val request_of_json : Json.t -> (request, string) result
(** Rejects non-object frames, a missing or non-string ["verb"], a
    non-object ["params"], and a non-boolean ["progress"]. *)

val request :
  ?id:Json.t ->
  ?progress:bool ->
  verb:string ->
  ?params:(string * Json.t) list ->
  unit ->
  Json.t
(** Client-side constructor for the request envelope.  [progress]
    defaults to [false], in which case the field is omitted entirely —
    a progress-free request is byte-identical to one built before the
    field existed. *)

val ok : id:Json.t -> Json.t -> Json.t
val busy : id:Json.t -> depth:int -> cap:int -> Json.t
val error : id:Json.t -> error_code -> string -> Json.t

val cancelled : id:Json.t -> Json.t
(** The terminal reply to a request aborted by the [cancel] verb. *)

val progress : id:Json.t -> done_:int -> total:int -> Json.t
(** An interim progress frame: [done_] of [total] runs finished. *)

(** Reply views, for clients and tests. *)
type reply =
  | Ok_result of Json.t
  | Busy_reply of { depth : int; cap : int }
  | Error_reply of { code : error_code; message : string }
  | Cancelled_reply
  | Progress_frame of { p_done : int; p_total : int }
      (** interim — more frames follow on the same request id *)

val reply_of_json : Json.t -> (Json.t * reply, string) result
(** [(id, reply)] of a response frame. *)

(** {1 Param accessors}

    Small total accessors for reading a params object outside the verbs'
    field tables ({!Spec}); each returns [Error] naming the field on a
    type mismatch, and [default] when the field is absent. *)

val get_int : ?default:int -> Json.t -> string -> (int, string) result
val get_string : ?default:string -> Json.t -> string -> (string, string) result
