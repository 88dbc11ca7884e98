(** The daemon's worker pool: [workers] domains draining one
    {!Req_queue} of jobs.

    Which worker runs a job never changes the bytes of its reply — a
    job's [response] thunk is a pure function of the request (every
    engine underneath is bit-deterministic), and completed replies are
    routed back through [complete] tagged with the job they belong to,
    so scheduling only permutes {e which} reply finishes first, never
    its content.  Clients match pipelined replies by [id].

    Cancellation: each job carries its request's cooperative token.  A
    worker checks it once before starting (a token fired while the job
    was queued skips the compute entirely) and the engines underneath
    poll it at run/row boundaries, surfacing
    {!Eba_util.Cancel.Cancelled} out of [response]; either way the job
    completes with its typed [cancelled] reply instead of a result. *)

module Json = Eba_util.Json

type job = {
  job_conn : int;  (** the daemon's token for the requesting connection *)
  job_key : (int * string) option;
      (** the daemon's cancellation-tracking key [(conn, id bytes)];
          [None] for untracked (null-id) requests *)
  job_cancel : Eba_util.Cancel.t;
      (** the request's cooperative cancellation token, shared with the
          daemon's in-flight table *)
  response : unit -> Json.t;
      (** runs in a worker; must be total (the daemon wraps handler
          calls), but a raise still yields [failed message] —
          except {!Eba_util.Cancel.Cancelled}, which yields
          [cancelled ()] *)
  cancelled : unit -> Json.t;
      (** the typed [cancelled] reply for this request *)
  failed : string -> Json.t;
      (** the typed [internal] reply for this request when [response]
          raised, given the exception's text; it carries the request's
          id, so a pipelining client can tell which request failed *)
  abort : unit -> Json.t;
      (** the reply for a job the drain threw out of the queue before
          any worker started it ([shutting-down]) *)
}

type t

val create :
  workers:int ->
  queue:job Req_queue.t ->
  complete:(job:job -> Json.t -> unit) ->
  t
(** Spawns [workers] domains ([workers >= 0]).  [complete] is called
    from worker domains — it must be thread-safe (the daemon's is: a
    mutex-guarded completion list plus a self-pipe wakeup).

    [workers = 0] is accept-only mode: jobs queue up but nothing drains
    them.  It exists so tests can fill the queue to its cap
    deterministically and observe the [busy] backpressure reply (and
    the instant cancellation of queued requests). *)

val workers : t -> int

val in_flight : t -> int
(** Jobs popped by a worker whose reply is not yet computed.  A job
    leaves this count, and enters {!served}, before its reply reaches
    [complete]: by the time a client holds a reply, its job is counted
    as served and not in flight. *)

val served : t -> int
(** Jobs completed since the pool started (cancelled jobs count: their
    [cancelled] reply is a completion like any other), counted before
    each reply is handed to [complete]. *)

val join : t -> unit
(** Wait for every worker to exit.  Only returns promptly after the
    queue has been closed; in-flight jobs run to completion (and their
    replies reach [complete]) — the drain half of graceful shutdown. *)
