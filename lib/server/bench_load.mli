(** Load generator for the daemon ([eba bench-serve]): [clients]
    concurrent connections each issuing [requests] synchronous calls,
    with per-request wall latency measured on the client side
    (monotonic clock).

    The latency distribution is reported as nearest-rank percentiles in
    microseconds, plus aggregate throughput. *)

module Json = Eba_util.Json

type result = {
  verb : string;
  clients : int;
  workers : int;
  requests : int;  (** total across all clients *)
  requests_per_client : int;
      (** the per-client count as given — carried, not re-derived by
          division, so [pp] prints the truth even for uneven totals *)
  ok : int;
  busy : int;  (** typed backpressure replies *)
  errors : int;  (** transport failures and error replies *)
  latency_samples : int;
      (** completed round-trips — the population of the latency stats.
          Requests that never completed (connect failure, broken
          connection, skipped after a break) are counted in [errors] but
          contribute {e no} latency sample; when this is [0] the
          mean/p50/p99 are reported as [0.0] over zero samples, never
          fabricated from empty slots *)
  elapsed_s : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  requests_per_sec : float;
}

val run :
  address:Frame.address ->
  clients:int ->
  requests:int ->
  verb:string ->
  params:(string * Json.t) list ->
  result
(** [requests] is per client.  Each client runs in its own domain with
    its own connection; a client that cannot connect or loses its
    connection counts its remaining calls as [errors]. *)

val run_local :
  ?workers:int ->
  ?queue_cap:int ->
  clients:int ->
  requests:int ->
  verb:string ->
  params:(string * Json.t) list ->
  unit ->
  result
(** Start an in-process daemon on an ephemeral loopback port, drive
    {!run} against it, then shut it down via the [shutdown] verb.
    What [eba bench-serve] and the CI smoke step call. *)

val result_json : result -> Json.t
(** Every field above, snake_case keys ([eba bench-serve --json]). *)

val pp : Format.formatter -> result -> unit
