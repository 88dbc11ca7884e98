module Json = Eba_util.Json

type job = {
  job_conn : int;
  job_key : (int * string) option;
  job_cancel : Eba_util.Cancel.t;
  response : unit -> Json.t;
  cancelled : unit -> Json.t;
  failed : string -> Json.t;
  abort : unit -> Json.t;
}

type t = {
  domains : unit Domain.t array;
  n_workers : int;
  in_flight : int Atomic.t;
  served : int Atomic.t;
}

let worker_span = Eba_util.Metrics.span "serve.request"

let run_job pool ~complete job =
  Atomic.incr pool.in_flight;
  let reply =
    (* a token fired while the job sat in the queue (racing past the
       loop's instant-cancel sweep): skip the compute entirely *)
    if Eba_util.Cancel.cancelled job.job_cancel then job.cancelled ()
    else
      match Eba_util.Metrics.time worker_span job.response with
      | json -> json
      | exception Eba_util.Cancel.Cancelled -> job.cancelled ()
      | exception e -> job.failed (Printexc.to_string e)
  in
  (* count before handing the reply over: a client holding every reply
     must never read it as still in flight *)
  Atomic.incr pool.served;
  Atomic.decr pool.in_flight;
  complete ~job reply

let create ~workers ~queue ~complete =
  if workers < 0 then invalid_arg "Pool.create: workers must be >= 0";
  let pool =
    {
      domains = [||];
      n_workers = workers;
      in_flight = Atomic.make 0;
      served = Atomic.make 0;
    }
  in
  let rec loop () =
    match Req_queue.pop queue with
    | None -> ()
    | Some job ->
        run_job pool ~complete job;
        loop ()
  in
  let domains = Array.init workers (fun _ -> Domain.spawn loop) in
  { pool with domains }

let workers pool = pool.n_workers
let in_flight pool = Atomic.get pool.in_flight
let served pool = Atomic.get pool.served
let join pool = Array.iter Domain.join pool.domains
