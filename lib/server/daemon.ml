module Json = Eba_util.Json
module Metrics = Eba_util.Metrics

type config = {
  address : Frame.address;
  workers : int;
  queue_cap : int;
  max_frame : int;
  max_conns : int;
  handle_signals : bool;
}

let default_config =
  {
    address = Frame.Unix_socket "eba.sock";
    workers = 4;
    queue_cap = 64;
    max_frame = Frame.default_max_frame;
    max_conns = 900;
    handle_signals = false;
  }

type conn = {
  fd : Unix.file_descr;
  cid : int;
  dec : Frame.decoder;
  out : string Queue.t;  (* encoded frames not yet fully on the wire *)
  mutable out_off : int;  (* bytes of the queue head already written *)
  mutable out_pending : int;  (* unwritten bytes across the whole queue *)
  mutable alive : bool;
}

(* What workers hand back to the loop.  [c_key = Some k] marks the
   final reply of tracked request [k] (the loop forgets its token);
   progress frames and untracked replies carry [None]. *)
type completion = {
  c_conn : int;
  c_key : (int * string) option;
  c_json : Json.t;
}

type state = {
  cfg : config;
  mutable listen_fd : Unix.file_descr option;
  conns : (int, conn) Hashtbl.t;
  mutable next_cid : int;
  queue : Pool.job Req_queue.t;
  mutable pool : Pool.t option;
  (* completions cross domains: workers push under the lock and nudge the
     self-pipe; only the loop thread pops and touches sockets *)
  completions : completion Queue.t;
  completions_lock : Mutex.t;
  (* (connection, id bytes) -> cancellation token for every tracked
     request accepted and not yet finally replied to.  Loop thread only;
     workers reach the tokens through their job records. *)
  inflight : (int * string, Eba_util.Cancel.t) Hashtbl.t;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  stop : bool Atomic.t;  (* set by signal handlers / the shutdown verb *)
  mutable draining : bool;
}

let requests_counter = Metrics.counter "serve.requests"
let busy_counter = Metrics.counter "serve.busy"
let cancelled_counter = Metrics.counter ~deterministic:false "serve.cancelled"

let all_verbs = Registry.verbs @ [ "cancel"; "status"; "shutdown" ]

(* --- replies (every socket write goes through here, on the loop thread) --- *)

let close_conn st conn =
  if conn.alive then begin
    conn.alive <- false;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ())
  end;
  Hashtbl.remove st.conns conn.cid;
  (* nobody is left to read the replies: fire the connection's tokens so
     its in-flight work stops at the next run boundary *)
  let stale =
    Hashtbl.fold
      (fun key token acc ->
        if fst key = conn.cid then (key, token) :: acc else acc)
      st.inflight []
  in
  List.iter
    (fun (key, token) ->
      Eba_util.Cancel.cancel token;
      Hashtbl.remove st.inflight key)
    stale

(* Connection sockets are non-blocking: a write takes whatever the kernel
   will buffer and the rest waits in [conn.out] for select writability,
   so one client that stops reading its replies can never stall the loop
   (and with it every other connection). *)
let rec flush_out st conn =
  if conn.alive && conn.out_pending > 0 then begin
    let head = Queue.peek conn.out in
    let len = String.length head - conn.out_off in
    match Unix.write_substring conn.fd head conn.out_off len with
    | wrote ->
        conn.out_pending <- conn.out_pending - wrote;
        if wrote = len then begin
          ignore (Queue.pop conn.out);
          conn.out_off <- 0;
          flush_out st conn
        end
        else conn.out_off <- conn.out_off + wrote
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()  (* kernel buffer full: the rest waits for writability *)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush_out st conn
    | exception Unix.Unix_error _ ->
        (* EPIPE (SIGPIPE is ignored — {!Frame.ignore_sigpipe}),
           ECONNRESET, ...: the peer is gone *)
        close_conn st conn
  end

(* A reader this many bytes behind is not coming back; cut it loose
   rather than buffer its replies without bound. *)
let max_reply_backlog cfg = 2 * cfg.max_frame

let send st conn json =
  if conn.alive then begin
    let frame = Frame.encode (Json.to_string json) in
    Queue.push frame conn.out;
    conn.out_pending <- conn.out_pending + String.length frame;
    flush_out st conn;
    if conn.alive && conn.out_pending > max_reply_backlog st.cfg then
      close_conn st conn
  end

(* --- completion channel (worker side is [push_completion]) --- *)

let push_completion st comp =
  Mutex.lock st.completions_lock;
  Queue.push comp st.completions;
  Mutex.unlock st.completions_lock;
  (* one nudge byte; the pipe buffer far exceeds any worker count, so
     this never blocks a worker *)
  ignore (Unix.write st.pipe_w (Bytes.make 1 '!') 0 1)

let drain_completions st =
  let pending =
    Mutex.lock st.completions_lock;
    let xs = Queue.fold (fun acc x -> x :: acc) [] st.completions in
    Queue.clear st.completions;
    Mutex.unlock st.completions_lock;
    List.rev xs
  in
  List.iter
    (fun comp ->
      (* a final reply (result, error or cancelled) retires the
         request's tracking entry whether or not the peer survived to
         read it *)
      Option.iter (Hashtbl.remove st.inflight) comp.c_key;
      match Hashtbl.find_opt st.conns comp.c_conn with
      | Some conn -> send st conn comp.c_json
      | None -> ())
    pending

(* --- progress frames --- *)

let progress_interval_ns = 50_000_000L

(* One emitter per opted-in request, called from whatever engine domains
   the sweep fans out to, hence the lock.  Emitted [done] values are
   strictly increasing and pushed in order (the push happens under the
   lock), so the client sees non-decreasing progress; the interval gate
   keeps a fast sweep from flooding the wire — except the first frame,
   which always fires so short sweeps still demonstrate liveness. *)
let progress_emitter st ~conn ~id =
  let lock = Mutex.create () in
  let last_ns = ref Int64.min_int in
  let last_done = ref 0 in
  fun ~done_ ~total ->
    if done_ > !last_done then begin
      Mutex.lock lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock lock)
        (fun () ->
          let now = Monotonic_clock.now () in
          if
            done_ > !last_done
            && (!last_ns = Int64.min_int
               || Int64.compare (Int64.sub now !last_ns) progress_interval_ns
                  >= 0)
          then begin
            last_ns := now;
            last_done := done_;
            push_completion st
              {
                c_conn = conn;
                c_key = None;
                c_json = Protocol.progress ~id ~done_ ~total;
              }
          end)
    end

(* --- dispatch --- *)

let status_result st =
  let pool_stat f = match st.pool with Some p -> f p | None -> 0 in
  Json.Obj
    [
      ("service", Json.String "eba-serve/1");
      ("verbs", Json.List (List.map (fun v -> Json.String v) all_verbs));
      ("workers", Json.Int st.cfg.workers);
      ("queue_depth", Json.Int (Req_queue.depth st.queue));
      ("queue_cap", Json.Int (Req_queue.cap st.queue));
      ("in_flight", Json.Int (pool_stat Pool.in_flight));
      ("served", Json.Int (pool_stat Pool.served));
      ("draining", Json.Bool st.draining);
    ]

(* [cancel] is an admin verb: it steers loop-owned state (the queue and
   the in-flight table), so it answers inline and is never queued — a
   saturated queue cannot delay the cancellation of what saturated it.
   Scope is the requesting connection: ids are client-chosen, so
   [(cid, id)] is the only well-defined key. *)
let dispatch_cancel st conn ~id params =
  let target =
    match params with
    | Json.Obj fields -> List.assoc_opt "target" fields
    | _ -> None
  in
  let bad_keys =
    match params with
    | Json.Obj fields -> List.exists (fun (k, _) -> k <> "target") fields
    | _ -> false
  in
  if bad_keys then
    send st conn
      (Protocol.error ~id Protocol.Bad_request
         "cancel takes exactly one param: \"target\"")
  else
    match target with
    | None | Some Json.Null ->
        send st conn
          (Protocol.error ~id Protocol.Bad_request
             "cancel requires a non-null \"target\" param (the id of the \
              request to cancel)")
    | Some target ->
        let key = (conn.cid, Json.to_string target) in
        (* fast path: still queued — yank it and answer the original
           request right now, no worker involved *)
        let removed =
          Req_queue.remove st.queue (fun (j : Pool.job) ->
              j.Pool.job_key = Some key)
        in
        let state =
          if removed <> [] then begin
            Hashtbl.remove st.inflight key;
            List.iter
              (fun (j : Pool.job) ->
                Eba_util.Cancel.cancel j.Pool.job_cancel)
              removed;
            "queued"
          end
          else
            match Hashtbl.find_opt st.inflight key with
            | Some token ->
                (* running: fire the token; the worker notices at the
                   next run/row boundary and completes with the typed
                   [cancelled] reply *)
                Eba_util.Cancel.cancel token;
                "running"
            | None -> "unknown"
        in
        if state <> "unknown" then Metrics.incr cancelled_counter;
        send st conn
          (Protocol.ok ~id
             (Json.Obj [ ("target", target); ("state", Json.String state) ]));
        (* the yanked requests' own typed replies, after the cancel's ok
           so the wire order matches the running case *)
        List.iter (fun (j : Pool.job) -> send st conn (j.Pool.cancelled ())) removed

let dispatch st conn (req : Protocol.request) =
  Metrics.incr requests_counter;
  let id = req.Protocol.req_id in
  match req.Protocol.verb with
  | "status" -> send st conn (Protocol.ok ~id (status_result st))
  | "cancel" -> dispatch_cancel st conn ~id req.Protocol.params
  | "shutdown" ->
      send st conn (Protocol.ok ~id (Json.Obj [ ("stopping", Json.Bool true) ]));
      Atomic.set st.stop true
  | verb -> (
      if st.draining then
        send st conn
          (Protocol.error ~id Protocol.Shutting_down
             "daemon is draining; not accepting new work")
      else
        match Registry.prepare ~verb ~params:req.Protocol.params with
        | Error `Unknown_verb ->
            send st conn
              (Protocol.error ~id Protocol.Unknown_verb
                 (Printf.sprintf "unknown verb %S (have: %s)" verb
                    (String.concat ", " all_verbs)))
        | Error (`Bad_request msg) ->
            send st conn (Protocol.error ~id Protocol.Bad_request msg)
        | Ok thunk ->
            (* only a non-null id can be named by a later [cancel]; a
               null-id request runs untracked, exactly as before *)
            let key =
              match id with
              | Json.Null -> None
              | _ -> Some (conn.cid, Json.to_string id)
            in
            let cancel = Eba_util.Cancel.create () in
            let progress =
              if req.Protocol.want_progress then
                Some (progress_emitter st ~conn:conn.cid ~id)
              else None
            in
            let ctx = { Registry.cancel; progress } in
            let job =
              {
                Pool.job_conn = conn.cid;
                job_key = key;
                job_cancel = cancel;
                response =
                  (fun () ->
                    match thunk ctx with
                    | Ok result -> Protocol.ok ~id result
                    | Error msg -> Protocol.error ~id Protocol.Bad_request msg);
                cancelled = (fun () -> Protocol.cancelled ~id);
                failed = (fun msg -> Protocol.error ~id Protocol.Internal msg);
                abort =
                  (fun () ->
                    Protocol.error ~id Protocol.Shutting_down
                      "daemon drained before this request started");
              }
            in
            (match Req_queue.try_push st.queue job with
            | `Ok ->
                Option.iter
                  (fun k -> Hashtbl.replace st.inflight k cancel)
                  key
            | `Full depth ->
                Metrics.incr busy_counter;
                send st conn
                  (Protocol.busy ~id ~depth ~cap:(Req_queue.cap st.queue))
            | `Closed ->
                send st conn
                  (Protocol.error ~id Protocol.Shutting_down
                     "daemon is draining; not accepting new work")))

let handle_frame st conn payload =
  match Json.parse payload with
  | Error e ->
      send st conn
        (Protocol.error ~id:Json.Null Protocol.Bad_request
           ("frame is not valid JSON: " ^ Json.error_to_string e))
  | Ok json -> (
      match Protocol.request_of_json json with
      | Error msg ->
          send st conn (Protocol.error ~id:Json.Null Protocol.Bad_request msg)
      | Ok req -> dispatch st conn req)

let read_chunk_size = 65536

let handle_readable st conn =
  let buf = Bytes.create read_chunk_size in
  match Unix.read conn.fd buf 0 read_chunk_size with
  | 0 -> close_conn st conn
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()  (* spurious wakeup / interrupted read: select will re-report *)
  | exception Unix.Unix_error _ ->
      (* ECONNRESET, ETIMEDOUT, ...: any other error on a connection
         socket means that connection, never the loop *)
      close_conn st conn
  | len ->
      Frame.feed conn.dec buf ~len;
      let rec frames () =
        if conn.alive then
          match Frame.next conn.dec with
          | Ok None -> ()
          | Ok (Some payload) ->
              handle_frame st conn payload;
              frames ()
          | Error (`Oversize n) ->
              send st conn
                (Protocol.error ~id:Json.Null Protocol.Bad_request
                   (Printf.sprintf "frame of %d bytes exceeds the %d-byte cap"
                      n st.cfg.max_frame));
              close_conn st conn
      in
      frames ()

let accept_conn st listen_fd =
  match Unix.accept listen_fd with
  | exception Unix.Unix_error _ -> ()
  | fd, _ ->
      Unix.set_close_on_exec fd;
      Unix.set_nonblock fd;
      let cid = st.next_cid in
      st.next_cid <- cid + 1;
      Hashtbl.replace st.conns cid
        {
          fd;
          cid;
          dec = Frame.decoder ~max_frame:st.cfg.max_frame ();
          out = Queue.create ();
          out_off = 0;
          out_pending = 0;
          alive = true;
        }

(* --- drain --- *)

let close_listener st =
  match st.listen_fd with
  | None -> ()
  | Some fd ->
      st.listen_fd <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (* unlink now, not at exit: a restarted daemon binds immediately
         while this one finishes its in-flight work *)
      (match st.cfg.address with
      | Frame.Unix_socket path -> (
          try Unix.unlink path with Unix.Unix_error _ -> ())
      | Frame.Tcp _ -> ())

(* Best-effort delivery of buffered replies before the final close,
   bounded by a deadline so one dead peer cannot hold up shutdown. *)
let drain_flush_deadline_ns = 5_000_000_000L

let flush_remaining st =
  let deadline = Int64.add (Monotonic_clock.now ()) drain_flush_deadline_ns in
  let rec go () =
    let waiting =
      Hashtbl.fold
        (fun _ c acc -> if c.alive && c.out_pending > 0 then c :: acc else acc)
        st.conns []
    in
    if waiting <> [] && Int64.compare (Monotonic_clock.now ()) deadline < 0
    then begin
      (match Unix.select [] (List.map (fun c -> c.fd) waiting) [] 0.1 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | _, writable, _ ->
          List.iter
            (fun c -> if List.mem c.fd writable then flush_out st c)
            waiting);
      go ()
    end
  in
  go ()

let drain st =
  st.draining <- true;
  close_listener st;
  (* every queued-but-unstarted job gets its typed reply *)
  let leftovers = Req_queue.close st.queue in
  List.iter
    (fun (job : Pool.job) ->
      push_completion st
        {
          c_conn = job.Pool.job_conn;
          c_key = job.Pool.job_key;
          c_json = job.Pool.abort ();
        })
    leftovers;
  (* in-flight jobs finish; their completions can't block because the
     pipe write is tiny and we drain everything right after the join *)
  Option.iter Pool.join st.pool;
  drain_completions st;
  flush_remaining st;
  let remaining = Hashtbl.fold (fun _ c acc -> c :: acc) st.conns [] in
  List.iter (close_conn st) remaining

(* --- the loop --- *)

(* [pipe_r] is non-blocking, so reading it dry is safe even when the
   pending nudge bytes are an exact multiple of the buffer size — a
   blocking fd would wedge the loop on that follow-up read. *)
let drain_pipe st =
  let buf = Bytes.create 256 in
  let rec go () =
    match Unix.read st.pipe_r buf 0 256 with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let serve st =
  let rec loop () =
    if Atomic.get st.stop then ()
    else begin
      let read_fds = ref [ st.pipe_r ] in
      let write_fds = ref [] in
      Hashtbl.iter
        (fun _ c ->
          if c.alive then begin
            read_fds := c.fd :: !read_fds;
            if c.out_pending > 0 then write_fds := c.fd :: !write_fds
          end)
        st.conns;
      (* stop watching the listener at the connection cap: Unix.select
         is limited to FD_SETSIZE descriptors, so accepts beyond the cap
         wait in the kernel backlog until a slot frees *)
      (match st.listen_fd with
      | Some fd when Hashtbl.length st.conns < st.cfg.max_conns ->
          read_fds := fd :: !read_fds
      | _ -> ());
      match Unix.select !read_fds !write_fds [] 1.0 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | ready_r, ready_w, _ ->
          if List.mem st.pipe_r ready_r then begin
            drain_pipe st;
            drain_completions st
          end;
          let writable_conns =
            Hashtbl.fold
              (fun _ c acc ->
                if c.alive && List.mem c.fd ready_w then c :: acc else acc)
              st.conns []
          in
          List.iter
            (fun c -> if c.alive then flush_out st c)
            writable_conns;
          (match st.listen_fd with
          | Some lfd when List.mem lfd ready_r -> accept_conn st lfd
          | _ -> ());
          let ready_conns =
            Hashtbl.fold
              (fun _ c acc ->
                if c.alive && List.mem c.fd ready_r then c :: acc else acc)
              st.conns []
          in
          List.iter (fun c -> if c.alive then handle_readable st c) ready_conns;
          loop ()
    end
  in
  loop ()

let with_signals st enabled f =
  if not enabled then f ()
  else begin
    let request_stop _ = Atomic.set st.stop true in
    let installed =
      List.map
        (fun s -> (s, Sys.signal s (Sys.Signal_handle request_stop)))
        [ Sys.sigint; Sys.sigterm ]
    in
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun (s, old) -> Sys.set_signal s old) installed)
      f
  end

let run ?on_ready cfg =
  if cfg.queue_cap < 1 then invalid_arg "Daemon.run: queue_cap must be >= 1";
  if cfg.max_conns < 1 then invalid_arg "Daemon.run: max_conns must be >= 1";
  let listen_fd = Frame.listen cfg.address in
  Unix.set_nonblock listen_fd;
  let pipe_r, pipe_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock pipe_r;
  let queue = Req_queue.create ~cap:cfg.queue_cap in
  let st =
    {
      cfg;
      listen_fd = Some listen_fd;
      conns = Hashtbl.create 16;
      next_cid = 0;
      queue;
      pool = None;
      completions = Queue.create ();
      completions_lock = Mutex.create ();
      inflight = Hashtbl.create 16;
      pipe_r;
      pipe_w;
      stop = Atomic.make false;
      draining = false;
    }
  in
  let finally () =
    close_listener st;
    (try Unix.close pipe_r with Unix.Unix_error _ -> ());
    try Unix.close pipe_w with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally (fun () ->
      with_signals st cfg.handle_signals (fun () ->
          st.pool <-
            Some
              (Pool.create ~workers:cfg.workers ~queue
                 ~complete:(fun ~job reply ->
                   push_completion st
                     {
                       c_conn = job.Pool.job_conn;
                       c_key = job.Pool.job_key;
                       c_json = reply;
                     }));
          Option.iter (fun f -> f (Frame.bound_address listen_fd cfg.address))
            on_ready;
          Fun.protect
            ~finally:(fun () -> drain st)
            (fun () -> serve st)))
