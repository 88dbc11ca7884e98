(* The resident agreement service, tested in-process: a daemon domain on
   an ephemeral loopback port (or a temp Unix socket), real sockets in
   between.

   The load-bearing claims:
   - framing survives arbitrary chunking, and oversize frames are typed
     errors, not crashes;
   - a served netsim-sweep / probcheck is byte-identical to the batch
     CLI's JSON for the same request identity, at 1 worker and at 4;
   - many simultaneous clients each get exactly their own answer;
   - a full queue yields the typed busy reply on a connection that stays
     usable, and a drain answers queued-but-unstarted work with
     shutting-down instead of dropping it;
   - a daemon restarts cleanly after both a graceful shutdown and a
     kill that left a stale socket file behind. *)

module Server = Eba.Server
module Frame = Server.Frame
module Protocol = Server.Protocol
module Spec = Server.Spec
module Client = Server.Client
module Daemon = Server.Daemon
module Req_queue = Server.Req_queue
module Json = Eba.Json
module Net = Eba.Net
open Helpers

let check_str = Alcotest.(check string)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then false
    else String.sub s i n = sub || go (i + 1)
  in
  go 0

(* --- fixtures --- *)

let with_daemon ?(workers = 2) ?(queue_cap = 64) ?max_conns ?address f =
  let address = Option.value address ~default:(Frame.Tcp 0) in
  let ready = Atomic.make None in
  let max_conns =
    Option.value max_conns ~default:Daemon.default_config.Daemon.max_conns
  in
  let cfg =
    { Daemon.default_config with address; workers; queue_cap; max_conns }
  in
  let daemon =
    Domain.spawn (fun () ->
        Daemon.run ~on_ready:(fun a -> Atomic.set ready (Some a)) cfg)
  in
  let rec wait tries =
    match Atomic.get ready with
    | Some a -> a
    | None ->
        if tries > 5000 then failwith "daemon did not come up"
        else begin
          Unix.sleepf 0.001;
          wait (tries + 1)
        end
  in
  let bound = wait 0 in
  let shutdown () =
    match Client.connect bound with
    | exception Unix.Unix_error _ -> ()
    | c ->
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () -> ignore (Client.call c ~verb:"shutdown" ()))
  in
  Fun.protect
    ~finally:(fun () ->
      shutdown ();
      Domain.join daemon)
    (fun () -> f bound)

let with_client bound f =
  let c = Client.connect bound in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let temp_socket_path () =
  let path = Filename.temp_file "eba_serve" ".sock" in
  Sys.remove path;
  path

(* What the batch CLI emits for this sweep identity ([eba netsim
   --json]): the shared [Spec] resolution, rendered by the one JSON
   emitter. *)
let cli_netsim_bytes spec =
  match Spec.resolve spec with
  | Error m -> Alcotest.failf "resolve failed: %s" m
  | Ok r -> Json.to_string (Net.Net_stats.summary_json (Spec.run r))

let served_result_bytes reply_payload =
  match Json.parse reply_payload with
  | Error e -> Alcotest.failf "reply not JSON: %s" (Json.error_to_string e)
  | Ok json -> (
      match Protocol.reply_of_json json with
      | Ok (_, Protocol.Ok_result result) -> Json.to_string result
      | Ok (_, Protocol.Busy_reply _) -> Alcotest.fail "unexpected busy reply"
      | Ok (_, Protocol.Cancelled_reply) ->
          Alcotest.fail "unexpected cancelled reply"
      | Ok (_, Protocol.Progress_frame _) ->
          Alcotest.fail "unexpected progress frame"
      | Ok (_, Protocol.Error_reply { message; _ }) ->
          Alcotest.failf "error reply: %s" message
      | Error m -> Alcotest.failf "bad reply envelope: %s" m)

let sweep_params ~seed =
  [
    ("protocol", Json.String "floodset");
    ("n", Json.Int 4);
    ("t", Json.Int 1);
    ("runs", Json.Int 5);
    ("seed", Json.Int seed);
  ]

let sweep_spec ~seed =
  { Spec.default with n = 4; t_failures = 1; runs = Some 5; seed }

(* --- framing --- *)

let frame_tests =
  [
    test "encode carries a big-endian length prefix" (fun () ->
        let f = Frame.encode "abc" in
        check_int "length" 7 (String.length f);
        check_int "prefix" 3 (Char.code f.[3]);
        check_str "payload" "abc" (String.sub f 4 3));
    test "decoder reassembles frames fed one byte at a time" (fun () ->
        let d = Frame.decoder () in
        let stream = Frame.encode "hello" ^ Frame.encode "" ^ Frame.encode "world" in
        let got = ref [] in
        String.iter
          (fun c ->
            Frame.feed d (Bytes.make 1 c) ~len:1;
            let rec drain () =
              match Frame.next d with
              | Ok (Some p) ->
                  got := p :: !got;
                  drain ()
              | Ok None -> ()
              | Error (`Oversize n) -> Alcotest.failf "oversize %d" n
            in
            drain ())
          stream;
        Alcotest.(check (list string))
          "frames" [ "hello"; ""; "world" ] (List.rev !got));
    test "decoder rejects oversize frames and stays poisoned" (fun () ->
        let d = Frame.decoder ~max_frame:8 () in
        let f = Frame.encode "123456789" in
        Frame.feed d (Bytes.of_string f) ~len:(String.length f);
        (match Frame.next d with
        | Error (`Oversize 9) -> ()
        | _ -> Alcotest.fail "expected oversize");
        match Frame.next d with
        | Error (`Oversize _) -> ()
        | _ -> Alcotest.fail "decoder must stay poisoned");
    test "request/reply envelope round trip" (fun () ->
        let req =
          Protocol.request ~id:(Json.Int 7) ~verb:"status"
            ~params:[ ("x", Json.Int 1) ] ()
        in
        match Protocol.request_of_json req with
        | Error m -> Alcotest.fail m
        | Ok r ->
            check_str "verb" "status" r.Protocol.verb;
            (match
               Protocol.reply_of_json
                 (Protocol.busy ~id:r.Protocol.req_id ~depth:3 ~cap:3)
             with
            | Ok (Json.Int 7, Protocol.Busy_reply { depth = 3; cap = 3 }) -> ()
            | _ -> Alcotest.fail "busy reply did not round-trip"));
  ]

(* --- the bounded queue --- *)

let queue_tests =
  [
    test "try_push refuses at the cap with the observed depth" (fun () ->
        let q = Req_queue.create ~cap:2 in
        check "push 1" true (Req_queue.try_push q 1 = `Ok);
        check "push 2" true (Req_queue.try_push q 2 = `Ok);
        (match Req_queue.try_push q 3 with
        | `Full 2 -> ()
        | _ -> Alcotest.fail "expected `Full 2");
        check_int "depth" 2 (Req_queue.depth q));
    test "close hands back undrained items in order" (fun () ->
        let q = Req_queue.create ~cap:4 in
        ignore (Req_queue.try_push q 1);
        ignore (Req_queue.try_push q 2);
        check "pop" true (Req_queue.pop q = Some 1);
        Alcotest.(check (list int)) "leftovers" [ 2 ] (Req_queue.close q);
        check "closed pop" true (Req_queue.pop q = None);
        check "closed push" true (Req_queue.try_push q 9 = `Closed));
  ]

(* --- the worker pool's counters --- *)

module Pool = Server.Pool

let pool_tests =
  [
    test "a job counts as served, not in flight, before its reply is handed \
          over"
      (fun () ->
        let jobs = 3 in
        let queue = Req_queue.create ~cap:jobs in
        let pool = ref None and seen = ref [] in
        (* the single worker is the only writer of [seen]; [join] below
           publishes it to this domain *)
        let complete ~job:_ _reply =
          let p = Option.get !pool in
          seen := (Pool.served p, Pool.in_flight p) :: !seen
        in
        let p = Pool.create ~workers:1 ~queue ~complete in
        pool := Some p;
        for k = 1 to jobs do
          let job =
            {
              Pool.job_conn = 0;
              job_key = None;
              job_cancel = Eba.Cancel.create ();
              response = (fun () -> Json.Int k);
              cancelled = (fun () -> Json.Null);
              failed = (fun _ -> Json.Null);
              abort = (fun () -> Json.Null);
            }
          in
          check "pushed" true (Req_queue.try_push queue job = `Ok)
        done;
        let rec wait tries =
          if Pool.served p < jobs then
            if tries > 10_000 then Alcotest.fail "jobs never completed"
            else begin
              Unix.sleepf 0.001;
              wait (tries + 1)
            end
        in
        wait 0;
        check_int "nothing left queued" 0 (List.length (Req_queue.close queue));
        Pool.join p;
        Alcotest.(check (list (pair int int)))
          "(served, in_flight) seen by the k-th completion" [ (1, 0); (2, 0); (3, 0) ]
          (List.rev !seen));
    test "a job that raises gets an internal reply carrying its request's id"
      (fun () ->
        let queue = Req_queue.create ~cap:1 in
        let reply = Atomic.make None in
        let complete ~job:_ r = Atomic.set reply (Some r) in
        let p = Pool.create ~workers:1 ~queue ~complete in
        let id = Json.String "req-7" in
        let job =
          {
            Pool.job_conn = 0;
            job_key = None;
            job_cancel = Eba.Cancel.create ();
            response = (fun () -> failwith "boom");
            cancelled = (fun () -> Json.Null);
            failed = (fun msg -> Protocol.error ~id Protocol.Internal msg);
            abort = (fun () -> Json.Null);
          }
        in
        check "pushed" true (Req_queue.try_push queue job = `Ok);
        let rec wait tries =
          match Atomic.get reply with
          | Some r -> r
          | None ->
              if tries > 10_000 then Alcotest.fail "the job never completed"
              else begin
                Unix.sleepf 0.001;
                wait (tries + 1)
              end
        in
        let r = wait 0 in
        ignore (Req_queue.close queue);
        Pool.join p;
        check_str "the request's id, the internal code and the exception's text"
          (Json.to_string
             (Protocol.error ~id Protocol.Internal (Printexc.to_string (Failure "boom"))))
          (Json.to_string r));
  ]

(* --- spec interpretation (shared CLI/daemon semantics) --- *)

let spec_tests =
  [
    test "unknown params field is an error, not a default" (fun () ->
        match Spec.of_json (Json.Obj [ ("sede", Json.Int 7) ]) with
        | Error m -> check "names the field" true (contains m "sede")
        | Ok _ -> Alcotest.fail "typo accepted");
    test "runs defaults: 100 plain, the wave size under --mux K" (fun () ->
        let r s = Result.get_ok (Spec.resolve s) in
        check_int "plain" 100 (r Spec.default).Spec.r_runs;
        let mux7 = { Spec.default with mux = Spec.Mux_live 7 } in
        check_int "mux 7" 7 (r mux7).Spec.r_runs;
        check_int "mux auto" 100
          (r { Spec.default with mux = Spec.Mux_auto }).Spec.r_runs);
    test "mux auto resolves to one; the runs default is unchanged" (fun () ->
        let r s = Result.get_ok (Spec.resolve s) in
        let auto = r { Spec.default with mux = Spec.Mux_auto } in
        check "auto = 1" true (auto.Spec.r_mux = Some 1);
        check_int "runs default" 100 auto.Spec.r_runs;
        let auto40 =
          r { (sweep_spec ~seed:3) with runs = Some 40; mux = Spec.Mux_auto }
        in
        check "auto = 1 at 40 runs" true (auto40.Spec.r_mux = Some 1);
        check_int "explicit runs" 40 auto40.Spec.r_runs);
    test "resolve refuses a latency bound at the round window, admits one below"
      (fun () ->
        let timed latency =
          Spec.resolve
            {
              Spec.default with
              n = 4;
              latency;
              rto = Some 1.0;
              round_duration = Some 4.0;
            }
        in
        (match timed (Net.Link.Const 4.0) with
        | Error m -> check ("names the window: " ^ m) true (contains m "round window 4")
        | Ok _ -> Alcotest.fail "a bound equal to the window resolved");
        match timed (Net.Link.Const 3.5) with
        | Ok r -> check "the window kept" true (r.Spec.r_sync.Net.Sync.round_duration = 4.0)
        | Error m -> Alcotest.fail m);
    test "mux auto sweep is byte-identical to explicit 16 and to off"
      (fun () ->
        let bytes mux =
          cli_netsim_bytes { (sweep_spec ~seed:11) with runs = Some 40; mux }
        in
        let auto = bytes Spec.Mux_auto in
        check_str "auto = mux 16" auto (bytes (Spec.Mux_live 16));
        check_str "auto = sequential" auto (bytes Spec.Mux_off));
  ]

(* --- served vs CLI byte identity --- *)

let differential_tests =
  let served_sweep ~workers ~seed =
    with_daemon ~workers (fun bound ->
        with_client bound (fun c ->
            match
              Client.raw_call c ~id:(Json.Int 1) ~verb:"netsim-sweep"
                ~params:(sweep_params ~seed) ()
            with
            | Ok payload -> served_result_bytes payload
            | Error m -> Alcotest.fail m))
  in
  [
    test "served sweep = CLI bytes (1 worker)" (fun () ->
        check_str "bytes" (cli_netsim_bytes (sweep_spec ~seed:5))
          (served_sweep ~workers:1 ~seed:5));
    test "served sweep = CLI bytes (4 workers)" (fun () ->
        check_str "bytes" (cli_netsim_bytes (sweep_spec ~seed:5))
          (served_sweep ~workers:4 ~seed:5));
    test "served probcheck = CLI bytes" (fun () ->
        let spec = { Spec.Probcheck.default with n = 4; loss = "0.05" } in
        let expected =
          Json.to_string
            (Eba.Prob.Report.to_json
               (Result.get_ok (Spec.Probcheck.report spec)))
        in
        with_daemon (fun bound ->
            with_client bound (fun c ->
                match
                  Client.raw_call c ~verb:"probcheck"
                    ~params:
                      [ ("n", Json.Int 4); ("loss", Json.String "0.05") ]
                    ()
                with
                | Ok payload ->
                    check_str "bytes" expected (served_result_bytes payload)
                | Error m -> Alcotest.fail m)));
    test "served knowledge-query matches the semantic layer" (fun () ->
        with_daemon (fun bound ->
            with_client bound (fun c ->
                match
                  Client.call c ~verb:"knowledge-query"
                    ~params:[ ("protocol", Json.String "p0") ]
                    ()
                with
                | Ok (_, Protocol.Ok_result (Json.Obj fields)) ->
                    check "eba" true
                      (List.assoc_opt "eba" fields = Some (Json.Bool true));
                    check "optimal" true
                      (List.assoc_opt "optimal" fields
                      = Some (Json.Bool false))
                | Ok _ -> Alcotest.fail "expected ok object"
                | Error m -> Alcotest.fail m)));
    test "bad requests are typed errors on a live connection" (fun () ->
        with_daemon (fun bound ->
            with_client bound (fun c ->
                (match
                   Client.call c ~verb:"netsim-sweep"
                     ~params:[ ("sede", Json.Int 1) ]
                     ()
                 with
                | Ok (_, Protocol.Error_reply { code = Protocol.Bad_request; _ })
                  -> ()
                | _ -> Alcotest.fail "expected bad-request");
                (match Client.call c ~verb:"frobnicate" () with
                | Ok (_, Protocol.Error_reply { code = Protocol.Unknown_verb; _ })
                  -> ()
                | _ -> Alcotest.fail "expected unknown-verb");
                match Client.call c ~verb:"status" () with
                | Ok (_, Protocol.Ok_result _) -> ()
                | _ -> Alcotest.fail "connection must survive the errors")));
  ]

(* --- concurrency --- *)

let concurrency_tests =
  [
    test "8 interleaved clients each get exactly their answer" (fun () ->
        with_daemon ~workers:4 (fun bound ->
            let expected seed = cli_netsim_bytes (sweep_spec ~seed) in
            let client seed () =
              with_client bound (fun c ->
                  match
                    Client.raw_call c ~id:(Json.Int seed) ~verb:"netsim-sweep"
                      ~params:(sweep_params ~seed) ()
                  with
                  | Ok payload -> (seed, served_result_bytes payload)
                  | Error m -> failwith m)
            in
            let domains =
              List.init 8 (fun i -> Domain.spawn (client (100 + i)))
            in
            List.iter
              (fun d ->
                let seed, got = Domain.join d in
                check_str (Printf.sprintf "seed %d" seed) (expected seed) got)
              domains));
    test "pipelined requests on one connection all come back" (fun () ->
        with_daemon ~workers:2 (fun bound ->
            with_client bound (fun c ->
                let ids = [ 1; 2; 3; 4 ] in
                List.iter
                  (fun i ->
                    Client.send c
                      (Protocol.request ~id:(Json.Int i) ~verb:"netsim-sweep"
                         ~params:(sweep_params ~seed:i) ()))
                  ids;
                let got =
                  List.map
                    (fun _ ->
                      match Client.recv_json c with
                      | Ok json -> (
                          match Protocol.reply_of_json json with
                          | Ok (Json.Int i, Protocol.Ok_result _) -> i
                          | _ -> Alcotest.fail "expected ok with int id")
                      | Error m -> Alcotest.fail m)
                    ids
                in
                Alcotest.(check (list int))
                  "all ids answered" ids (List.sort compare got))));
  ]

(* --- backpressure and drain --- *)

let backpressure_tests =
  [
    test "full queue: typed busy reply, connection stays open, drain \
          answers the queued jobs"
      (fun () ->
        (* workers:0 never drains the queue, so cap 2 fills
           deterministically: requests 1 and 2 occupy the slots, request
           3 bounces with busy, and the shutdown drain answers 1 and 2
           with shutting-down. *)
        with_daemon ~workers:0 ~queue_cap:2 (fun bound ->
            with_client bound (fun c ->
                List.iter
                  (fun i ->
                    Client.send c
                      (Protocol.request ~id:(Json.Int i) ~verb:"netsim-sweep"
                         ~params:(sweep_params ~seed:i) ()))
                  [ 1; 2; 3 ];
                (match Client.recv_json c with
                | Ok json -> (
                    match Protocol.reply_of_json json with
                    | Ok (Json.Int 3, Protocol.Busy_reply { depth = 2; cap = 2 })
                      -> ()
                    | _ -> Alcotest.fail "expected busy for request 3")
                | Error m -> Alcotest.fail m);
                (* the connection survived: an admin verb still answers *)
                Client.send c
                  (Protocol.request ~id:(Json.Int 9) ~verb:"status" ());
                (match Client.recv_json c with
                | Ok json -> (
                    match Protocol.reply_of_json json with
                    | Ok (Json.Int 9, Protocol.Ok_result (Json.Obj fields)) ->
                        check "queue_depth" true
                          (List.assoc_opt "queue_depth" fields
                          = Some (Json.Int 2))
                    | _ -> Alcotest.fail "expected status ok")
                | Error m -> Alcotest.fail m);
                (* drain: the two queued jobs get shutting-down replies *)
                Client.send c
                  (Protocol.request ~id:(Json.Int 10) ~verb:"shutdown" ());
                let replies =
                  List.map
                    (fun _ ->
                      match Client.recv_json c with
                      | Ok json -> Result.get_ok (Protocol.reply_of_json json)
                      | Error m -> Alcotest.fail m)
                    [ (); (); () ]
                in
                let aborted =
                  List.filter_map
                    (function
                      | ( Json.Int i,
                          Protocol.Error_reply
                            { code = Protocol.Shutting_down; _ } ) ->
                          Some i
                      | _ -> None)
                    replies
                in
                Alcotest.(check (list int))
                  "queued jobs answered on drain" [ 1; 2 ]
                  (List.sort compare aborted))));
  ]

(* --- misbehaving peers: the daemon must outlive its clients --- *)

let robustness_tests =
  [
    test "a client that closes before reading its reply cannot kill the \
          daemon"
      (fun () ->
        (* status is answered inline, so the reply write lands on a peer
           that already closed: with the default signal disposition that
           is SIGPIPE and instant death, with it ignored it is an EPIPE
           handled as a connection close *)
        let path = temp_socket_path () in
        with_daemon ~address:(Frame.Unix_socket path) (fun bound ->
            for i = 1 to 5 do
              let c = Client.connect bound in
              Client.send c
                (Protocol.request ~id:(Json.Int i) ~verb:"status" ());
              Client.close c
            done;
            Unix.sleepf 0.05;
            with_client bound (fun c ->
                match Client.call c ~verb:"status" () with
                | Ok (_, Protocol.Ok_result _) -> ()
                | _ -> Alcotest.fail "daemon died after an early disconnect")));
    test "a slow reader is buffered per connection, not allowed to stall \
          the loop"
      (fun () ->
        (* pipeline far more replies than a unix-socket buffer holds
           without reading any; the daemon must keep serving another
           client meanwhile, then deliver every reply in order *)
        let path = temp_socket_path () in
        with_daemon ~address:(Frame.Unix_socket path) (fun bound ->
            with_client bound (fun slow ->
                let n = 3000 in
                for i = 1 to n do
                  Client.send slow
                    (Protocol.request ~id:(Json.Int i) ~verb:"status" ())
                done;
                with_client bound (fun c ->
                    match Client.call c ~verb:"status" () with
                    | Ok (_, Protocol.Ok_result _) -> ()
                    | _ ->
                        Alcotest.fail
                          "daemon stalled behind a backlogged peer");
                for i = 1 to n do
                  match Client.recv_json slow with
                  | Ok json -> (
                      match Protocol.reply_of_json json with
                      | Ok (Json.Int j, Protocol.Ok_result _) when j = i -> ()
                      | _ -> Alcotest.failf "reply %d: wrong id or kind" i)
                  | Error m -> Alcotest.failf "reply %d: %s" i m
                done)));
    test "accepts beyond max_conns wait in the backlog until a slot frees"
      (fun () ->
        with_daemon ~max_conns:1 (fun bound ->
            let first = Client.connect bound in
            (match Client.call first ~verb:"status" () with
            | Ok (_, Protocol.Ok_result _) -> ()
            | _ -> Alcotest.fail "first client refused");
            let second = Client.connect bound in
            Fun.protect
              ~finally:(fun () -> Client.close second)
              (fun () ->
                Client.send second
                  (Protocol.request ~id:(Json.Int 2) ~verb:"status" ());
                (* only closing the first connection frees its slot and
                   lets the daemon accept (and answer) the second *)
                Client.close first;
                match Client.recv_json second with
                | Ok json -> (
                    match Protocol.reply_of_json json with
                    | Ok (Json.Int 2, Protocol.Ok_result _) -> ()
                    | _ -> Alcotest.fail "expected status ok for request 2")
                | Error m -> Alcotest.fail m)));
  ]

(* --- restart and stale sockets --- *)

let restart_tests =
  [
    test "stale socket file from a killed daemon is recovered" (fun () ->
        let path = temp_socket_path () in
        (* a bind+close without unlink is exactly what a SIGKILLed daemon
           leaves behind: the file exists, connects are refused *)
        let dead = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind dead (Unix.ADDR_UNIX path);
        Unix.listen dead 1;
        Unix.close dead;
        check "litter exists" true (Sys.file_exists path);
        let fd = Frame.listen (Frame.Unix_socket path) in
        Fun.protect
          ~finally:(fun () ->
            Unix.close fd;
            try Unix.unlink path with Unix.Unix_error _ -> ())
          (fun () -> check "rebound" true (Sys.file_exists path)));
    test "a live daemon's socket is never stolen" (fun () ->
        let path = temp_socket_path () in
        with_daemon ~address:(Frame.Unix_socket path) (fun _ ->
            match Frame.listen (Frame.Unix_socket path) with
            | fd ->
                Unix.close fd;
                Alcotest.fail "second daemon bound a live socket"
            | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ()));
    test "a non-socket file is never unlinked" (fun () ->
        let path = Filename.temp_file "eba_serve" ".notasock" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            (match Frame.listen (Frame.Unix_socket path) with
            | fd ->
                Unix.close fd;
                Alcotest.fail "bound over a regular file"
            | exception Invalid_argument _ -> ());
            check "file untouched" true (Sys.file_exists path)));
    test "graceful shutdown unlinks the socket; restart binds it again"
      (fun () ->
        let path = temp_socket_path () in
        let serve_once () =
          with_daemon ~address:(Frame.Unix_socket path) (fun bound ->
              with_client bound (fun c ->
                  match Client.call c ~verb:"status" () with
                  | Ok (_, Protocol.Ok_result _) -> ()
                  | _ -> Alcotest.fail "status failed"))
        in
        serve_once ();
        check "socket unlinked after drain" false (Sys.file_exists path);
        (* the restart-after-kill scenario, end to end *)
        serve_once ());
  ]

(* --- cancellation --- *)

(* Big enough that an uncancelled sweep runs for tens of seconds — the
   test only finishes promptly because the fired token stops the worker
   at a run boundary. *)
let huge_sweep_params ~seed =
  [
    ("protocol", Json.String "floodset");
    ("n", Json.Int 4);
    ("t", Json.Int 1);
    ("runs", Json.Int 20_000_000);
    ("seed", Json.Int seed);
  ]

let wait_in_flight bound ~want =
  with_client bound (fun admin ->
      let rec wait tries =
        if tries > 5000 then Alcotest.fail "request never reached a worker"
        else
          match Client.call admin ~verb:"status" () with
          | Ok (_, Protocol.Ok_result (Json.Obj fields)) ->
              if List.assoc_opt "in_flight" fields = Some (Json.Int want) then
                ()
              else begin
                Unix.sleepf 0.001;
                wait (tries + 1)
              end
          | _ -> Alcotest.fail "status failed"
      in
      wait 0)

let cancel_state fields =
  match List.assoc_opt "state" fields with
  | Some (Json.String s) -> s
  | _ -> Alcotest.fail "cancel reply without a state"

let cancel_mid_sweep ~workers () =
  with_daemon ~workers (fun bound ->
      with_client bound (fun c ->
          Client.send c
            (Protocol.request ~id:(Json.Int 1) ~verb:"netsim-sweep"
               ~params:(huge_sweep_params ~seed:1) ());
          wait_in_flight bound ~want:1;
          (match
             Client.call c ~id:(Json.Int 2) ~verb:"cancel"
               ~params:[ ("target", Json.Int 1) ]
               ()
           with
          | Ok (Json.Int 2, Protocol.Ok_result (Json.Obj fields)) ->
              check_str "state" "running" (cancel_state fields)
          | _ -> Alcotest.fail "cancel did not return ok");
          match Client.recv_json c with
          | Ok json -> (
              match Protocol.reply_of_json json with
              | Ok (Json.Int 1, Protocol.Cancelled_reply) -> ()
              | _ -> Alcotest.fail "expected a cancelled reply for id 1")
          | Error m -> Alcotest.fail m))

let cancellation_tests =
  [
    test "cancel mid-sweep stops the worker, typed cancelled reply (1 \
          worker)"
      (cancel_mid_sweep ~workers:1);
    test "cancel mid-sweep stops the worker, typed cancelled reply (4 \
          workers)"
      (cancel_mid_sweep ~workers:4);
    test "cancelling a queued request answers it instantly, no worker \
          involved"
      (fun () ->
        (* workers:0 never pops, so the request is provably still queued
           when the cancel lands — the reply must come from the loop's
           queue sweep, not from a worker noticing the token *)
        with_daemon ~workers:0 ~queue_cap:4 (fun bound ->
            with_client bound (fun c ->
                Client.send c
                  (Protocol.request ~id:(Json.Int 1) ~verb:"netsim-sweep"
                     ~params:(sweep_params ~seed:1) ());
                (match
                   Client.call c ~id:(Json.Int 2) ~verb:"cancel"
                     ~params:[ ("target", Json.Int 1) ]
                     ()
                 with
                | Ok (Json.Int 2, Protocol.Ok_result (Json.Obj fields)) ->
                    check_str "state" "queued" (cancel_state fields)
                | _ -> Alcotest.fail "cancel did not return ok");
                (match Client.recv_json c with
                | Ok json -> (
                    match Protocol.reply_of_json json with
                    | Ok (Json.Int 1, Protocol.Cancelled_reply) -> ()
                    | _ -> Alcotest.fail "expected cancelled reply for id 1")
                | Error m -> Alcotest.fail m);
                (* the slot was really freed: the queue accepts new work *)
                match Client.call c ~id:(Json.Int 3) ~verb:"status" () with
                | Ok (_, Protocol.Ok_result (Json.Obj fields)) ->
                    check "queue empty again" true
                      (List.assoc_opt "queue_depth" fields = Some (Json.Int 0))
                | _ -> Alcotest.fail "status failed")));
    test "cancelling an unknown or finished id reports state unknown"
      (fun () ->
        with_daemon (fun bound ->
            with_client bound (fun c ->
                match
                  Client.call c ~id:(Json.Int 1) ~verb:"cancel"
                    ~params:[ ("target", Json.Int 99) ]
                    ()
                with
                | Ok (Json.Int 1, Protocol.Ok_result (Json.Obj fields)) ->
                    check_str "state" "unknown" (cancel_state fields)
                | _ -> Alcotest.fail "cancel did not return ok")));
    test "cancel without a target is a typed bad-request" (fun () ->
        with_daemon (fun bound ->
            with_client bound (fun c ->
                match Client.call c ~verb:"cancel" () with
                | Ok (_, Protocol.Error_reply { code = Protocol.Bad_request; _ })
                  -> ()
                | _ -> Alcotest.fail "expected bad-request")));
  ]

(* --- streaming progress --- *)

let progress_tests =
  [
    test "call_stream: >=1 progress frame, non-decreasing, final bytes = \
          CLI bytes"
      (fun () ->
        with_daemon ~workers:1 (fun bound ->
            with_client bound (fun c ->
                let frames = ref [] in
                match
                  Client.call_stream c ~id:(Json.Int 1)
                    ~on_progress:(fun ~done_ ~total ->
                      frames := (done_, total) :: !frames)
                    ~verb:"netsim-sweep"
                    ~params:(sweep_params ~seed:5)
                    ()
                with
                | Ok (Json.Int 1, Protocol.Ok_result result) ->
                    let frames = List.rev !frames in
                    check "at least one frame" true (List.length frames >= 1);
                    let dones = List.map fst frames in
                    check "non-decreasing" true
                      (List.sort compare dones = dones);
                    List.iter
                      (fun (d, total) ->
                        check "total is the run count" true (total = 5);
                        check "done within total" true (d >= 1 && d <= total))
                      frames;
                    check_str "final result bytes"
                      (cli_netsim_bytes (sweep_spec ~seed:5))
                      (Json.to_string result)
                | Ok _ -> Alcotest.fail "expected ok result"
                | Error m -> Alcotest.fail m)));
    test "progress is opt-in: a plain call sees exactly one reply frame"
      (fun () ->
        with_daemon ~workers:1 (fun bound ->
            with_client bound (fun c ->
                (match
                   Client.call c ~id:(Json.Int 1) ~verb:"netsim-sweep"
                     ~params:(sweep_params ~seed:5) ()
                 with
                | Ok (Json.Int 1, Protocol.Ok_result _) -> ()
                | _ -> Alcotest.fail "expected ok");
                (* any stray progress frame would come back as the reply
                   to this status probe and trip the id check *)
                match Client.call c ~id:(Json.Int 2) ~verb:"status" () with
                | Ok (Json.Int 2, Protocol.Ok_result _) -> ()
                | _ -> Alcotest.fail "unexpected extra frame on the wire")));
    test "progress envelope flag round-trips; frames parse back" (fun () ->
        let req =
          Protocol.request ~id:(Json.Int 3) ~progress:true ~verb:"netsim-sweep"
            ()
        in
        (match Protocol.request_of_json req with
        | Ok r -> check "want_progress" true r.Protocol.want_progress
        | Error m -> Alcotest.fail m);
        (match
           Protocol.reply_of_json
             (Protocol.progress ~id:(Json.Int 3) ~done_:7 ~total:9)
         with
        | Ok (Json.Int 3, Protocol.Progress_frame { p_done = 7; p_total = 9 })
          -> ()
        | _ -> Alcotest.fail "progress frame did not round-trip");
        match Protocol.reply_of_json (Protocol.cancelled ~id:(Json.Int 3)) with
        | Ok (Json.Int 3, Protocol.Cancelled_reply) -> ()
        | _ -> Alcotest.fail "cancelled reply did not round-trip");
  ]

(* --- the knowledge-model cache --- *)

module Model_cache = Server.Model_cache
module Registry = Server.Registry
module Params = Eba.Params

let cache_key ~n ~horizon =
  Params.make ~n ~t:1 ~horizon ~mode:Params.Crash

let knowledge_params ?jobs () =
  [
    ("protocol", Json.String "p0");
    ("n", Json.Int 4);
    ("t", Json.Int 1);
    ("horizon", Json.Int 3);
  ]
  @ match jobs with Some j -> [ ("jobs", Json.Int j) ] | None -> []

let raw_knowledge c ?jobs ~id () =
  match
    Client.raw_call c ~id:(Json.Int id) ~verb:"knowledge-query"
      ~params:(knowledge_params ?jobs ()) ()
  with
  | Ok payload -> payload
  | Error m -> Alcotest.fail m

let cache_tests =
  [
    test "find_or_build: one build per key, warm lookups share the model"
      (fun () ->
        let cache = Model_cache.create ~capacity:4 () in
        let builds = ref 0 in
        let build p = incr builds; Eba.Model.build p in
        let key = cache_key ~n:3 ~horizon:2 in
        let m1 = Model_cache.find_or_build cache key build in
        let m2 = Model_cache.find_or_build cache key build in
        check_int "one build" 1 !builds;
        check "physically shared" true (m1 == m2);
        let s = Model_cache.stats cache in
        check_int "hits" 1 s.Model_cache.s_hits;
        check_int "misses" 1 s.Model_cache.s_misses;
        check_int "entries" 1 s.Model_cache.s_entries);
    test "LRU eviction at capacity drops the least-recent key" (fun () ->
        let cache = Model_cache.create ~capacity:2 () in
        let build p = Eba.Model.build p in
        let a = cache_key ~n:3 ~horizon:1 in
        let b = cache_key ~n:3 ~horizon:2 in
        let c = cache_key ~n:4 ~horizon:1 in
        ignore (Model_cache.find_or_build cache a build);
        ignore (Model_cache.find_or_build cache b build);
        (* touch [a] so [b] is now least-recent *)
        check "a findable" true (Model_cache.find cache a <> None);
        ignore (Model_cache.find_or_build cache c build);
        check_int "capacity held" 2 (Model_cache.length cache);
        check "a survives" true (Model_cache.mem cache a);
        check "b evicted" false (Model_cache.mem cache b);
        check "c resident" true (Model_cache.mem cache c));
    test "workers racing the same key build it exactly once" (fun () ->
        let cache = Model_cache.create ~capacity:4 () in
        let builds = Atomic.make 0 in
        let key = cache_key ~n:4 ~horizon:3 in
        let build p =
          Atomic.incr builds;
          (* widen the race window: every domain reaches find_or_build
             while the first build is still running *)
          Unix.sleepf 0.05;
          Eba.Model.build p
        in
        let domains =
          List.init 4 (fun _ ->
              Domain.spawn (fun () -> Model_cache.find_or_build cache key build))
        in
        let models = List.map Domain.join domains in
        check_int "exactly one build" 1 (Atomic.get builds);
        (match models with
        | first :: rest ->
            List.iter
              (fun m -> check "all share the one model" true (m == first))
              rest
        | [] -> assert false);
        let s = Model_cache.stats cache in
        check_int "deterministic misses" 1 s.Model_cache.s_misses;
        check_int "deterministic hits" 3 s.Model_cache.s_hits);
    test "a failed build releases the slot instead of wedging waiters"
      (fun () ->
        let cache = Model_cache.create ~capacity:4 () in
        let key = cache_key ~n:3 ~horizon:2 in
        (match
           Model_cache.find_or_build cache key (fun _ -> failwith "boom")
         with
        | _ -> Alcotest.fail "expected the build failure to propagate"
        | exception Failure _ -> ());
        (* the key is buildable again — no stale Building slot *)
        let m = Model_cache.find_or_build cache key Eba.Model.build in
        check "recovered" true (Model_cache.mem cache key);
        ignore m);
    test "clear drops entries and zeroes the counters" (fun () ->
        let cache = Model_cache.create ~capacity:4 () in
        let key = cache_key ~n:3 ~horizon:2 in
        ignore (Model_cache.find_or_build cache key Eba.Model.build);
        ignore (Model_cache.find_or_build cache key Eba.Model.build);
        Model_cache.clear cache;
        check_int "no entries" 0 (Model_cache.length cache);
        let s = Model_cache.stats cache in
        check_int "hits zeroed" 0 s.Model_cache.s_hits;
        check_int "misses zeroed" 0 s.Model_cache.s_misses);
  ]

(* The served bytes of [name] in the golden file's [universe] section. *)
let golden_served ~universe name =
  let doc = read_file "golden/knowledge_query.expected" in
  let rec find ~from sub =
    if from + String.length sub > String.length doc then
      Alcotest.failf "%S not in knowledge_query.expected" sub
    else if String.sub doc from (String.length sub) = sub then from
    else find ~from:(from + 1) sub
  in
  let section = find ~from:0 ("# " ^ universe ^ "\n") in
  let head = "\n" ^ name ^ "\n  served: " in
  let start = find ~from:section head + String.length head in
  String.sub doc start (find ~from:start "\n  optimality_failures:" - start)

let shared_state_tests =
  [
    test "two domains share cached models and the 0-chain table: golden bytes"
      (fun () ->
        Model_cache.clear Registry.model_cache;
        let cases =
          [ ("chain0", 3, 1, 3, "omission"); ("f-lambda-2", 4, 1, 3, "crash") ]
        in
        let prepared =
          List.map
            (fun (name, n, t, horizon, mode) ->
              let params =
                Json.Obj
                  [
                    ("protocol", Json.String name);
                    ("n", Json.Int n);
                    ("t", Json.Int t);
                    ("horizon", Json.Int horizon);
                    ("mode", Json.String mode);
                  ]
              in
              match Registry.prepare ~verb:"knowledge-query" ~params with
              | Ok thunk -> (name, Printf.sprintf "%s n=%d t=%d T=%d" mode n t horizon, thunk)
              | Error _ -> Alcotest.fail ("refused: " ^ name))
            cases
        in
        (* both domains query both universes at once, in the same order,
           so they wait on one build each and race to fill the one
           omission model's 0-chain table *)
        let run () =
          List.map
            (fun (name, universe, thunk) ->
              match thunk Registry.no_ctx with
              | Ok json -> (name, universe, Json.to_string json)
              | Error m -> failwith m)
            prepared
        in
        let results = List.concat_map Domain.join (List.init 2 (fun _ -> Domain.spawn run)) in
        List.iter
          (fun (name, universe, bytes) ->
            check_str (name ^ " at " ^ universe) (golden_served ~universe name) bytes)
          results;
        check_int "one build per universe" 2
          (Model_cache.stats Registry.model_cache).Model_cache.s_misses);
  ]

let served_cache_tests =
  let warm_vs_cold ~workers () =
    Model_cache.clear Registry.model_cache;
    with_daemon ~workers (fun bound ->
        with_client bound (fun c ->
            let cold = raw_knowledge c ~id:1 () in
            let warm = raw_knowledge c ~id:2 () in
            check_str "warm bytes = cold bytes"
              (served_result_bytes cold)
              (served_result_bytes warm);
            (* the warm request skipped Model.build entirely *)
            let s = Model_cache.stats Registry.model_cache in
            check_int "one miss (the cold build)" 1 s.Model_cache.s_misses;
            check_int "one hit (the warm reuse)" 1 s.Model_cache.s_hits))
  in
  [
    test "served warm knowledge-query = cold bytes, build skipped (1 worker)"
      (warm_vs_cold ~workers:1);
    test "served warm knowledge-query = cold bytes, build skipped (4 \
          workers)"
      (warm_vs_cold ~workers:4);
    test "served jobs:1 and jobs:4 cold builds are byte-identical" (fun () ->
        with_daemon ~workers:2 (fun bound ->
            with_client bound (fun c ->
                Model_cache.clear Registry.model_cache;
                let j1 = raw_knowledge c ~jobs:1 ~id:1 () in
                Model_cache.clear Registry.model_cache;
                let j4 = raw_knowledge c ~jobs:4 ~id:2 () in
                (* [clear] zeroed the counters between the two, so the
                   jobs:4 request must itself have been a cold build *)
                let s = Model_cache.stats Registry.model_cache in
                check_int "jobs:4 was a cold build" 1 s.Model_cache.s_misses;
                check_int "no warm reuse" 0 s.Model_cache.s_hits;
                check_str "bytes agree" (served_result_bytes j1)
                  (served_result_bytes j4))));
    test "4 clients racing one key: deterministic 1 miss / 3 hits at 4 \
          workers"
      (fun () ->
        Model_cache.clear Registry.model_cache;
        with_daemon ~workers:4 (fun bound ->
            let client () =
              with_client bound (fun c ->
                  served_result_bytes (raw_knowledge c ~id:1 ()))
            in
            let domains = List.init 4 (fun _ -> Domain.spawn client) in
            let replies = List.map Domain.join domains in
            (match replies with
            | first :: rest ->
                List.iter (fun r -> check_str "same bytes" first r) rest
            | [] -> assert false);
            let s = Model_cache.stats Registry.model_cache in
            check_int "misses" 1 s.Model_cache.s_misses;
            check_int "hits" 3 s.Model_cache.s_hits));
  ]

(* --- served job counts --- *)

(* A peer's "jobs" is clamped to the host's domains; the reply bytes are
   those of jobs:1.  The huge count runs first, after a cache clear, so
   the knowledge-query spec case pays a cold Model.build under it (the
   build itself ignores the count and spawns nothing). *)
let served_jobs_tests =
  let result_bytes ~verb params =
    match Registry.prepare ~verb ~params:(Json.Obj params) with
    | Error _ -> Alcotest.fail "request refused"
    | Ok thunk -> (
        match thunk Registry.no_ctx with
        | Ok json -> Json.to_string json
        | Error m -> Alcotest.fail m)
  in
  let case name ~verb params =
    test (Printf.sprintf "served %s: jobs 100000 is clamped, bytes = jobs 1" name)
      (fun () ->
        let with_jobs j = params @ [ ("jobs", Json.Int j) ] in
        Model_cache.clear Registry.model_cache;
        let huge, spawned =
          with_metrics (fun () ->
              let bytes = result_bytes ~verb (with_jobs 100_000) in
              (bytes, counter_value "parallel.domains_spawned"))
        in
        Model_cache.clear Registry.model_cache;
        check_str "bytes" (result_bytes ~verb (with_jobs 1)) huge;
        check
          (Printf.sprintf "%d domains spawned, at most available - 1" spawned)
          true
          (spawned <= Eba.Parallel.available () - 1))
  in
  [
    case "netsim-sweep" ~verb:"netsim-sweep"
      [
        ("protocol", Json.String "floodset");
        ("n", Json.Int 4);
        ("t", Json.Int 1);
        ("runs", Json.Int 200);
      ];
    case "knowledge-query spec" ~verb:"knowledge-query" (knowledge_params ());
    case "knowledge-query exhaustive" ~verb:"knowledge-query"
      [
        ("query", Json.String "exhaustive");
        ("protocol", Json.String "floodset");
        ("n", Json.Int 3);
        ("t", Json.Int 1);
        ("horizon", Json.Int 2);
      ];
  ]

(* --- the load generator's latency accounting --- *)

module Bench_load = Server.Bench_load

let bench_tests =
  [
    test "bench load: failed requests contribute no latency samples"
      (fun () ->
        (* nothing listens here, so every connect fails: all requests are
           errors and the latency population must be empty — not a pile
           of fabricated zeros dragging the percentiles down *)
        let address = Frame.Unix_socket (temp_socket_path ()) in
        let r =
          Bench_load.run ~address ~clients:2 ~requests:5 ~verb:"status"
            ~params:[]
        in
        check_int "all errors" 10 r.Bench_load.errors;
        check_int "no ok" 0 r.Bench_load.ok;
        check_int "no samples" 0 r.Bench_load.latency_samples;
        check_int "requests" 10 r.Bench_load.requests;
        check_int "requests_per_client" 5 r.Bench_load.requests_per_client;
        let pp = Format.asprintf "%a" Bench_load.pp r in
        check "pp shows per-client requests" true
          (contains pp "2 clients x 5 requests");
        check "pp shows the sample count" true (contains pp "(0 samples)"));
    test "bench load against a live daemon: every sample is a completed \
          round-trip"
      (fun () ->
        let r =
          Bench_load.run_local ~workers:2 ~clients:2 ~requests:10
            ~verb:"status" ~params:[] ()
        in
        check_int "all ok" 20 r.Bench_load.ok;
        check_int "samples = completions" 20 r.Bench_load.latency_samples;
        check "positive mean" true (r.Bench_load.mean_us > 0.0);
        (* a compute verb, and a knowledge-query whose first request builds
           its model: every request still gets exactly one typed reply *)
        Model_cache.clear Registry.model_cache;
        List.iter
          (fun (verb, params) ->
            let r =
              Bench_load.run_local ~workers:2 ~clients:2 ~requests:5 ~verb ~params
                ()
            in
            check_int (verb ^ ": requests = clients x requests") 10
              r.Bench_load.requests;
            check_int (verb ^ ": no errors") 0 r.Bench_load.errors;
            check (verb ^ ": some ok") true (r.Bench_load.ok > 0);
            check_int (verb ^ ": ok + busy = requests") r.Bench_load.requests
              (r.Bench_load.ok + r.Bench_load.busy);
            check_int (verb ^ ": samples = replies")
              (r.Bench_load.ok + r.Bench_load.busy)
              r.Bench_load.latency_samples;
            check (verb ^ ": 0 < p50 <= p99") true
              (0.0 < r.Bench_load.p50_us && r.Bench_load.p50_us <= r.Bench_load.p99_us);
            check (verb ^ ": positive throughput") true
              (r.Bench_load.requests_per_sec > 0.0))
          [
            ( "netsim-sweep",
              [
                ("protocol", Json.String "floodset");
                ("n", Json.Int 4);
                ("t", Json.Int 1);
                ("runs", Json.Int 10);
              ] );
            ( "knowledge-query",
              [
                ("protocol", Json.String "p0");
                ("n", Json.Int 4);
                ("t", Json.Int 1);
                ("horizon", Json.Int 3);
              ] );
          ]);
  ]

(* The daemon's queue depth, in-flight count and served count, from a
   status request; [idle] is a daemon that has run nothing. *)
let queue_counts c =
  match Client.call c ~verb:"status" () with
  | Ok (_, Protocol.Ok_result (Json.Obj fields)) ->
      List.map
        (fun k -> (k, List.assoc_opt k fields))
        [ "queue_depth"; "in_flight"; "served" ]
  | _ -> Alcotest.fail "status failed"

let idle =
  [ ("queue_depth", Some (Json.Int 0)); ("in_flight", Some (Json.Int 0)); ("served", Some (Json.Int 0)) ]

(* --- served wave-size validation --- *)

let served_mux_tests =
  [
    test "a served mux below 1 is refused for its wave size, with or without runs"
      (fun () ->
        with_daemon (fun bound ->
            with_client bound (fun c ->
                List.iter
                  (fun params ->
                    match Client.call c ~verb:"netsim-sweep" ~params () with
                    | Ok
                        ( _,
                          Protocol.Error_reply
                            { code = Protocol.Bad_request; message } ) ->
                        check_str "names the wave size"
                          "mux wave size must be >= 1" message
                    | _ -> Alcotest.fail "expected bad-request")
                  [
                    [ ("mux", Json.Int 0) ];
                    [ ("mux", Json.Int (-3)) ];
                    [ ("mux", Json.Int 0); ("runs", Json.Int 5) ];
                  ])));
    test "a sweep whose latency bound exceeds its round window is refused before the queue, counts unchanged"
      (fun () ->
        with_daemon ~workers:1 (fun bound ->
            with_client bound (fun c ->
                check "idle before" true (queue_counts c = idle);
                let const5 =
                  [
                    ("n", Json.Int 4);
                    ("latency", Json.String "const:5");
                    ("rto", Json.Float 1.0);
                    ("round_duration", Json.Float 4.0);
                  ]
                in
                List.iter
                  (fun (verb, params) ->
                    match Client.call c ~verb ~params () with
                    | Ok
                        ( _,
                          Protocol.Error_reply
                            { code = Protocol.Bad_request; message } ) ->
                        check ("names the window: " ^ message) true
                          (contains message "does not fit the round window 4")
                    | _ -> Alcotest.fail (verb ^ ": expected bad-request"))
                  [
                    ("netsim-sweep", const5);
                    ( "netsim-sweep",
                      [
                        ("latency", Json.String "uniform:0.5,4");
                        ("rto", Json.Float 0.5);
                        ("round_duration", Json.Float 4.0);
                      ] );
                    ("probcheck", const5);
                  ];
                check "no worker ran them" true (queue_counts c = idle))));
  ]

(* --- served probcheck validation --- *)

let served_prob_tests =
  [
    test "a served probcheck whose message count overflows is a bad-request"
      (fun () ->
        with_daemon (fun bound ->
            with_client bound (fun c ->
                match
                  Client.call c ~verb:"probcheck"
                    ~params:[ ("n", Json.Int 2790935979167403064) ]
                    ()
                with
                | Ok
                    ( _,
                      Protocol.Error_reply { code = Protocol.Bad_request; message }
                    ) ->
                    check "names the overflow" true
                      (contains message "overflow")
                | _ -> Alcotest.fail "expected bad-request")));
    test "an oversize probcheck is refused before the queue, counts unchanged"
      (fun () ->
        with_daemon ~workers:1 (fun bound ->
            with_client bound (fun c ->
                let counts () = queue_counts c in
                check "idle before" true (counts () = idle);
                (* Report.power_bits: 35-bit bases (q = 1/25600000000) at
                   n = 128, 17 rounds, 8 attempts: 16256 * 35 * (3 * 8 + 4 +
                   2 * 17) bits; at n = 490, t = 0 the landing rows alone
                   weigh 239610 * 35 * (3 * 8 + 4 + 2) *)
                let uniform n t =
                  [
                    ("n", Json.Int n);
                    ("t", Json.Int t);
                    ("latency", Json.String "uniform:0.2,1.0");
                    ("loss", Json.String "0.05");
                  ]
                and oversize_attempts =
                  [
                    ("retries", Json.Int 100);
                    ("rto", Json.Float 0.1);
                    ("round_duration", Json.Float 20.0);
                  ]
                in
                List.iter
                  (fun (params, size, budget) ->
                    match Client.call c ~verb:"probcheck" ~params () with
                    | Ok
                        ( _,
                          Protocol.Error_reply
                            { code = Protocol.Bad_request; message } ) ->
                        check ("names the size: " ^ message) true (contains message size);
                        check ("names the budget: " ^ message) true
                          (contains message budget)
                    | _ -> Alcotest.fail "expected bad-request")
                  [
                    ( uniform 128 16,
                      "35275520 bits",
                      Printf.sprintf "budget of %d bits" Spec.Probcheck.max_power_bits );
                    ( uniform 490 0,
                      "251590500 bits",
                      Printf.sprintf "budget of %d bits" Spec.Probcheck.max_power_bits );
                    ( oversize_attempts,
                      "up to 101 attempts",
                      Printf.sprintf "budget of %d" Spec.Probcheck.max_attempts );
                  ];
                check "no worker ran them" true (counts () = idle);
                (match Client.call c ~verb:"probcheck" () with
                | Ok (_, Protocol.Ok_result _) -> ()
                | _ -> Alcotest.fail "a small probcheck failed after the refusals");
                check "the small one was served" true
                  (List.assoc "served" (counts ()) = Some (Json.Int 1)))));
  ]

(* --- served knowledge-query admission --- *)

let served_knowledge_tests =
  [
    test "an oversize knowledge-query is refused before the queue, counts unchanged"
      (fun () ->
        with_daemon ~workers:1 (fun bound ->
            with_client bound (fun c ->
                let counts () = queue_counts c in
                check "idle before" true (counts () = idle);
                let universe n t horizon =
                  [ ("n", Json.Int n); ("t", Json.Int t); ("horizon", Json.Int horizon) ]
                and budget =
                  Printf.sprintf "budget of %d runs" Eba.Server.Registry.max_knowledge_runs
                in
                List.iter
                  (fun (params, size) ->
                    match Client.call c ~verb:"knowledge-query" ~params () with
                    | Ok
                        ( _,
                          Protocol.Error_reply
                            { code = Protocol.Bad_request; message } ) ->
                        check ("names the size: " ^ message) true (contains message size);
                        check ("names the budget: " ^ message) true (contains message budget)
                    | _ -> Alcotest.fail "expected bad-request")
                  [
                    (* 240,824,431 crash patterns x 2^7 configurations *)
                    (universe 7 3 3, "30825527168 runs");
                    ( universe 7 3 3
                      @ [ ("query", Json.String "exhaustive"); ("protocol", Json.String "floodset") ],
                      "30825527168 runs" );
                    (* the run count overflows int *)
                    (universe 12 4 4, "more than max_int runs");
                    (* past the word width, 2^n configurations alone do *)
                    (universe (Eba.Bitset.max_width + 1) 1 3, "more than max_int runs");
                    (universe 70 1 3, "more than max_int runs");
                    (* the smallest crash universe measured past the budget *)
                    (universe 5 2 3, "684512 runs");
                  ];
                check "no worker ran them" true (counts () = idle);
                (* crash n=4 t=2 T=4, 82,608 runs, is served *)
                (match Client.call c ~verb:"knowledge-query" ~params:(universe 4 2 4) () with
                | Ok (_, Protocol.Ok_result _) -> ()
                | _ -> Alcotest.fail "a knowledge-query within the budget failed");
                check "the admitted one was served" true
                  (List.assoc "served" (counts ()) = Some (Json.Int 1)))));
  ]

(* --- the field tables: a spec reads the same from argv and from params --- *)

module Gen = QCheck2.Gen

let modes = Eba.Params.[ Crash; Omission; General_omission ]

(* A generator for a field, given its key and kind (a record, so that
   it stays polymorphic in the kind's type). *)
type drawer = { draw : 'a. string -> 'a Spec.kind -> 'a Gen.t }

(* A value with seven significant digits, as a user would type it. *)
let seven lo hi = Gen.map (fun x -> float_of_string (Printf.sprintf "%.7g" x)) (Gen.float_range lo hi)

let latency_gen ~hi =
  let open Gen in
  oneof
    [
      map (fun c -> Net.Link.Const c) (seven 0.0 hi);
      map2 (fun a b -> Net.Link.Uniform (Float.min a b, Float.max a b)) (seven 0.0 hi) (seven 0.0 hi);
      map3
        (fun a b prob -> Net.Link.Spike { base = Float.min a b; prob; spike = Float.max a b })
        (seven 0.0 hi) (seven 0.0 hi) (seven 0.0 1.0);
    ]

(* Drawn wide: negative and zero counts, floats past six significant
   digits, an unknown protocol name, a wave size of 0. *)
let wide =
  let rec draw : type a. string -> a Spec.kind -> a Gen.t =
   fun key kind ->
    let open Gen in
    match kind with
    | Spec.Int -> int_range (-2) 5
    | Spec.Float -> oneof [ float_range (-0.5) 1.5; oneofl [ 0.0; 0.5; 2.0 ] ]
    | Spec.Flag -> bool
    | Spec.String -> oneofl [ "0"; "0.05"; "0.1234567"; "1"; "-0.5"; "abc" ]
    | Spec.Enum names -> oneofl ("nope" :: names)
    | Spec.Mode -> oneofl modes
    | Spec.Latency -> latency_gen ~hi:6.0
    | Spec.Mux ->
        oneof
          [ oneofl [ Spec.Mux_off; Spec.Mux_auto ]; map (fun k -> Spec.Mux_live k) (int_range 0 3) ]
    | Spec.Jobs -> option (int_range 0 4)
    | Spec.Option k -> option (draw key k)
  in
  { draw }

(* Drawn valid and small (n <= 4, runs <= 3, horizon <= 3): a latency
   bound <= 1 fits every window drawn, and every rto drawn fits in
   every window. *)
let small =
  let rec draw : type a. string -> a Spec.kind -> a Gen.t =
   fun key kind ->
    let open Gen in
    match (kind, key) with
    | Spec.Int, "n" -> int_range 2 4
    | Spec.Int, "t" -> int_range 0 1
    | Spec.Int, ("horizon" | "runs" | "rounds") -> int_range 1 3
    | Spec.Int, ("partitions" | "retries") -> int_range 0 2
    | Spec.Int, _ -> int_range 0 1000
    | Spec.Float, "loss" -> float_range 0.0 0.3
    | Spec.Float, "rto" -> float_range 1.0 1.5
    | Spec.Float, "round_duration" -> float_range 2.5 4.0
    | Spec.Float, _ -> float_range 0.05 1.0
    | Spec.Flag, _ -> bool
    | Spec.String, _ -> oneofl [ "0"; "0.05"; "0.25"; "0.1234567" ]
    | Spec.Enum names, _ -> oneofl names
    | Spec.Mode, _ -> oneofl modes
    | Spec.Latency, _ -> latency_gen ~hi:1.0
    | Spec.Mux, _ ->
        oneof
          [ oneofl [ Spec.Mux_off; Spec.Mux_auto ]; map (fun k -> Spec.Mux_live k) (int_range 1 3) ]
    | Spec.Jobs, _ -> pure None
    | Spec.Option k, "runs" -> map Option.some (draw key k)
    | Spec.Option k, _ -> option (draw key k)
  in
  { draw }

(* Every flagged field drawn; the wire-only ones keep their defaults,
   which argv cannot set. *)
let draw d fields default =
  List.fold_left
    (fun acc (Spec.Field p) ->
      if p.Spec.names = [] then acc else Gen.map2 p.Spec.set acc (d.draw p.Spec.key p.Spec.kind))
    (Gen.pure default) fields

(* How a name ([Enum], [Mode], [Mux]'s off and auto) is spelled on both
   sides: as it is, upper-cased, or cut to a prefix — which both sides
   must refuse, unless the prefix is itself a name ([p0opt] of
   [p0opt+]). *)
let spellings =
  [
    ("exact", Fun.id);
    ("upper", String.uppercase_ascii);
    ("prefix", fun s -> String.sub s 0 (max 1 (String.length s - 1)));
  ]

let rec arg_value : type a. spell:(string -> string) -> a Spec.kind -> a -> string option =
 fun ~spell kind v ->
  match kind with
  | Spec.Int -> Some (string_of_int v)
  | Spec.Float -> Some (Printf.sprintf "%.17g" v)
  | Spec.Flag -> None
  | Spec.String -> Some v
  | Spec.Enum _ -> Some (spell v)
  | Spec.Mode -> Some (spell (Spec.mode_to_string v))
  | Spec.Latency -> Some (Net.Link.latency_to_string v)
  | Spec.Mux -> (
      match v with
      | Spec.Mux_off -> Some (spell "off")
      | Spec.Mux_auto -> Some (spell "auto")
      | Spec.Mux_live k -> Some (string_of_int k))
  | Spec.Jobs -> Option.map string_of_int v
  | Spec.Option k -> Option.bind v (arg_value ~spell k)

(* Short names glued to their value ([-n-2]), so a negative value is not
   read as an option. *)
let argv ?(spell = Fun.id) fields spec =
  List.concat_map
    (fun (Spec.Field p) ->
      match (p.Spec.names, p.Spec.kind) with
      | [], _ -> []
      | name :: _, Spec.Flag -> if p.Spec.get spec then [ "--" ^ name ] else []
      | name :: _, kind -> (
          match arg_value ~spell kind (p.Spec.get spec) with
          | None -> []
          | Some v when String.length name = 1 -> [ "-" ^ name ^ v ]
          | Some v -> [ "--" ^ name ^ "=" ^ v ]))
    fields

let rec json_value : type a. spell:(string -> string) -> a Spec.kind -> a -> Json.t =
 fun ~spell kind v ->
  match kind with
  | Spec.Int -> Json.Int v
  | Spec.Float -> Json.Float v
  | Spec.Flag -> Json.Bool v
  | Spec.String -> Json.String v
  | Spec.Enum _ -> Json.String (spell v)
  | Spec.Mode -> Json.String (spell (Spec.mode_to_string v))
  | Spec.Latency -> Json.String (Net.Link.latency_to_string v)
  | Spec.Mux -> (
      match v with
      | Spec.Mux_off -> Json.String (spell "off")
      | Spec.Mux_auto -> Json.String (spell "auto")
      | Spec.Mux_live k -> Json.Int k)
  | Spec.Jobs -> Option.fold ~none:Json.Null ~some:(fun j -> Json.Int j) v
  | Spec.Option k -> Option.fold ~none:Json.Null ~some:(json_value ~spell k) v

(* The params a client sends, through the wire's bytes: an absent option
   goes as [null]. *)
let params ?(spell = Fun.id) fields spec =
  let obj =
    Json.Obj
      (List.filter_map
         (fun (Spec.Field p) ->
           if p.Spec.names = [] then None
           else Some (p.Spec.key, json_value ~spell p.Spec.kind (p.Spec.get spec)))
         fields)
  in
  Result.get_ok (Json.parse (Json.to_string obj))

let parse_argv term args =
  let null = Format.make_formatter (fun _ _ _ -> ()) ignore in
  match
    Cmdliner.Cmd.eval_value ~help:null ~err:null ~env:(fun _ -> None)
      ~argv:(Array.of_list ("eba" :: args))
      (Cmdliner.Cmd.v (Cmdliner.Cmd.info "eba") term)
  with
  | Ok (`Ok spec) -> Some spec
  | _ -> None

let table_tests =
  let agree name ~fields ~default ~term ~of_json ~check =
    qtest ~count:300
      ~print:(fun ((_, spell), s) -> String.concat " " (argv ~spell fields s))
      (name ^ ": argv and params decode to one spec, or both are refused")
      (Gen.pair (Gen.oneofl spellings)
         (Gen.oneof [ draw small fields default; draw wide fields default ]))
      (fun ((_, spell), spec) ->
        let from_argv = parse_argv term (argv ~spell fields spec) in
        let from_params = Result.to_option (of_json (params ~spell fields spec)) in
        let admitted = function Some s -> Result.is_ok (check s) | None -> false in
        match (from_argv, from_params) with
        | Some a, Some p when a = p -> true
        | a, p -> not (admitted a || admitted p))
  in
  let served_bytes verb params =
    match Registry.prepare ~verb ~params with
    | Error _ -> Alcotest.fail (verb ^ ": refused")
    | Ok thunk -> Json.to_string (Result.get_ok (thunk Registry.no_ctx))
  in
  let served name ~verb ~fields ~default ~fix ~term ~cli_bytes =
    qtest ~count:60 ~print:(fun s -> String.concat " " (argv fields s))
      (name ^ ": served bytes = CLI bytes")
      (Gen.map fix (draw small fields default))
      (fun spec ->
        match parse_argv term (argv fields spec) with
        | None -> false
        | Some parsed -> cli_bytes parsed = served_bytes verb (params fields spec))
  in
  [
    agree "netsim" ~fields:Spec.fields ~default:Spec.default ~term:Spec.term
      ~of_json:Spec.of_json ~check:Spec.resolve;
    agree "probcheck" ~fields:Spec.Probcheck.fields ~default:Spec.Probcheck.default
      ~term:Spec.Probcheck.term ~of_json:Spec.Probcheck.of_json ~check:Spec.Probcheck.admit;
    agree "knowledge" ~fields:Spec.Knowledge.fields ~default:Spec.Knowledge.default
      ~term:Spec.Knowledge.term ~of_json:Spec.Knowledge.of_json
      ~check:Spec.Knowledge.model_params;
    served "netsim-sweep" ~verb:"netsim-sweep" ~fields:Spec.fields ~default:Spec.default
      ~fix:(fun s ->
        { s with Spec.compact = s.Spec.compact && List.mem s.Spec.protocol Spec.compact_protocol_names })
      ~term:Spec.term ~cli_bytes:cli_netsim_bytes;
    served "probcheck" ~verb:"probcheck" ~fields:Spec.Probcheck.fields
      ~default:Spec.Probcheck.default ~fix:Fun.id ~term:Spec.Probcheck.term
      ~cli_bytes:(fun spec ->
        Json.to_string
          (Eba.Prob.Report.to_json (Result.get_ok (Spec.Probcheck.report spec))));
  ]

(* A window left out defaults to 8 rto, so an rto of 0 must be refused
   for itself, not for a window the request never set. *)
let rto_tests =
  [
    test "an rto of 0 is refused naming rto, from argv and from params" (fun () ->
        let names_rto what = function
          | Ok () -> Alcotest.fail (what ^ ": admitted")
          | Error m -> check (what ^ ": " ^ m) true (contains m "rto must be")
        in
        let argv = [ "--rto=0" ] in
        names_rto "eba netsim"
          (Result.map ignore (Spec.resolve (Option.get (parse_argv Spec.term argv))));
        names_rto "eba probcheck"
          (Result.map ignore
             (Spec.Probcheck.report (Option.get (parse_argv Spec.Probcheck.term argv))));
        List.iter
          (fun verb ->
            names_rto verb
              (match Registry.prepare ~verb ~params:(Json.Obj [ ("rto", Json.Int 0) ]) with
              | Ok _ -> Ok ()
              | Error (`Bad_request m) -> Error m
              | Error `Unknown_verb -> Error "unknown verb"))
          [ "netsim-sweep"; "probcheck" ]);
  ]

let suite =
  ( "server",
    frame_tests @ queue_tests @ spec_tests @ differential_tests
    @ concurrency_tests @ backpressure_tests @ cancellation_tests
    @ progress_tests @ cache_tests @ shared_state_tests @ served_cache_tests
    @ served_jobs_tests
    @ bench_tests
    @ robustness_tests @ restart_tests @ pool_tests @ served_mux_tests
    @ served_prob_tests @ served_knowledge_tests @ table_tests @ rto_tests )
