type t = { round_duration : float; rto : float; max_retries : int }

(* rto first: a window left out defaults to a multiple of it, and the
   error must name the parameter that was given. *)
let make ~round_duration ~rto ~max_retries =
  if not (Float.is_finite rto) || rto <= 0.0 then
    invalid_arg "Sync.make: rto must be finite and > 0";
  if not (Float.is_finite round_duration) || round_duration <= 0.0 then
    invalid_arg "Sync.make: round_duration must be finite and > 0";
  if rto > round_duration then
    invalid_arg "Sync.make: rto cannot exceed the round window";
  if max_retries < 0 then invalid_arg "Sync.make: max_retries must be >= 0";
  { round_duration; rto; max_retries }

let default_for topology =
  let bound = Topology.latency_bound topology in
  let rto = if bound > 0.0 then 2.5 *. bound else 1.0 in
  make ~round_duration:(8.0 *. rto) ~rto ~max_retries:7

let check t topology =
  let bound = Topology.latency_bound topology in
  if bound >= t.round_duration then
    invalid_arg
      (Printf.sprintf
         "Sync.check: latency bound %g does not fit the round window %g"
         bound t.round_duration)

let attempt_times t =
  (* Mirror the event loop exactly: fire times accumulate by repeated
     [+. rto] (not multiplication) and a retransmission is armed only
     while [fire +. rto] stays strictly inside the window.  Offsets are
     relative to the window start (round 1's absolute times). *)
  let acc = ref [ 0.0 ] in
  let fire = ref 0.0 in
  let count = ref 0 in
  while !count < t.max_retries && !fire +. t.rto < t.round_duration do
    fire := !fire +. t.rto;
    acc := !fire :: !acc;
    incr count
  done;
  Array.of_list (List.rev !acc)

let round_end t ~round = float_of_int round *. t.round_duration

let pp fmt t =
  Format.fprintf fmt "round=%g rto=%g retries=%d" t.round_duration t.rto
    t.max_retries
