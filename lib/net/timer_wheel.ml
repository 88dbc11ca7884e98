type t = {
  tw_times : float array;
  tw_len : int array;  (* entries scheduled into each slot *)
  tw_next : int array;  (* entries already drained from each slot *)
  tw_seqs : int array array;
  tw_pay : int array array;
  mutable tw_cursor : int;
}

let create ~times =
  Array.iteri
    (fun i t ->
      if not (Float.is_finite t) || t < 0.0 then
        invalid_arg "Timer_wheel.create: times must be finite and non-negative";
      if i > 0 && not (times.(i - 1) < t) then
        invalid_arg "Timer_wheel.create: times must be strictly increasing")
    times;
  let n = Array.length times in
  {
    tw_times = Array.copy times;
    tw_len = Array.make n 0;
    tw_next = Array.make n 0;
    tw_seqs = Array.make n [||];
    tw_pay = Array.make n [||];
    tw_cursor = 0;
  }

let index_of_time w t =
  (* exact search: fire times are computed by the same float arithmetic
     that built the schedule, so equality is the contract.  A timer armed
     at a boundary, or re-armed from a wheel slot, lands on the slot after
     the cursor, so that one is tried before the binary search. *)
  let times = w.tw_times in
  let c = w.tw_cursor + 1 in
  if c < Array.length times && times.(c) = t then c
  else begin
    let lo = ref 0 and hi = ref (Array.length times - 1) in
    let found = ref (-1) in
    while !found < 0 && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let v = times.(mid) in
      if v = t then found := mid else if v < t then lo := mid + 1 else hi := mid - 1
    done;
    !found
  end

let schedule w ~tick ~seq payload =
  if tick < w.tw_cursor || tick >= Array.length w.tw_times then
    invalid_arg "Timer_wheel.schedule: tick out of range";
  let len = w.tw_len.(tick) in
  let cap = Array.length w.tw_seqs.(tick) in
  if len = cap then begin
    let ncap = max 8 (2 * cap) in
    let seqs = Array.make ncap 0 in
    let pay = Array.make ncap 0 in
    Array.blit w.tw_seqs.(tick) 0 seqs 0 len;
    Array.blit w.tw_pay.(tick) 0 pay 0 len;
    w.tw_seqs.(tick) <- seqs;
    w.tw_pay.(tick) <- pay
  end;
  w.tw_seqs.(tick).(len) <- seq;
  w.tw_pay.(tick).(len) <- payload;
  w.tw_len.(tick) <- len + 1

let take w =
  let c = w.tw_cursor in
  if c >= Array.length w.tw_times then invalid_arg "Timer_wheel.take: past the end";
  let next = w.tw_next.(c) in
  if next >= w.tw_len.(c) then invalid_arg "Timer_wheel.take: slot drained";
  w.tw_next.(c) <- next + 1;
  w.tw_pay.(c).(next)

let advance w =
  let c = w.tw_cursor in
  if c >= Array.length w.tw_times then invalid_arg "Timer_wheel.advance: past the end";
  if w.tw_next.(c) < w.tw_len.(c) then
    invalid_arg "Timer_wheel.advance: slot not drained";
  w.tw_cursor <- c + 1

let reset w =
  Array.fill w.tw_len 0 (Array.length w.tw_len) 0;
  Array.fill w.tw_next 0 (Array.length w.tw_next) 0;
  w.tw_cursor <- 0
