type t = {
  mutable eq_times : float array;
  mutable eq_seqs : int array;
  mutable eq_pay : int array;
  mutable eq_len : int;
  mutable eq_next_seq : int;
}

let create () =
  { eq_times = [||]; eq_seqs = [||]; eq_pay = [||]; eq_len = 0; eq_next_seq = 0 }

(* Doubling growth. *)
let grow q =
  let len = q.eq_len in
  let cap = max 16 (2 * len) in
  let times = Array.make cap 0.0 and seqs = Array.make cap 0 in
  let pay = Array.make cap 0 in
  Array.blit q.eq_times 0 times 0 len;
  Array.blit q.eq_seqs 0 seqs 0 len;
  Array.blit q.eq_pay 0 pay 0 len;
  q.eq_times <- times;
  q.eq_seqs <- seqs;
  q.eq_pay <- pay

let clear q =
  q.eq_len <- 0;
  q.eq_next_seq <- 0

let alloc_seq q =
  let s = q.eq_next_seq in
  q.eq_next_seq <- s + 1;
  s

(* Both sifts move a hole rather than swapping cells: each level copies
   one (time, seqno, payload) triple, and the moving event is written
   once, where the hole stops. *)
let push q ~time payload =
  if not (Float.is_finite time) || time < 0.0 then
    invalid_arg "Event_queue.push: time must be finite and non-negative";
  let seq = q.eq_next_seq in
  q.eq_next_seq <- seq + 1;
  if q.eq_len = Array.length q.eq_seqs then grow q;
  let times = q.eq_times and seqs = q.eq_seqs and pay = q.eq_pay in
  let i = ref q.eq_len in
  q.eq_len <- q.eq_len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = times.(parent) in
    if time < pt || (time = pt && seq < seqs.(parent)) then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(parent);
      pay.(!i) <- pay.(parent);
      i := parent
    end
    else continue := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  pay.(!i) <- payload

let take q =
  let len = q.eq_len - 1 in
  if len < 0 then invalid_arg "Event_queue.take: empty queue";
  let times = q.eq_times and seqs = q.eq_seqs and pay = q.eq_pay in
  let top = pay.(0) in
  q.eq_len <- len;
  if len > 0 then begin
    (* sift the last event down from the root *)
    let t = times.(len) and s = seqs.(len) and x = pay.(len) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= len then continue := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < len
            && (times.(r) < times.(l) || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        let ct = times.(c) in
        if ct < t || (ct = t && seqs.(c) < s) then begin
          times.(!i) <- ct;
          seqs.(!i) <- seqs.(c);
          pay.(!i) <- pay.(c);
          i := c
        end
        else continue := false
      end
    done;
    times.(!i) <- t;
    seqs.(!i) <- s;
    pay.(!i) <- x
  end;
  top

let is_empty q = q.eq_len = 0
