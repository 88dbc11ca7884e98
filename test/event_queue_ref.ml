(* The reference event heap: one boxed cell per event, sifted by swapping
   cells, popped as a [(time, payload)] option.  Same contract as
   Eba.Net.Event_queue — a binary min-heap keyed by (time, seqno), the
   seqno assigned in push order — in a layout that shares nothing with the
   library's struct-of-arrays heap, so the reference engine (Netsim_ref)
   runs on a heap of its own and test_mux can drain both side by side. *)

type 'a cell = { ev_time : float; ev_seq : int; ev_payload : 'a }

type 'a t = {
  mutable heap : 'a cell array;  (* heap.(0) unused when len = 0 *)
  mutable len : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; len = 0; next_seq = 0 }

let earlier a b =
  a.ev_time < b.ev_time || (a.ev_time = b.ev_time && a.ev_seq < b.ev_seq)

let grow q cell =
  let cap = Array.length q.heap in
  if q.len = cap then begin
    let heap = Array.make (max 16 (2 * cap)) cell in
    Array.blit q.heap 0 heap 0 q.len;
    q.heap <- heap
  end

let clear q =
  q.len <- 0;
  q.next_seq <- 0

let alloc_seq q =
  let s = q.next_seq in
  q.next_seq <- s + 1;
  s

let push q ~time payload =
  if not (Float.is_finite time) || time < 0.0 then
    invalid_arg "Event_queue_ref.push: time must be finite and non-negative";
  let cell = { ev_time = time; ev_seq = q.next_seq; ev_payload = payload } in
  q.next_seq <- q.next_seq + 1;
  grow q cell;
  let heap = q.heap in
  (* sift up *)
  let i = ref q.len in
  q.len <- q.len + 1;
  heap.(!i) <- cell;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if earlier cell heap.(parent) then begin
      heap.(!i) <- heap.(parent);
      heap.(parent) <- cell;
      i := parent
    end
    else continue := false
  done

let pop q =
  if q.len = 0 then None
  else begin
    let heap = q.heap in
    let top = heap.(0) in
    q.len <- q.len - 1;
    let last = heap.(q.len) in
    if q.len > 0 then begin
      heap.(0) <- last;
      (* sift down *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < q.len && earlier heap.(l) heap.(!smallest) then smallest := l;
        if r < q.len && earlier heap.(r) heap.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = heap.(!i) in
          heap.(!i) <- heap.(!smallest);
          heap.(!smallest) <- tmp;
          i := !smallest
        end
        else continue := false
      done
    end;
    Some (top.ev_time, top.ev_payload)
  end

let is_empty q = q.len = 0
