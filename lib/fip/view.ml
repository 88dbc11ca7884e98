module Bitset = Eba_util.Bitset
module Metrics = Eba_util.Metrics
module Value = Eba_sim.Value

type id = int

(* Struct-of-arrays arena.  View [id]'s key occupies the [stride = n + 3]
   ints of [keys] from [id * stride]: kind (0 leaf, 1 node), owner, then the
   prev id (nodes) or the initial value (leaves), then the [n] received ids
   ([-1] for none; all [-1] for leaves).  [meta.(id)] packs the rest of the
   view into one int: the heard set in bits [0, n), the initial value at
   bit [n], the knows-zero flag at bit [n + 1] and the time from bit
   [n + 2] up.  At [n <= max_n] that leaves the time 29 bits or more, more
   rounds than a store could ever hold views for.

   [slots] is the interner: an open-addressing table of ids ([-1] = empty)
   probed linearly from a hash of the key ints.  Its length is a power of
   two at least twice the capacity [Array.length meta], so probes stay
   short and always meet an empty slot. *)
type store = {
  s_n : int;
  stride : int;
  mutable keys : int array;
  mutable meta : int array;
  mutable slots : int array;
  mutable next : int;
  scratch : int array;
      (* the key being interned, assembled here so a hit allocates nothing.
         Stores are single-domain for interning, so one buffer. *)
}

let max_n = 32

(* Regrowths of any store: deterministic, since what a build interns (and
   so when its store fills) is a function of the universe alone. *)
let m_grows = Metrics.counter "view.grows"

let slot_count capacity =
  let rec up p = if p >= 2 * capacity then p else up (2 * p) in
  up 2

let create_store ~n ~capacity () =
  if n < 0 || n > max_n then invalid_arg "View.create_store: n out of range";
  let capacity = max 1 capacity and stride = n + 3 in
  {
    s_n = n;
    stride;
    keys = Array.make (capacity * stride) 0;
    meta = Array.make capacity 0;
    slots = Array.make (slot_count capacity) (-1);
    next = 0;
    scratch = Array.make stride 0;
  }

(* FNV-style over the key ints, then a shift-multiply finalizer so the low
   bits the slot mask keeps depend on every bit of every int. *)
let hash key off stride =
  let h = ref 0 in
  for k = off to off + stride - 1 do
    h := (!h lxor key.(k)) * 0x100000001b3
  done;
  let h = !h lxor (!h lsr 31) in
  let h = h * 0x1d8e4e27c47d124f in
  h lxor (h lsr 29)

let key_equal keys base scratch stride =
  let k = ref 0 in
  while !k < stride && keys.(base + !k) = scratch.(!k) do
    incr k
  done;
  !k = stride

(* The slot holding the view keyed by [scratch], or the empty slot where it
   belongs.  Written as a loop: without flambda a local recursive probe
   that closes over these variables allocates a closure per call. *)
let find_slot store =
  let slots = store.slots and keys = store.keys and scratch = store.scratch in
  let stride = store.stride in
  let mask = Array.length slots - 1 in
  let i = ref (hash scratch 0 stride land mask) in
  while
    let id = slots.(!i) in
    id >= 0 && not (key_equal keys (id * stride) scratch stride)
  do
    i := (!i + 1) land mask
  done;
  !i

(* Doubles the capacity and refiles every view in a slot table sized for
   it. *)
let grow store =
  Metrics.incr m_grows;
  let capacity = 2 * Array.length store.meta and stride = store.stride in
  let extend a len =
    let b = Array.make len 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  store.keys <- extend store.keys (capacity * stride);
  store.meta <- extend store.meta capacity;
  let slots = Array.make (slot_count capacity) (-1) in
  let mask = Array.length slots - 1 in
  for id = 0 to store.next - 1 do
    let i = ref (hash store.keys (id * stride) stride land mask) in
    while slots.(!i) >= 0 do
      i := (!i + 1) land mask
    done;
    slots.(!i) <- id
  done;
  store.slots <- slots

(* A miss: the key in [scratch] becomes view [next], filed at [slot] (found
   afresh when the store has to grow first). *)
let add store slot meta =
  let id = store.next in
  let slot =
    if id < Array.length store.meta then slot
    else begin
      grow store;
      find_slot store
    end
  in
  Array.blit store.scratch 0 store.keys (id * store.stride) store.stride;
  store.meta.(id) <- meta;
  store.slots.(slot) <- id;
  store.next <- id + 1;
  id

let leaf store ~owner value =
  let key = store.scratch in
  key.(0) <- 0;
  key.(1) <- owner;
  key.(2) <- Value.to_int value;
  for j = 3 to store.stride - 1 do
    key.(j) <- -1
  done;
  let slot = find_slot store in
  let id = store.slots.(slot) in
  if id >= 0 then id
  else
    (* time 0, nobody heard, knows zero iff the value is 0 *)
    let v = Value.to_int value in
    add store slot ((v lsl store.s_n) lor ((1 - v) lsl (store.s_n + 1)))

(* The hot interner path, once [scratch] holds a node key.  A hit skips the
   metadata entirely; only a miss derives it, from the key: prev's time
   plus one and prev's initial value, the senders with a received id as
   the heard set, and knows-zero from prev or any received view. *)
let intern_node store =
  let slot = find_slot store in
  let id = store.slots.(slot) in
  if id >= 0 then id
  else begin
    let n = store.s_n and key = store.scratch and meta = store.meta in
    let prev = meta.(key.(2)) in
    let heard = ref 0 and zero = ref prev in
    for j = 0 to n - 1 do
      let v = key.(3 + j) in
      if v >= 0 then begin
        heard := !heard lor (1 lsl j);
        zero := !zero lor meta.(v)
      end
    done;
    let zero_bit = 1 lsl (n + 1) in
    let time_init = (prev land lnot (zero_bit lor ((1 lsl n) - 1))) + (1 lsl (n + 2)) in
    add store slot (time_init lor (!zero land zero_bit) lor !heard)
  end

let node_row store ~owner ~row ~base ~delivered =
  let key = store.scratch in
  key.(0) <- 1;
  key.(1) <- owner;
  key.(2) <- row.(base + owner);
  for j = 0 to store.s_n - 1 do
    key.(3 + j) <- (if delivered land (1 lsl j) <> 0 then row.(base + j) else -1)
  done;
  intern_node store

let node_parts store ~owner ~prev ~parts =
  let key = store.scratch in
  key.(0) <- 1;
  key.(1) <- owner;
  key.(2) <- prev;
  Array.blit parts 0 key 3 store.s_n;
  intern_node store

let owner store id = store.keys.((id * store.stride) + 1)
let time store id = store.meta.(id) lsr (store.s_n + 2)

let node store ~owner:o ~prev ~received =
  let known v = v >= 0 && v < store.next in
  if not (known prev) then invalid_arg "View.node: unknown prev view";
  if owner store prev <> o then invalid_arg "View.node: owner mismatch with prev";
  if Array.length received <> store.s_n then invalid_arg "View.node: received arity";
  if received.(o) <> None then invalid_arg "View.node: self-message";
  let parts = Array.make store.s_n (-1) in
  Array.iteri
    (fun j rv ->
      match rv with
      | None -> ()
      | Some v ->
          if not (known v) then invalid_arg "View.node: unknown received view";
          if owner store v <> j then invalid_arg "View.node: received view owner mismatch";
          if time store v <> time store prev then
            invalid_arg "View.node: received view time mismatch";
          parts.(j) <- v)
    received;
  node_parts store ~owner:o ~prev ~parts

let size store = store.next
let n store = store.s_n
let init_value store id = Value.of_int ((store.meta.(id) lsr store.s_n) land 1)

let prev store id =
  let base = id * store.stride in
  if store.keys.(base) = 0 then None else Some store.keys.(base + 2)

let received store id j =
  if j < 0 || j >= store.s_n then invalid_arg "View.received: sender out of range";
  let v = store.keys.((id * store.stride) + 3 + j) in
  if v < 0 then None else Some v

let heard_from store id = Bitset.of_int (store.meta.(id) land ((1 lsl store.s_n) - 1))
let knows_zero store id = store.meta.(id) land (1 lsl (store.s_n + 1)) <> 0

let pp store fmt id =
  Format.fprintf fmt "p%d@%d:v%a<-%a" (owner store id) (time store id) Value.pp
    (init_value store id) Bitset.pp (heard_from store id)
