module Bitset = Eba_util.Bitset
module Value = Eba_sim.Value

type id = int

(* Struct-of-arrays arena.  View [id]'s key occupies the [stride = n + 3]
   ints of [keys] from [id * stride]: kind (0 leaf, 1 node), owner, then the
   prev id (nodes) or the initial value (leaves), then the [n] received ids
   ([-1] for none; all [-1] for leaves).  Time, initial value, heard set and
   the knows-zero flag sit in parallel arrays indexed by id.

   [slots] is the interner: an open-addressing table of ids ([-1] = empty)
   probed linearly from a hash of the key ints.  Its length is a power of
   two kept above twice the view count, so probes stay short and always
   meet an empty slot. *)
type store = {
  s_n : int;
  stride : int;
  mutable keys : int array;
  mutable times : int array;
  mutable inits : Value.t array;
  mutable heard : Bitset.t array;
  mutable kzero : bool array;
  mutable slots : int array;
  mutable next : int;
  scratch : int array;
      (* the key being interned, assembled here so a hit allocates nothing.
         Stores are single-domain for interning, so one buffer. *)
}

let initial_capacity = 1024

let create_store ~n () =
  let stride = n + 3 in
  {
    s_n = n;
    stride;
    keys = Array.make (initial_capacity * stride) 0;
    times = Array.make initial_capacity 0;
    inits = Array.make initial_capacity Value.Zero;
    heard = Array.make initial_capacity Bitset.empty;
    kzero = Array.make initial_capacity false;
    slots = Array.make (2 * initial_capacity) (-1);
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

let grow store =
  let extend a fill =
    let b = Array.make (2 * Array.length a) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  store.keys <- extend store.keys 0;
  store.times <- extend store.times 0;
  store.inits <- extend store.inits Value.Zero;
  store.heard <- extend store.heard Bitset.empty;
  store.kzero <- extend store.kzero false

let rehash store =
  let slots = Array.make (2 * Array.length store.slots) (-1) in
  let mask = Array.length slots - 1 and stride = store.stride in
  for id = 0 to store.next - 1 do
    let i = ref (hash store.keys (id * stride) stride land mask) in
    while slots.(!i) >= 0 do
      i := (!i + 1) land mask
    done;
    slots.(!i) <- id
  done;
  store.slots <- slots

(* A miss: the key in [scratch] becomes view [next], filed at [slot]. *)
let add store slot ~time ~init ~heard ~knows_zero =
  let id = store.next in
  if id = Array.length store.times then grow store;
  Array.blit store.scratch 0 store.keys (id * store.stride) store.stride;
  store.times.(id) <- time;
  store.inits.(id) <- init;
  store.heard.(id) <- heard;
  store.kzero.(id) <- knows_zero;
  store.slots.(slot) <- id;
  store.next <- id + 1;
  if 2 * store.next > Array.length store.slots then rehash store;
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
    add store slot ~time:0 ~init:value ~heard:Bitset.empty
      ~knows_zero:(Value.equal value Value.Zero)

(* The hot interner path: [parts.(j)] is the view received from [j], or
   [-1].  A hit skips the metadata entirely; only a miss derives it from
   [prev] and the parts.  [parts] is borrowed: callers may reuse it
   immediately. *)
let node_parts store ~owner ~prev ~parts =
  let n = store.s_n and key = store.scratch in
  key.(0) <- 1;
  key.(1) <- owner;
  key.(2) <- prev;
  for j = 0 to n - 1 do
    key.(3 + j) <- parts.(j)
  done;
  let slot = find_slot store in
  let id = store.slots.(slot) in
  if id >= 0 then id
  else begin
    let heard = ref Bitset.empty and knows_zero = ref store.kzero.(prev) in
    for j = 0 to n - 1 do
      let v = parts.(j) in
      if v >= 0 then begin
        heard := Bitset.add j !heard;
        knows_zero := !knows_zero || store.kzero.(v)
      end
    done;
    add store slot ~time:(store.times.(prev) + 1) ~init:store.inits.(prev)
      ~heard:!heard ~knows_zero:!knows_zero
  end

let owner store id = store.keys.((id * store.stride) + 1)

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
          if store.times.(v) <> store.times.(prev) then
            invalid_arg "View.node: received view time mismatch";
          parts.(j) <- v)
    received;
  node_parts store ~owner:o ~prev ~parts

let size store = store.next
let n store = store.s_n
let time store id = store.times.(id)
let init_value store id = store.inits.(id)

let prev store id =
  let base = id * store.stride in
  if store.keys.(base) = 0 then None else Some store.keys.(base + 2)

let received store id j =
  if j < 0 || j >= store.s_n then invalid_arg "View.received: sender out of range";
  let v = store.keys.((id * store.stride) + 3 + j) in
  if v < 0 then None else Some v

let heard_from store id = store.heard.(id)
let knows_zero store id = store.kzero.(id)

let pp store fmt id =
  Format.fprintf fmt "p%d@%d:v%a<-%a" (owner store id) (time store id) Value.pp
    (init_value store id) Bitset.pp (heard_from store id)
