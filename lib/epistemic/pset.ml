type t = { id : int; len : int; words : int array }

module Metrics = Eba_util.Metrics

(* Every set gets a fresh [id]: its identity, for tables keyed on
   physical identity (a moving GC gives values no stable address). *)
let next_id = Atomic.make 0
let make len words = { id = Atomic.fetch_and_add next_id 1; len; words }
let id s = s.id

(* Word-granularity traffic counters: how much bitset material the
   epistemic kernels actually stream.  Each [init]/[map2] touches a fixed
   number of words, so both are deterministic. *)
let m_words_init = Metrics.counter "pset.words_init"
let m_words_map2 = Metrics.counter "pset.words_map2"

let bpw = 62
let bits_per_word = bpw

(* [bpw] low bits set, computed without shifting into the sign bit:
   [max_int] already has [Sys.int_size - 1] one bits. *)
let all_ones = max_int lsr (Sys.int_size - 1 - bpw)
let full_word = all_ones

let nwords len = (len + bpw - 1) / bpw

let create len = make len (Array.make (max 1 (nwords len)) 0)

let last_word_mask len =
  let rem = len mod bpw in
  if rem = 0 then all_ones else all_ones lsr (bpw - rem)

let full len =
  let s = make len (Array.make (max 1 (nwords len)) all_ones) in
  if len = 0 then s.words.(0) <- 0
  else s.words.(nwords len - 1) <- last_word_mask len;
  s

let copy s = make s.len (Array.copy s.words)
let length s = s.len

let check_index s i =
  if i < 0 || i >= s.len then invalid_arg "Pset: index out of bounds"

let mem s i =
  check_index s i;
  s.words.(i / bpw) land (1 lsl (i mod bpw)) <> 0

let add s i =
  check_index s i;
  s.words.(i / bpw) <- s.words.(i / bpw) lor (1 lsl (i mod bpw))

let remove s i =
  check_index s i;
  s.words.(i / bpw) <- s.words.(i / bpw) land lnot (1 lsl (i mod bpw))

(* Word by word, so each word is assembled in a register and stored once. *)
let init len f =
  let s = create len in
  Metrics.add m_words_init (nwords len);
  for w = 0 to nwords len - 1 do
    let lo = w * bpw in
    let word = ref 0 in
    for i = lo to min len (lo + bpw) - 1 do
      if f i then word := !word lor (1 lsl (i - lo))
    done;
    s.words.(w) <- !word
  done;
  s

let check_same a b = if a.len <> b.len then invalid_arg "Pset: length mismatch"

let map2 op a b =
  check_same a b;
  Metrics.add m_words_map2 (Array.length a.words);
  let words = Array.init (Array.length a.words) (fun w -> op a.words.(w) b.words.(w)) in
  make a.len words

let union = map2 ( lor )
let inter = map2 ( land )
let diff = map2 (fun x y -> x land lnot y)

let complement a =
  let s = make a.len (Array.map (fun w -> lnot w land all_ones) a.words) in
  if a.len = 0 then s.words.(0) <- 0
  else begin
    let lw = nwords a.len - 1 in
    s.words.(lw) <- s.words.(lw) land last_word_mask a.len
  end;
  s

let equal a b = a.len = b.len && a.words = b.words

let subset a b =
  check_same a b;
  let rec loop w =
    w >= Array.length a.words || (a.words.(w) land lnot b.words.(w) = 0 && loop (w + 1))
  in
  loop 0

let is_empty a = Array.for_all (fun w -> w = 0) a.words
let is_full a = equal a (full a.len)

let popcount x =
  let rec count acc x = if x = 0 then acc else count (acc + 1) (x land (x - 1)) in
  count 0 x

let cardinal a = Array.fold_left (fun acc w -> acc + popcount w) 0 a.words

let iter s f =
  for w = 0 to Array.length s.words - 1 do
    let word = s.words.(w) in
    if word <> 0 then
      for b = 0 to bpw - 1 do
        if word land (1 lsl b) <> 0 then f ((w * bpw) + b)
      done
  done

let for_all s f =
  let ok = ref true in
  (try iter s (fun i -> if not (f i) then begin ok := false; raise Exit end)
   with Exit -> ());
  !ok

let choose s =
  let found = ref None in
  (try iter s (fun i -> found := Some i; raise Exit) with Exit -> ());
  !found

let pp fmt s = Format.fprintf fmt "<%d/%d points>" (cardinal s) s.len
