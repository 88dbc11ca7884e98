module type S = sig
  type t

  val max_width : int
  val empty : t
  val full : int -> t
  val singleton : int -> t
  val add : int -> t -> t
  val remove : int -> t -> t
  val mem : int -> t -> bool
  val union : t -> t -> t
  val inter : t -> t -> t
  val diff : t -> t -> t
  val is_empty : t -> bool
  val equal : t -> t -> bool
  val cardinal : t -> int
  val of_list : int list -> t
  val to_list : t -> int list
  val iter : (int -> unit) -> t -> unit
end

module Word : S with type t = Bitset.t = Bitset

module Wide : S = struct
  (* Limbs of [wbits] = Bitset.max_width bits each, so a one-limb Wide set
     carries exactly a Word set's bit pattern.  Storage is a [Bytes.t] of
     8 bytes per limb (native-endian int64), read and written through the
     compiler's unaligned 64-bit primitives — one load per limb, no bounds
     check, no per-limb boxing — sized so the protocol hot loops (union,
     inter, diff over n=256 sets) touch four cache-resident words.
     Values stay persistent: a buffer is never mutated after the
     constructing operation returns.  Canonical form: no trailing zero
     limbs ([empty] has length 0); every operation restores it, so [equal]
     is [Bytes.equal]. *)
  type t = Bytes.t

  external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
  external unsafe_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

  let wbits = Bitset.max_width

  (* limb values use 62 bits, so [Int64.to_int] is exact *)
  let get s w = Int64.to_int (unsafe_get64 s (w lsl 3))
  let set s w v = unsafe_set64 s (w lsl 3) (Int64.of_int v)
  let limbs s = Bytes.length s lsr 3
  let alloc limbs = Bytes.make (limbs lsl 3) '\000'

  (* all [wbits] bits set; [max_int] = 2^62 - 1 exactly, no shift needed *)
  let limb_full = max_int
  let max_width = max_int
  let empty = Bytes.create 0

  let check_index i =
    if i < 0 then invalid_arg (Printf.sprintf "Procset.Wide: negative index %d" i)

  let trim a =
    let len = ref (limbs a) in
    while !len > 0 && get a (!len - 1) = 0 do
      decr len
    done;
    if !len = limbs a then a else Bytes.sub a 0 (!len lsl 3)

  let full n =
    if n < 0 then invalid_arg (Printf.sprintf "Procset.Wide: width %d out of range" n);
    if n = 0 then empty
    else begin
      let nl = ((n - 1) / wbits) + 1 in
      let a = alloc nl in
      for w = 0 to nl - 1 do
        let bits = min wbits (n - (w * wbits)) in
        set a w (limb_full lsr (wbits - bits))
      done;
      a
    end

  let singleton i =
    check_index i;
    let w = i / wbits in
    let a = alloc (w + 1) in
    set a w (1 lsl (i mod wbits));
    a

  let mem i s =
    i >= 0
    &&
    let w = i / wbits in
    w < limbs s && get s w land (1 lsl (i mod wbits)) <> 0

  let add i s =
    check_index i;
    if mem i s then s
    else begin
      let w = i / wbits in
      let a = alloc (max (limbs s) (w + 1)) in
      Bytes.blit s 0 a 0 (Bytes.length s);
      set a w (get a w lor (1 lsl (i mod wbits)));
      a
    end

  let remove i s =
    if not (mem i s) then s
    else begin
      let a = Bytes.copy s in
      let w = i / wbits in
      set a w (get a w land lnot (1 lsl (i mod wbits)));
      trim a
    end

  let union a b =
    let long, short = if limbs a >= limbs b then (a, b) else (b, a) in
    let ls = limbs short in
    if ls = 0 then long
    else begin
      (* [long]'s top limb is nonzero (canonical), so the result is too *)
      let r = Bytes.copy long in
      for w = 0 to ls - 1 do
        set r w (get r w lor get short w)
      done;
      r
    end

  let inter a b =
    let len = min (limbs a) (limbs b) in
    let r = alloc len in
    for w = 0 to len - 1 do
      set r w (get a w land get b w)
    done;
    trim r

  let diff a b =
    let la = limbs a and lb = limbs b in
    let r = alloc la in
    for w = 0 to la - 1 do
      set r w (get a w land lnot (if w < lb then get b w else 0))
    done;
    trim r

  let is_empty s = Bytes.length s = 0
  let equal a b = Bytes.equal a b

  let popcount x =
    let rec count acc x = if x = 0 then acc else count (acc + 1) (x land (x - 1)) in
    count 0 x

  let cardinal s =
    let acc = ref 0 in
    for w = 0 to limbs s - 1 do
      acc := !acc + popcount (get s w)
    done;
    !acc

  let iter f s =
    for w = 0 to limbs s - 1 do
      let base = w * wbits in
      let rec bits i x =
        if x <> 0 then begin
          if x land 1 <> 0 then f (base + i);
          bits (i + 1) (x lsr 1)
        end
      in
      bits 0 (get s w)
    done

  let of_list l = List.fold_left (fun s i -> add i s) empty l

  let to_list s =
    let acc = ref [] in
    iter (fun i -> acc := i :: !acc) s;
    List.rev !acc
end
