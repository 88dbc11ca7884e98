(* The reference products for [Bigint]'s kernels: schoolbook product and
   square, and the Karatsuba recursion over fresh arrays that they switch
   to above 32 limbs, each level building its halves, sums and differences
   as new arrays.  They work on their own limb arrays: inputs are read off
   a value's magnitude (the record is a read-only view) and results are
   normalized magnitudes, compared limb by limb with the kernels'.  Nothing
   here calls [Bigint]'s arithmetic. *)

module B = Eba.Bigint

let base_bits = 30
let base = 1 lsl base_bits
let mask = base - 1

let norm_mag mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length mag then mag else Array.sub mag 0 !n

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s =
      !carry + (if i < la then a.(i) else 0) + if i < lb then b.(i) else 0
    in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  norm_mag r

(* Requires |a| >= |b|. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  norm_mag r

let add_into r x off =
  let lx = Array.length x in
  let carry = ref 0 in
  for i = 0 to lx - 1 do
    let v = r.(off + i) + x.(i) + !carry in
    r.(off + i) <- v land mask;
    carry := v lsr base_bits
  done;
  let k = ref (off + lx) in
  while !carry <> 0 do
    let v = r.(!k) + !carry in
    r.(!k) <- v land mask;
    carry := v lsr base_bits;
    incr k
  done

let mul_school a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make (la + lb) 0 in
  for i = 0 to la - 1 do
    let ai = a.(i) in
    if ai <> 0 then begin
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        let v = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- v land mask;
        carry := v lsr base_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let v = r.(!k) + !carry in
        r.(!k) <- v land mask;
        carry := v lsr base_bits;
        incr k
      done
    end
  done;
  norm_mag r

let kara_threshold = 32

let rec mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else if la <= kara_threshold || lb <= kara_threshold then mul_school a b
  else begin
    let m = (max la lb + 1) / 2 in
    let lo x = norm_mag (Array.sub x 0 (min m (Array.length x))) in
    let hi x =
      if Array.length x <= m then [||] else Array.sub x m (Array.length x - m)
    in
    let a0 = lo a and a1 = hi a and b0 = lo b and b1 = hi b in
    let z0 = mul_mag a0 b0 in
    let z2 = mul_mag a1 b1 in
    let mid = mul_mag (add_mag a0 a1) (add_mag b0 b1) in
    (* mid >= z0 + z2, so both magnitude subtractions are valid. *)
    let z1 = sub_mag (sub_mag mid z0) z2 in
    let r = Array.make (la + lb) 0 in
    add_into r z0 0;
    add_into r z2 (2 * m);
    add_into r z1 m;
    norm_mag r
  end

(* The diagonal a_i^2 first, then each cross product once, doubled on the
   fly (2 * a_i * a_j < 2^61 still fits an int). *)
let sqr_school a =
  let la = Array.length a in
  let r = Array.make (2 * la) 0 in
  for i = 0 to la - 1 do
    let d = a.(i) * a.(i) in
    r.(2 * i) <- d land mask;
    r.((2 * i) + 1) <- d lsr base_bits
  done;
  for i = 0 to la - 2 do
    let ai2 = 2 * a.(i) in
    if ai2 <> 0 then begin
      let carry = ref 0 in
      for j = i + 1 to la - 1 do
        let v = r.(i + j) + (ai2 * a.(j)) + !carry in
        r.(i + j) <- v land mask;
        carry := v lsr base_bits
      done;
      let k = ref (i + la) in
      while !carry <> 0 do
        let v = r.(!k) + !carry in
        r.(!k) <- v land mask;
        carry := v lsr base_bits;
        incr k
      done
    end
  done;
  norm_mag r

(* Three half-size squarings, the middle one of (a0 + a1), from which
   2 * a0 * a1 = mid - z0 - z2. *)
let rec sqr_mag a =
  let la = Array.length a in
  if la <= kara_threshold then sqr_school a
  else begin
    let m = (la + 1) / 2 in
    let a0 = norm_mag (Array.sub a 0 m) and a1 = Array.sub a m (la - m) in
    let z0 = sqr_mag a0 in
    let z2 = sqr_mag a1 in
    let z1 = sub_mag (sub_mag (sqr_mag (add_mag a0 a1)) z0) z2 in
    let r = Array.make (2 * la) 0 in
    add_into r z0 0;
    add_into r z2 (2 * m);
    add_into r z1 m;
    norm_mag r
  end

(* Right to left over the bits of [e], the whole base squared each step. *)
let pow_mag a e =
  let rec go acc sq e =
    if e = 0 then acc
    else
      let acc = if e land 1 = 1 then mul_mag acc sq else acc in
      if e = 1 then acc else go acc (sqr_mag sq) (e lsr 1)
  in
  go [| 1 |] a e

(* What [B.mul x y] and [B.pow x e] must be, as (sign, magnitude). *)
let mul x y =
  let mag = mul_mag x.B.mag y.B.mag in
  ((if Array.length mag = 0 then 0 else x.B.sign * y.B.sign), mag)

let pow x e =
  if e = 0 then (1, [| 1 |])
  else
    let mag = pow_mag x.B.mag e in
    ( (if Array.length mag = 0 then 0 else if x.B.sign < 0 && e land 1 = 1 then -1 else 1),
      mag )

let equal x (sign, mag) = x.B.sign = sign && x.B.mag = mag
