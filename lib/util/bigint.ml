(* Sign-magnitude bignum over base-2^30 limbs (little-endian int arrays,
   no leading zeros; zero has an empty magnitude and sign 0).  The limb
   width keeps every intermediate product below 2^61, inside the native
   63-bit [int]. *)

let base_bits = 30
let base = 1 lsl base_bits
let mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

let norm_mag mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length mag then mag else Array.sub mag 0 !n

let make sign mag =
  let mag = norm_mag mag in
  if Array.length mag = 0 then zero else { sign; mag }

let of_int n =
  if n = 0 then zero
  else begin
    let sign = if n < 0 then -1 else 1 in
    (* Walk the negative side: its range is one wider, so [min_int] needs
       no special case. *)
    let v = ref (if n < 0 then n else -n) in
    let acc = ref [] in
    while !v <> 0 do
      acc := -(!v mod base) :: !acc;
      v := !v / base
    done;
    { sign; mag = Array.of_list (List.rev !acc) }
  end

let one = of_int 1

let to_int_opt t =
  if t.sign = 0 then Some 0
  else begin
    (* Accumulate the negated value, again for the wider negative range. *)
    let r = ref 0 in
    let ok = ref true in
    for i = Array.length t.mag - 1 downto 0 do
      let limb = t.mag.(i) in
      if !ok then
        if !r < (min_int + limb) / base then ok := false
        else r := (!r * base) - limb
    done;
    if not !ok then None
    else if t.sign < 0 then Some !r
    else if !r = min_int then None
    else Some (- !r)
  end

let sign t = t.sign
let neg t = if t.sign = 0 then t else { t with sign = -t.sign }
let abs t = if t.sign < 0 then neg t else t

let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let i = ref (la - 1) in
    while !i >= 0 && a.(!i) = b.(!i) do
      decr i
    done;
    if !i < 0 then 0 else compare a.(!i) b.(!i)
  end

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s =
      !carry
      + (if i < la then a.(i) else 0)
      + (if i < lb then b.(i) else 0)
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
    let lo x =
      norm_mag (Array.sub x 0 (min m (Array.length x)))
    in
    let hi x =
      if Array.length x <= m then [||]
      else Array.sub x m (Array.length x - m)
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

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then { sign = a.sign; mag = add_mag a.mag b.mag }
  else begin
    let c = cmp_mag a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then { sign = a.sign; mag = sub_mag a.mag b.mag }
    else { sign = b.sign; mag = sub_mag b.mag a.mag }
  end

let sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else { sign = a.sign * b.sign; mag = mul_mag a.mag b.mag }

(* [x * 2^(limbs * base_bits + s)] for 0 <= s < base_bits, unnormalized:
   always one extra top limb. *)
let shl_bits ?(limbs = 0) x s =
  let lx = Array.length x in
  let r = Array.make (limbs + lx + 1) 0 in
  let carry = ref 0 in
  for i = 0 to lx - 1 do
    let v = (x.(i) lsl s) lor !carry in
    r.(limbs + i) <- v land mask;
    carry := v lsr base_bits
  done;
  r.(limbs + lx) <- !carry;
  r

let shr_bits x s =
  if s = 0 then norm_mag (Array.copy x)
  else begin
    let lx = Array.length x in
    let r = Array.make lx 0 in
    let carry = ref 0 in
    for i = lx - 1 downto 0 do
      r.(i) <- (x.(i) lsr s) lor (!carry lsl (base_bits - s));
      carry := x.(i) land ((1 lsl s) - 1)
    done;
    norm_mag r
  end

(* Schoolbook square: the diagonal a_i^2 first, then each cross product
   once, doubled on the fly (2 * a_i * a_j < 2^61 still fits an int). *)
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

(* Karatsuba square: three half-size squarings, the middle one of
   (a0 + a1), from which 2 * a0 * a1 = mid - z0 - z2. *)
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

let trailing_zero_bits mag =
  let z = ref 0 in
  while mag.(!z) = 0 do
    incr z
  done;
  let t = ref 0 in
  while (mag.(!z) lsr !t) land 1 = 0 do
    incr t
  done;
  (!z * base_bits) + !t

(* Left to right: square, then multiply by the base on each set bit of
   [e].  The base stays its original (small) size, so those multiplies
   are linear.  Only the odd part of the base is raised: with
   b = odd * 2^s, b^e = odd^e * 2^(s * e) costs a shift, not s * e bits
   of squarings. *)
let pow b e =
  if e < 0 then invalid_arg "Bigint.pow: negative exponent";
  if e = 0 then one
  else if b.sign = 0 then zero
  else begin
    let s = trailing_zero_bits b.mag in
    if s > 0 && e > max_int / s then invalid_arg "Bigint.pow: result too large";
    let z = s / base_bits in
    let odd = shr_bits (Array.sub b.mag z (Array.length b.mag - z)) (s mod base_bits) in
    let r = ref odd in
    let top = ref 0 in
    while e lsr (!top + 1) <> 0 do
      incr top
    done;
    for i = !top - 1 downto 0 do
      r := sqr_mag !r;
      if (e lsr i) land 1 = 1 then r := mul_mag odd !r
    done;
    let shift = s * e in
    let mag =
      if shift = 0 then !r
      else
        norm_mag
          (shl_bits ~limbs:(shift / base_bits) !r (shift mod base_bits))
    in
    { sign = (if b.sign < 0 && e land 1 = 1 then -1 else 1); mag }
  end

(* Knuth's Algorithm D on magnitudes; returns (quotient, remainder). *)
let divmod_mag a b =
  let lb = Array.length b in
  if lb = 0 then raise Division_by_zero;
  if cmp_mag a b < 0 then ([||], norm_mag (Array.copy a))
  else if lb = 1 then begin
    let d = b.(0) in
    let la = Array.length a in
    let q = Array.make la 0 in
    let r = ref 0 in
    for i = la - 1 downto 0 do
      let v = (!r * base) + a.(i) in
      q.(i) <- v / d;
      r := v mod d
    done;
    (norm_mag q, if !r = 0 then [||] else [| !r |])
  end
  else begin
    let la = Array.length a in
    (* Normalize so the divisor's top limb has its high bit set. *)
    let s = ref 0 in
    while (b.(lb - 1) lsl !s) < base / 2 do
      incr s
    done;
    let s = !s in
    let vn = Array.sub (shl_bits b s) 0 lb in
    let un = shl_bits a s in
    let m = la - lb in
    let q = Array.make (m + 1) 0 in
    for j = m downto 0 do
      let u2 = (un.(j + lb) * base) + un.(j + lb - 1) in
      let qhat = ref (u2 / vn.(lb - 1)) in
      let rhat = ref (u2 mod vn.(lb - 1)) in
      let adjusting = ref true in
      while !adjusting do
        if
          !qhat >= base
          || !qhat * vn.(lb - 2) > (!rhat * base) + un.(j + lb - 2)
        then begin
          decr qhat;
          rhat := !rhat + vn.(lb - 1);
          if !rhat >= base then adjusting := false
        end
        else adjusting := false
      done;
      (* Multiply-subtract qhat * vn from un[j .. j+lb]. *)
      let carry = ref 0 in
      let borrow = ref 0 in
      for i = 0 to lb - 1 do
        let p = (!qhat * vn.(i)) + !carry in
        carry := p lsr base_bits;
        let d = un.(j + i) - (p land mask) - !borrow in
        if d < 0 then begin
          un.(j + i) <- d + base;
          borrow := 1
        end
        else begin
          un.(j + i) <- d;
          borrow := 0
        end
      done;
      let d = un.(j + lb) - !carry - !borrow in
      if d < 0 then begin
        (* qhat was one too large: add the divisor back. *)
        un.(j + lb) <- d + base;
        decr qhat;
        let carry = ref 0 in
        for i = 0 to lb - 1 do
          let v = un.(j + i) + vn.(i) + !carry in
          un.(j + i) <- v land mask;
          carry := v lsr base_bits
        done;
        un.(j + lb) <- (un.(j + lb) + !carry) land mask
      end
      else un.(j + lb) <- d;
      q.(j) <- !qhat
    done;
    (norm_mag q, shr_bits (Array.sub un 0 lb) s)
  end

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  if a.sign = 0 then (zero, zero)
  else begin
    let qm, rm = divmod_mag a.mag b.mag in
    (make (a.sign * b.sign) qm, make a.sign rm)
  end

let gcd a b =
  let rec go a b =
    if Array.length b = 0 then a else go b (snd (divmod_mag a b))
  in
  if a.sign = 0 then abs b
  else if b.sign = 0 then abs a
  else make 1 (go a.mag b.mag)

let compare a b =
  if a.sign <> b.sign then compare a.sign b.sign
  else if a.sign >= 0 then cmp_mag a.mag b.mag
  else cmp_mag b.mag a.mag

let equal a b = compare a b = 0

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let negated = s.[0] = '-' in
  let start = if negated then 1 else 0 in
  if start >= len then invalid_arg "Bigint.of_string: lone sign";
  let v = ref zero in
  let chunk_base = of_int 1_000_000_000 in
  let i = ref start in
  while !i < len do
    let stop = min len (!i + 9) in
    let chunk = ref 0 in
    for j = !i to stop - 1 do
      match s.[j] with
      | '0' .. '9' -> chunk := (!chunk * 10) + (Char.code s.[j] - Char.code '0')
      | c -> invalid_arg (Printf.sprintf "Bigint.of_string: bad char %C" c)
    done;
    let scale =
      if stop - !i = 9 then chunk_base else of_int (int_of_float (10. ** float_of_int (stop - !i)))
    in
    v := add (mul !v scale) (of_int !chunk);
    i := stop
  done;
  if negated then neg !v else !v

let to_string t =
  if t.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    if t.sign < 0 then Buffer.add_char buf '-';
    (* Divide-and-conquer on powers 10^(9 * 2^k), largest first, so the
       cost is dominated by balanced divisions instead of a quadratic
       chunk-at-a-time scan. *)
    let chunk = [| 1_000_000_000 |] in
    let rec powers acc p = if cmp_mag p t.mag > 0 then acc else powers (p :: acc) (mul_mag p p) in
    let ps = powers [] chunk in
    (* [ps] is descending; [pad] forces full zero-padded width. *)
    let rec emit ~pad x ps =
      match ps with
      | [] ->
          let v = if Array.length x = 0 then 0 else x.(0) in
          if pad then Buffer.add_string buf (Printf.sprintf "%09d" v)
          else Buffer.add_string buf (string_of_int v)
      | p :: rest ->
          if (not pad) && cmp_mag x p < 0 then emit ~pad x rest
          else begin
            let q, r = divmod_mag x p in
            emit ~pad q rest;
            emit ~pad:true r rest
          end
    in
    emit ~pad:false t.mag ps;
    Buffer.contents buf
  end

let num_bits t =
  let l = Array.length t.mag in
  if l = 0 then 0
  else begin
    let top = t.mag.(l - 1) in
    let b = ref 0 in
    while top lsr !b <> 0 do
      incr b
    done;
    ((l - 1) * base_bits) + !b
  end

let pp fmt t = Format.pp_print_string fmt (to_string t)
