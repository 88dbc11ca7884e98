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

(* --- products on slices ---

   The product and square kernels work on slices [(array, offset, length)]
   of the result and of one scratch buffer, both allocated by the top-level
   call ([mul_mag], [sqr_mag]); no recursion level allocates or copies.
   Every kernel writes all limbs of its result range, so neither buffer
   needs clearing.  Operand slices may carry leading zero limbs. *)

let karatsuba_threshold = 40

(* r[ro, ro + la + lb) <- a[ao, ao + la) * b[bo, bo + lb), one row per
   limb of [b] over a cleared low part: row [j] adds into [j, j + la) and
   writes its carry to the fresh limb [j + la].  A limb product plus a
   limb and a carry stays below 2^60, so the carry stays below 2^30.
   Requires la, lb >= 1. *)
let mul_school r ro a ao la b bo lb =
  Array.fill r ro la 0;
  for j = 0 to lb - 1 do
    let bj = b.(bo + j) and rj = ro + j in
    let carry = ref 0 in
    if bj <> 0 then
      for i = 0 to la - 1 do
        let v = r.(rj + i) + (a.(ao + i) * bj) + !carry in
        r.(rj + i) <- v land mask;
        carry := v lsr base_bits
      done;
    r.(rj + la) <- !carry
  done

(* r[ro, ro + 2la) <- a[ao, ao + la)^2: each cross product a_i * a_j
   (i < j) once, in rows as above, then one pass doubles them and adds the
   diagonal a_i^2.  Requires la >= 1. *)
let sqr_school r ro a ao la =
  Array.fill r ro la 0;
  r.(ro + (2 * la) - 1) <- 0;
  for i = 0 to la - 2 do
    let ai = a.(ao + i) and ri = ro + i in
    let carry = ref 0 in
    if ai <> 0 then
      for j = i + 1 to la - 1 do
        let v = r.(ri + j) + (ai * a.(ao + j)) + !carry in
        r.(ri + j) <- v land mask;
        carry := v lsr base_bits
      done;
    r.(ri + la) <- !carry
  done;
  let carry = ref 0 in
  for i = 0 to la - 1 do
    let ai = a.(ao + i) and k = ro + (2 * i) in
    let d = ai * ai in
    let v0 = (r.(k) lsl 1) + (d land mask) + !carry in
    r.(k) <- v0 land mask;
    let v1 = (r.(k + 1) lsl 1) + (d lsr base_bits) + (v0 lsr base_bits) in
    r.(k + 1) <- v1 land mask;
    carry := v1 lsr base_bits
  done

(* d[dof, dof + m) <- |x[xo, xo + m) - y[yo, yo + ly)| for ly <= m, [y]
   read as zero above its length; true when x >= y. *)
let abs_diff d dof x xo m y yo ly =
  let i = ref (m - 1) in
  while !i >= ly && x.(xo + !i) = 0 do
    decr i
  done;
  if !i < ly then
    while !i >= 0 && x.(xo + !i) = y.(yo + !i) do
      decr i
    done;
  let ge = !i < 0 || !i >= ly || x.(xo + !i) > y.(yo + !i) in
  let c = ref 0 in
  if ge then begin
    for k = 0 to ly - 1 do
      let v = x.(xo + k) - y.(yo + k) + !c in
      d.(dof + k) <- v land mask;
      c := v asr base_bits
    done;
    for k = ly to m - 1 do
      let v = x.(xo + k) + !c in
      d.(dof + k) <- v land mask;
      c := v asr base_bits
    done
  end
  else begin
    (* x < y: the limbs of x at and above [ly] are zero *)
    for k = 0 to ly - 1 do
      let v = y.(yo + k) - x.(xo + k) + !c in
      d.(dof + k) <- v land mask;
      c := v asr base_bits
    done;
    Array.fill d (dof + ly) (m - ly) 0
  end;
  ge

(* Adds the signed carry [c] into r[k, top), dropping what passes [top]. *)
let propagate r k top c =
  let k = ref k and c = ref c in
  while !c <> 0 && !k < top do
    let v = r.(!k) + !c in
    r.(!k) <- v land mask;
    c := v asr base_bits;
    incr k
  done

(* Karatsuba's recombination in place.  r[ro, ro + len) holds
   z0 = L0 + H0·B^m (2m limbs) and above it z2 = L2 + H2·B^m (len - 2m >= m
   limbs); p = s[po, po + 2m) = P_lo + P_hi·B^m.  Adds mid = z0 + z2 ± p
   at B^m, so that r becomes
     L0 + (H0 + L2 + L0 ± P_lo)·B^m + (H0 + L2 + H2 ± P_hi)·B^2m + H2·B^3m,
   one pass over m limbs with two carry chains (signed: a block sum can be
   negative when p is subtracted; the whole is not).  No limb reaches 2^32,
   and carries past [len] cancel, since the true result fits. *)
let recombine r ro len m s po add =
  let lz2 = len - (2 * m) in
  let c1 = ref 0 and c2 = ref 0 in
  for i = 0 to m - 1 do
    let t = r.(ro + m + i) + r.(ro + (2 * m) + i) in
    let h2 = if m + i < lz2 then r.(ro + (3 * m) + i) else 0 in
    let p_lo = s.(po + i) and p_hi = s.(po + m + i) in
    let v1 = (if add then t + p_lo else t - p_lo) + r.(ro + i) + !c1 in
    r.(ro + m + i) <- v1 land mask;
    c1 := v1 asr base_bits;
    let v2 = (if add then t + p_hi else t - p_hi) + h2 + !c2 in
    r.(ro + (2 * m) + i) <- v2 land mask;
    c2 := v2 asr base_bits
  done;
  propagate r (ro + (3 * m)) (ro + len) !c2;
  propagate r (ro + (2 * m)) (ro + len) !c1

(* r[ro, ro + la + lb) <- a[ao, ao + la) * b[bo, bo + lb) for
   la >= lb >= 1, with scratch from s[so].  Balanced operands (lb > m, the
   upper half's split point) take the subtractive Karatsuba step:
   a0·b1 + a1·b0 = z0 + z2 + (a0 - a1)(b1 - b0).  An operand of at most m
   limbs cuts [a] into slices of lb limbs instead.  Scratch used from [so]
   stays within [scratch_words la]. *)
let rec mul_into r ro a ao la b bo lb s so =
  if lb <= karatsuba_threshold then mul_school r ro a ao la b bo lb
  else begin
    let m = (la + 1) / 2 in
    if lb <= m then begin
      (* the first slice's product lands in place; each later one is
         formed in scratch and added over its predecessor's top lb limbs *)
      mul_into r ro a ao lb b bo lb s so;
      let k = ref lb in
      while !k < la do
        let c = min lb (la - !k) in
        if c = lb then mul_into s so a (ao + !k) lb b bo lb s (so + (2 * lb))
        else mul_into s so b bo lb a (ao + !k) c s (so + lb + c);
        let rk = ro + !k and carry = ref 0 in
        for i = 0 to lb - 1 do
          let v = r.(rk + i) + s.(so + i) + !carry in
          r.(rk + i) <- v land mask;
          carry := v lsr base_bits
        done;
        for i = lb to lb + c - 1 do
          let v = s.(so + i) + !carry in
          r.(rk + i) <- v land mask;
          carry := v lsr base_bits
        done;
        k := !k + lb
      done
    end
    else begin
      let h = la - m and k = lb - m in
      mul_into r ro a ao m b bo m s so;
      mul_into r (ro + (2 * m)) a (ao + m) h b (bo + m) k s so;
      let sa = abs_diff s so a ao m a (ao + m) h in
      let sb = abs_diff s (so + m) b bo m b (bo + m) k in
      (* (a0 - a1)(b1 - b0) is |a0 - a1|·|b1 - b0| when a0 >= a1 and
         b1 > b0, or a0 < a1 and b1 <= b0 *)
      mul_into s (so + (2 * m)) s so m s (so + m) m s (so + (4 * m));
      recombine r ro (la + lb) m s (so + (2 * m)) (sa <> sb)
    end
  end

(* r[ro, ro + 2la) <- a[ao, ao + la)^2: z0 + z2 - (a0 - a1)^2 is
   2·a0·a1.  Scratch from [so]: at most 3·la + 3·(levels) words. *)
let rec sqr_into r ro a ao la s so =
  if la <= karatsuba_threshold then sqr_school r ro a ao la
  else begin
    let m = (la + 1) / 2 in
    let h = la - m in
    sqr_into r ro a ao m s so;
    sqr_into r (ro + (2 * m)) a (ao + m) h s so;
    ignore (abs_diff s so a ao m a (ao + m) h);
    sqr_into s (so + m) s so m s (so + (3 * m));
    recombine r ro (2 * la) m s (so + m) false
  end

(* A Karatsuba step on an [n]-limb operand holds 4·ceil(n/2) <= 2n + 2
   words of scratch while its middle product recurses on ceil(n/2) limbs,
   and a sliced product holds 2·lb <= n + 1 words above a balanced
   lb-limb one, so a product needs at most 4n + 4·(depth) words; the
   depth is below 63, the bit length of an [int]. *)
let scratch_words la = (4 * la) + 256

let mul_mag a b =
  let a, b = if Array.length a >= Array.length b then (a, b) else (b, a) in
  let la = Array.length a and lb = Array.length b in
  if lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    let s = if lb <= karatsuba_threshold then [||] else Array.make (scratch_words la) 0 in
    mul_into r 0 a 0 la b 0 lb s 0;
    norm_mag r
  end

let sqr_mag a =
  let la = Array.length a in
  if la = 0 then [||]
  else begin
    let r = Array.make (2 * la) 0 in
    let s = if la <= karatsuba_threshold then [||] else Array.make (scratch_words la) 0 in
    sqr_into r 0 a 0 la s 0;
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
    let rec powers acc p = if cmp_mag p t.mag > 0 then acc else powers (p :: acc) (sqr_mag p) in
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
