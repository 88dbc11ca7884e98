module Bigint = Eba_util.Bigint

type t = { num : Bigint.t; den : Bigint.t }

let zero = { num = Bigint.zero; den = Bigint.one }
let one = { num = Bigint.one; den = Bigint.one }

let make num den =
  let s = Bigint.sign den in
  if s = 0 then raise Division_by_zero;
  let num = if s < 0 then Bigint.neg num else num in
  let den = Bigint.abs den in
  if Bigint.sign num = 0 then zero
  else begin
    let g = Bigint.gcd num den in
    if Bigint.equal g Bigint.one then { num; den }
    else { num = fst (Bigint.divmod num g); den = fst (Bigint.divmod den g) }
  end

let of_ints a b = make (Bigint.of_int a) (Bigint.of_int b)
let of_int a = { num = Bigint.of_int a; den = Bigint.one }
let of_bigint n = { num = n; den = Bigint.one }

let of_float f =
  if not (Float.is_finite f) then invalid_arg "Q.of_float: not finite";
  if f = 0.0 then zero
  else begin
    let m, e = Float.frexp f in
    (* m * 2^53 is an integer of magnitude < 2^53: every finite float is
       exactly this dyadic rational. *)
    let mi = int_of_float (Float.ldexp m 53) in
    let e = e - 53 in
    let two = Bigint.of_int 2 in
    if e >= 0 then make (Bigint.mul (Bigint.of_int mi) (Bigint.pow two e)) Bigint.one
    else make (Bigint.of_int mi) (Bigint.pow two (-e))
  end

let of_decimal_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Q.of_decimal_string: empty string";
  let negated = s.[0] = '-' in
  let start = if negated || s.[0] = '+' then 1 else 0 in
  let buf = Buffer.create len in
  let frac = ref (-1) in
  for i = start to len - 1 do
    match s.[i] with
    | '0' .. '9' as c ->
        Buffer.add_char buf c;
        if !frac >= 0 then incr frac
    | '.' when !frac < 0 -> frac := 0
    | c -> invalid_arg (Printf.sprintf "Q.of_decimal_string: bad char %C" c)
  done;
  if Buffer.length buf = 0 then
    invalid_arg "Q.of_decimal_string: no digits";
  let digits = Bigint.of_string (Buffer.contents buf) in
  let den = Bigint.pow (Bigint.of_int 10) (Stdlib.max 0 !frac) in
  let v = make digits den in
  if negated then { v with num = Bigint.neg v.num } else v

let num q = q.num
let den q = q.den
let sign q = Bigint.sign q.num
let is_zero q = Bigint.sign q.num = 0
let neg q = { q with num = Bigint.neg q.num }

let add a b =
  make
    (Bigint.add (Bigint.mul a.num b.den) (Bigint.mul b.num a.den))
    (Bigint.mul a.den b.den)

let sub a b = add a (neg b)
let mul a b = make (Bigint.mul a.num b.num) (Bigint.mul a.den b.den)

let inv q =
  match Bigint.sign q.num with
  | 0 -> raise Division_by_zero
  | s when s > 0 -> { num = q.den; den = q.num }
  | _ -> { num = Bigint.neg q.den; den = Bigint.abs q.num }

let div a b = mul a (inv b)
let one_minus q = sub one q

let pow q k =
  (* Normalized input stays normalized: gcd(n^k, d^k) = gcd(n, d)^k = 1.
     This is the engine's hot path — no gcd of huge operands, ever. *)
  if k = 0 then one
  else if k > 0 then { num = Bigint.pow q.num k; den = Bigint.pow q.den k }
  else inv { num = Bigint.pow q.num (-k); den = Bigint.pow q.den (-k) }

let compare a b =
  Bigint.compare (Bigint.mul a.num b.den) (Bigint.mul b.num a.den)

let equal a b = Bigint.equal a.num b.num && Bigint.equal a.den b.den
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let to_string q =
  if Bigint.equal q.den Bigint.one then Bigint.to_string q.num
  else Bigint.to_string q.num ^ "/" ^ Bigint.to_string q.den

let decimal_of_ratio ?(sig_figs = 9) ~num ~den () =
  if sig_figs < 1 then invalid_arg "Q.decimal_of_ratio: sig_figs must be >= 1";
  if Bigint.sign den <= 0 then
    invalid_arg "Q.decimal_of_ratio: denominator must be > 0";
  if Bigint.sign num = 0 then "0"
  else begin
    let ten = Bigint.of_int 10 in
    let n = Bigint.abs num and d = den in
    (* n/d > 2^(bn - bd - 1), so e0 is at or below the exponent of n/d;
       the trailing - 1 absorbs any error of the float logarithm. *)
    let e0 =
      int_of_float
        (Float.floor
           (float_of_int (Bigint.num_bits n - Bigint.num_bits d - 1)
           *. Float.log10 2.))
      - 1
    in
    (* The one big division: x = n * 10^(sig_figs - 1 - e0) / d. *)
    let k = sig_figs - 1 - e0 in
    let a, b =
      if k >= 0 then (Bigint.mul n (Bigint.pow ten k), d)
      else (n, Bigint.mul d (Bigint.pow ten (-k)))
    in
    let q, r = Bigint.divmod a b in
    let hi = Bigint.pow ten sig_figs in
    (* The exponent is the least e whose half-up mantissa is below
       10^sig_figs.  One step up divides x by ten: its floor is the
       previous floor over ten, and it rounds up iff the dropped digit
       is 5 or more. *)
    let rec search e q up =
      let m = if up then Bigint.add q Bigint.one else q in
      if Bigint.compare m hi < 0 then (e, m)
      else begin
        let q', digit = Bigint.divmod q ten in
        search (e + 1) q' (Bigint.compare digit (Bigint.of_int 5) >= 0)
      end
    in
    let e, m =
      search e0 q (Bigint.compare (Bigint.mul (Bigint.of_int 2) r) b >= 0)
    in
    let digits = Bigint.to_string m in
    let trimmed =
      let stop = ref (String.length digits) in
      while !stop > 1 && digits.[!stop - 1] = '0' do
        decr stop
      done;
      String.sub digits 0 !stop
    in
    let sign = if Bigint.sign num < 0 then "-" else "" in
    if e >= -4 && e < sig_figs then begin
      if e >= 0 then begin
        let width = e + 1 in
        let whole =
          if String.length trimmed >= width then String.sub trimmed 0 width
          else trimmed ^ String.make (width - String.length trimmed) '0'
        in
        let frac =
          if String.length trimmed > width then
            "." ^ String.sub trimmed width (String.length trimmed - width)
          else ""
        in
        sign ^ whole ^ frac
      end
      else sign ^ "0." ^ String.make (-e - 1) '0' ^ trimmed
    end
    else begin
      let head = String.make 1 trimmed.[0] in
      let tail =
        if String.length trimmed > 1 then
          "." ^ String.sub trimmed 1 (String.length trimmed - 1)
        else ""
      in
      Printf.sprintf "%s%s%se%+03d" sign head tail e
    end
  end

let to_decimal ?sig_figs q = decimal_of_ratio ?sig_figs ~num:q.num ~den:q.den ()

let pp fmt q = Format.pp_print_string fmt (to_string q)
