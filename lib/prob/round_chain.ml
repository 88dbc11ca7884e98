module Bigint = Eba_util.Bigint
module Sync = Eba_net.Sync
module Link = Eba_net.Link

type spec = {
  attempts : int;
  loss : Q.t;
  in_window : Q.t array;
  success : Q.t array;
}

let clamp01 q = Q.max Q.zero (Q.min Q.one q)

let latency_cdf lat ~cutoff =
  match lat with
  | Link.Const c -> if Q.compare (Q.of_float c) cutoff < 0 then Q.one else Q.zero
  | Link.Uniform (lo, hi) ->
      if hi = lo then
        if Q.compare (Q.of_float lo) cutoff < 0 then Q.one else Q.zero
      else begin
        let lo = Q.of_float lo and hi = Q.of_float hi in
        clamp01 (Q.div (Q.sub cutoff lo) (Q.sub hi lo))
      end
  | Link.Spike { base; prob; spike } ->
      let p = clamp01 (Q.of_float prob) in
      let hit q = if Q.compare (Q.of_float q) cutoff < 0 then Q.one else Q.zero in
      Q.add (Q.mul (Q.one_minus p) (hit base)) (Q.mul p (hit spike))

let spec ~sync ~latency ~loss =
  if Q.sign loss < 0 || Q.compare loss Q.one >= 0 then
    invalid_arg "Round_chain.spec: loss must be in [0, 1)";
  let offsets = Sync.attempt_times sync in
  let attempts = Array.length offsets in
  let window = Q.of_float sync.Sync.round_duration in
  let in_window =
    Array.map
      (fun off -> latency_cdf latency ~cutoff:(Q.sub window (Q.of_float off)))
      offsets
  in
  let survive = Q.one_minus loss in
  let success = Array.map (fun u -> Q.mul survive u) in_window in
  { attempts; loss; in_window; success }

let miss_after spec k =
  if k < 0 || k > spec.attempts then
    invalid_arg "Round_chain.miss_after: attempt index out of range";
  let acc = ref Q.one in
  for a = 0 to k - 1 do
    acc := Q.mul !acc (Q.one_minus spec.success.(a))
  done;
  !acc

let per_message_miss spec = miss_after spec spec.attempts

let all_by spec ~m ~k =
  if m < 0 then invalid_arg "Round_chain.all_by: m must be >= 0";
  Q.pow (Q.one_minus (miss_after spec k)) m

let base_bits spec =
  let prod =
    Array.fold_left
      (fun acc s -> Bigint.mul acc (Q.den (Q.one_minus s)))
      Bigint.one spec.success
  in
  if Bigint.equal prod Bigint.one then 0 else Bigint.num_bits prod

let expected_undelivered spec ~m = Q.mul (Q.of_int m) (per_message_miss spec)

type landing = {
  miss_after_attempt : Q.t array;
  all_by_attempt : Q.t array;
  exactly_decimal : string array;
  residual_decimal : string;
}

(* Rows over the shared denominator L^m (see the interface): one
   small-base power and one subtraction each, never a product of two huge
   denominators, never a gcd. *)
let landing ?sig_figs ?cancel spec ~m =
  if m < 1 then invalid_arg "Round_chain.landing: m must be >= 1";
  (* the running products miss_after 0 .. attempts, one multiply each *)
  let miss_after_attempt = Array.make (spec.attempts + 1) Q.one in
  for a = 1 to spec.attempts do
    miss_after_attempt.(a) <-
      Q.mul miss_after_attempt.(a - 1) (Q.one_minus spec.success.(a - 1))
  done;
  let base = Array.map Q.one_minus miss_after_attempt in
  let l =
    Array.fold_left
      (fun l b ->
        let d = Q.den b in
        Bigint.mul l (fst (Bigint.divmod d (Bigint.gcd l d))))
      Bigint.one base
  in
  let all_by_attempt = Array.make (spec.attempts + 1) Q.zero in
  let scaled = Array.make (spec.attempts + 1) Bigint.zero in
  Array.iteri
    (fun k b ->
      Eba_util.Cancel.check_opt cancel;
      let p = Q.pow b m in
      all_by_attempt.(k) <- p;
      (* c_k: reuse the numerator when d_k = L already *)
      let scale = fst (Bigint.divmod l (Q.den b)) in
      scaled.(k) <-
        (if Bigint.equal scale Bigint.one then Q.num p
         else Bigint.pow (Bigint.mul (Q.num b) scale) m))
    base;
  let den = Bigint.pow l m in
  let exactly_decimal =
    Array.init spec.attempts (fun i ->
        Q.decimal_of_ratio ?sig_figs
          ~num:(Bigint.sub scaled.(i + 1) scaled.(i))
          ~den ())
  in
  let residual_decimal =
    Q.decimal_of_ratio ?sig_figs
      ~num:(Bigint.sub den scaled.(spec.attempts))
      ~den ()
  in
  { miss_after_attempt; all_by_attempt; exactly_decimal; residual_decimal }

let chain spec ~m =
  if m < 0 then invalid_arg "Round_chain.chain: m must be >= 0";
  let rows = Array.make (spec.attempts + 1) [||] in
  let row0 = Array.make (m + 1) Q.zero in
  row0.(m) <- Q.one;
  rows.(0) <- row0;
  for a = 1 to spec.attempts do
    let s = spec.success.(a - 1) in
    let fail = Q.one_minus s in
    let prev = rows.(a - 1) in
    let next = Array.make (m + 1) Q.zero in
    for j = 0 to m do
      if not (Q.is_zero prev.(j)) then
        (* j undelivered; each lands independently with probability s. *)
        for i = 0 to j do
          let move =
            Q.mul
              (Q.of_bigint (Binomial.choose j i))
              (Q.mul (Q.pow s i) (Q.pow fail (j - i)))
          in
          next.(j - i) <- Q.add next.(j - i) (Q.mul prev.(j) move)
        done
    done;
    rows.(a) <- next
  done;
  rows

let pp_spec fmt spec =
  Format.fprintf fmt "attempts=%d loss=%s success=[%s]" spec.attempts
    (Q.to_string spec.loss)
    (String.concat "; " (Array.to_list (Array.map Q.to_string spec.success)))
