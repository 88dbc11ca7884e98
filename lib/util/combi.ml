let cartesian lists =
  let extend acc l =
    List.concat_map (fun tuple -> List.map (fun x -> x :: tuple) l) acc
  in
  List.map List.rev (List.fold_left extend [ [] ] lists)

let rec cartesian_seq = function
  | [] -> Seq.return []
  | l :: rest ->
      let tails = cartesian_seq rest in
      Seq.concat_map (fun x -> Seq.map (fun tl -> x :: tl) tails) (List.to_seq l)

exception Overflow

(* Checked arithmetic on non-negative operands (all counting here is of
   non-negative quantities).  Detection is exact: [a * b] wrapped iff
   dividing back fails, [a + b] wrapped iff the sum went negative. *)
let add_exn a b =
  let s = a + b in
  if s < 0 then raise Overflow;
  s

let mul_exn a b =
  if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if p / b <> a || p < 0 then raise Overflow;
    p

let choose n k =
  if k < 0 || k > n then 0
  else
    let k = min k (n - k) in
    (* [acc * (n - k + i)] is always divisible by [i] here.  [Overflow]
       fires when an intermediate product leaves the int range — slightly
       conservative (the final binomial is at most a factor [k] below the
       largest intermediate), never wrong. *)
    let rec loop acc i = if i > k then acc else loop (mul_exn acc (n - k + i) / i) (i + 1) in
    loop 1 1

let pow base e =
  if e < 0 then invalid_arg "Combi.pow: negative exponent";
  let rec loop acc e = if e = 0 then acc else loop (mul_exn acc base) (e - 1) in
  loop 1 e
