type t = int

let max_width = 62

let empty = 0

let check_width n =
  if n < 0 || n > max_width then
    invalid_arg (Printf.sprintf "Bitset: width %d out of range" n)

let full n =
  check_width n;
  if n = 0 then 0 else (1 lsl n) - 1

let check_index i =
  if i < 0 || i >= max_width then
    invalid_arg (Printf.sprintf "Bitset: index %d out of range" i)

let singleton i =
  check_index i;
  1 lsl i

let add i s = s lor singleton i
let remove i s = if i < 0 then s else s land lnot (singleton i)
let mem i s = i >= 0 && i < max_width && s land (1 lsl i) <> 0
let union a b = a lor b
let inter a b = a land b
let diff a b = a land lnot b
let is_empty s = s = 0
let equal (a : int) b = a = b
let compare (a : int) b = Stdlib.compare a b
let subset a b = a land lnot b = 0
let disjoint a b = a land b = 0

let cardinal s =
  let rec count acc s = if s = 0 then acc else count (acc + 1) (s land (s - 1)) in
  count 0 s

let of_list l = List.fold_left (fun s i -> add i s) empty l

let fold f s init =
  let rec loop i s acc =
    if s = 0 then acc
    else if s land 1 <> 0 then loop (i + 1) (s lsr 1) (f i acc)
    else loop (i + 1) (s lsr 1) acc
  in
  loop 0 s init

let to_list s = List.rev (fold (fun i acc -> i :: acc) s [])
let iter f s = fold (fun i () -> f i) s ()
let for_all p s = fold (fun i acc -> acc && p i) s true
let exists p s = fold (fun i acc -> acc || p i) s false
let filter p s = fold (fun i acc -> if p i then add i acc else acc) s empty

let choose s =
  if s = 0 then None
  else
    let rec first i s = if s land 1 <> 0 then Some i else first (i + 1) (s lsr 1) in
    first 0 s

let to_int s = s
let of_int s = s

(* Enumerate the subsets of [mask] directly with the [(sub - mask) land
   mask] successor trick: 2^|mask| steps in increasing bit-pattern order,
   instead of enumerating every integer up to [mask] and filtering. *)
let subsets_of mask =
  let rec loop sub acc =
    let acc = sub :: acc in
    if sub = mask then List.rev acc else loop ((sub - mask) land mask) acc
  in
  loop 0 []

let subsets n =
  check_width n;
  subsets_of (full n)

let subsets_upto n k =
  let all = subsets n in
  let by_card = List.filter (fun s -> cardinal s <= k) all in
  List.stable_sort (fun a b -> Stdlib.compare (cardinal a) (cardinal b)) by_card

let pp fmt s =
  Format.fprintf fmt "{%s}" (String.concat "," (List.map string_of_int (to_list s)))
