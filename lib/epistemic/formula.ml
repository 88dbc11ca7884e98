module Model = Eba_fip.Model
module Value = Eba_sim.Value
module Config = Eba_sim.Config

type t =
  | Const of bool
  | Atom of string * Pset.t
  | Not of t
  | And of t list
  | Or of t list
  | Implies of t * t
  | Iff of t * t
  | In of Nonrigid.t * int
  | K of int * t
  | B of Nonrigid.t * int * t
  | E of Nonrigid.t * t
  | C of Nonrigid.t * t
  | Ebox of Nonrigid.t * t
  | Cbox of Nonrigid.t * t
  | Cdia of Nonrigid.t * t
  | Empty of Nonrigid.t
  | Always of t
  | Eventually of t
  | Throughout of t

let atom model name pred = Atom (name, Pset.init (Model.npoints model) pred)

let run_atom model name pred =
  let per_run = Model.horizon model + 1 in
  let s = Pset.create (Model.npoints model) in
  Array.iteri
    (fun r run ->
      let at_time = pred run in
      for time = 0 to per_run - 1 do
        if at_time time then Pset.add s ((r * per_run) + time)
      done)
    model.Model.runs;
  Atom (name, s)

(* [∃0] and [∃1] in one pass over the runs: each run's initial values are
   read once, and its points' bits are written into both atoms' words in
   place. *)
let exists_atoms model =
  let n = Model.n model and np = Model.npoints model in
  let per_run = Model.horizon model + 1 and runs = model.Model.runs in
  let s0 = Pset.create np and s1 = Pset.create np in
  let w0 = s0.Pset.words and w1 = s1.Pset.words and bpw = Pset.bits_per_word in
  let w = ref 0 and b = ref 0 in
  for r = 0 to Array.length runs - 1 do
    let config = runs.(r).Model.config in
    let zero = ref false and one = ref false in
    for i = 0 to n - 1 do
      match Config.value config i with Value.Zero -> zero := true | Value.One -> one := true
    done;
    for _ = 1 to per_run do
      let bit = 1 lsl !b in
      if !zero then w0.(!w) <- w0.(!w) lor bit;
      if !one then w1.(!w) <- w1.(!w) lor bit;
      incr b;
      if !b = bpw then begin
        b := 0;
        incr w
      end
    done
  done;
  (Atom ("exists0", s0), Atom ("exists1", s1))

let exists_value model v =
  let e0, e1 = exists_atoms model in
  match v with Value.Zero -> e0 | Value.One -> e1

let ( &&& ) a b = And [ a; b ]
let ( ||| ) a b = Or [ a; b ]
let neg a = Not a

(* The memo's key: a node's shape over the identity of its leaves.  Two
   nodes are one key when they have the same constructors and operands
   over physically the same atom sets and nonrigid sets — the results
   then coincide, and the comparison never reads a point set.  The hash
   mixes the leaves' ids, so nodes over different leaves (say the fresh
   [∃0] atom of each query) land apart.  That matters because the tables
   hold their keys in ephemerons and reading a key keeps it alive a
   while longer: a lookup must only ever read the keys of its own class,
   or a long-lived env would keep every dead look-alike it compares
   against. *)
module Key = struct
  type nonrec t = t

  let rec equal a b =
    a == b
    ||
    match (a, b) with
    | Const x, Const y -> Bool.equal x y
    | Atom (_, s), Atom (_, s') -> s == s'
    | Not f, Not g | Always f, Always g | Eventually f, Eventually g | Throughout f, Throughout g
      ->
        equal f g
    | And fs, And gs | Or fs, Or gs -> List.equal equal fs gs
    | Implies (f, g), Implies (f', g') | Iff (f, g), Iff (f', g') -> equal f f' && equal g g'
    | In (s, i), In (s', j) -> s == s' && i = j
    | K (i, f), K (j, g) -> i = j && equal f g
    | B (s, i, f), B (s', j, g) -> s == s' && i = j && equal f g
    | E (s, f), E (s', g)
    | C (s, f), C (s', g)
    | Ebox (s, f), Ebox (s', g)
    | Cbox (s, f), Cbox (s', g)
    | Cdia (s, f), Cdia (s', g) ->
        s == s' && equal f g
    | Empty s, Empty s' -> s == s'
    | _ -> false

  let rec hash f =
    let nr = Nonrigid.id in
    match f with
    | Const b -> Bool.to_int b
    | Atom (_, s) -> Hashtbl.hash (1, Pset.id s)
    | Not f -> Hashtbl.hash (2, hash f)
    | And fs -> Hashtbl.hash (3, List.map hash fs)
    | Or fs -> Hashtbl.hash (4, List.map hash fs)
    | Implies (f, g) -> Hashtbl.hash (5, hash f, hash g)
    | Iff (f, g) -> Hashtbl.hash (6, hash f, hash g)
    | In (s, i) -> Hashtbl.hash (7, nr s, i)
    | K (i, f) -> Hashtbl.hash (8, i, hash f)
    | B (s, i, f) -> Hashtbl.hash (9, nr s, i, hash f)
    | E (s, f) -> Hashtbl.hash (10, nr s, hash f)
    | C (s, f) -> Hashtbl.hash (11, nr s, hash f)
    | Ebox (s, f) -> Hashtbl.hash (12, nr s, hash f)
    | Cbox (s, f) -> Hashtbl.hash (13, nr s, hash f)
    | Cdia (s, f) -> Hashtbl.hash (14, nr s, hash f)
    | Empty s -> Hashtbl.hash (15, nr s)
    | Always f -> Hashtbl.hash (16, hash f)
    | Eventually f -> Hashtbl.hash (17, hash f)
    | Throughout f -> Hashtbl.hash (18, hash f)
end

module Memo = Ephemeron.K1.Make (Key)

module Closures = Ephemeron.K1.Make (struct
  type t = Nonrigid.t

  let equal = ( == )
  let hash = Nonrigid.id
end)

(* The conjunction memo's key: a view table, by identity.  A moving GC
   gives it no stable address, so the hash reads its bytes, which never
   change once the table is built. *)
module Conjunctions = Ephemeron.K1.Make (struct
  type t = Bytes.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type env = {
  env_model : Model.t;
  env_nonfaulty : Nonrigid.t;
  env_exists0 : t;
  env_exists1 : t;
  memo : Pset.t Memo.t;
  closures : Continual.closure Closures.t;
  conjunctions : (Nonrigid.t * string * Nonrigid.t) list Conjunctions.t;
      (* per table: (S, name, S ∧ table) *)
}

let env model =
  let e0, e1 = exists_atoms model in
  {
    env_model = model;
    env_nonfaulty = Nonrigid.nonfaulty model;
    env_exists0 = e0;
    env_exists1 = e1;
    memo = Memo.create 64;
    closures = Closures.create 8;
    conjunctions = Conjunctions.create 8;
  }

let model e = e.env_model
let nonfaulty e = e.env_nonfaulty
let exists e v = match v with Value.Zero -> e.env_exists0 | Value.One -> e.env_exists1

let conjoin e s ~name kept_views =
  let known = Option.value (Conjunctions.find_opt e.conjunctions kept_views) ~default:[] in
  match List.find_opt (fun (s', name', _) -> s' == s && String.equal name' name) known with
  | Some (_, _, c) -> c
  | None ->
      let c = Nonrigid.restrict_by_view e.env_model ~name s kept_views in
      Conjunctions.replace e.conjunctions kept_views ((s, name, c) :: known);
      c

let closure_for e s =
  match Closures.find_opt e.closures s with
  | Some cl -> cl
  | None ->
      let cl = Continual.closure e.env_model s in
      Closures.replace e.closures s cl;
      cl

let rec eval e f =
  match f with
  | Const _ | Atom _ -> eval_node e f
  | _ -> (
      match Memo.find_opt e.memo f with
      | Some s -> s
      | None ->
          let s = eval_node e f in
          Memo.replace e.memo f s;
          s)

and eval_node e f =
  let m = e.env_model in
  let np = Model.npoints m in
  match f with
  | Const true -> Pset.full np
  | Const false -> Pset.create np
  | Atom (_, s) -> s
  | Not f -> Pset.complement (eval e f)
  | And fs ->
      List.fold_left (fun acc f -> Pset.inter acc (eval e f)) (Pset.full np) fs
  | Or fs ->
      List.fold_left (fun acc f -> Pset.union acc (eval e f)) (Pset.create np) fs
  | Implies (a, b) -> Pset.union (Pset.complement (eval e a)) (eval e b)
  | Iff (a, b) ->
      let sa = eval e a and sb = eval e b in
      Pset.complement (Pset.union (Pset.diff sa sb) (Pset.diff sb sa))
  | In (s, i) -> Pset.init np (fun pid -> Nonrigid.mem s ~point:pid ~proc:i)
  | K (i, f) -> Knowledge.knows m ~proc:i (eval e f)
  | B (s, i, f) -> Knowledge.believes m s ~proc:i (eval e f)
  | E (s, f) -> Knowledge.everyone_knows m s (eval e f)
  | C (s, f) -> Common.common m s (eval e f)
  | Ebox (s, f) -> Continual.ebox m s (eval e f)
  | Cbox (s, f) -> Continual.cbox (closure_for e s) (eval e f)
  | Cdia (s, f) -> Eventual.eventual_common m s (eval e f)
  | Empty s -> Pset.init np (fun pid -> Nonrigid.is_empty_at s ~point:pid)
  | Always f -> Temporal.always m (eval e f)
  | Eventually f -> Temporal.eventually m (eval e f)
  | Throughout f -> Temporal.throughout m (eval e f)

let holds e f ~point = Pset.mem (eval e f) point
let valid e f = Pset.is_full (eval e f)

let counterexample e f =
  let s = eval e f in
  Pset.choose (Pset.complement s)

let rec pp fmt = function
  | Const b -> Format.pp_print_bool fmt b
  | Atom (name, _) -> Format.pp_print_string fmt name
  | Not f -> Format.fprintf fmt "~%a" pp_paren f
  | And fs -> pp_infix fmt " & " fs
  | Or fs -> pp_infix fmt " | " fs
  | Implies (a, b) -> Format.fprintf fmt "(%a => %a)" pp a pp b
  | Iff (a, b) -> Format.fprintf fmt "(%a <=> %a)" pp a pp b
  | In (s, i) -> Format.fprintf fmt "%d in %a" i Nonrigid.pp s
  | K (i, f) -> Format.fprintf fmt "K_%d %a" i pp_paren f
  | B (s, i, f) -> Format.fprintf fmt "B[%a]_%d %a" Nonrigid.pp s i pp_paren f
  | E (s, f) -> Format.fprintf fmt "E[%a] %a" Nonrigid.pp s pp_paren f
  | C (s, f) -> Format.fprintf fmt "C[%a] %a" Nonrigid.pp s pp_paren f
  | Ebox (s, f) -> Format.fprintf fmt "E□[%a] %a" Nonrigid.pp s pp_paren f
  | Cbox (s, f) -> Format.fprintf fmt "C□[%a] %a" Nonrigid.pp s pp_paren f
  | Cdia (s, f) -> Format.fprintf fmt "C◇[%a] %a" Nonrigid.pp s pp_paren f
  | Empty s -> Format.fprintf fmt "(%a = {})" Nonrigid.pp s
  | Always f -> Format.fprintf fmt "□%a" pp_paren f
  | Eventually f -> Format.fprintf fmt "◇%a" pp_paren f
  | Throughout f -> Format.fprintf fmt "⊟%a" pp_paren f

and pp_paren fmt f =
  match f with
  | Const _ | Atom _ | Not _ | K _ | B _ | E _ | C _ | Ebox _ | Cbox _ | Empty _ ->
      pp fmt f
  | Cdia _ -> pp fmt f
  | And _ | Or _ | Implies _ | Iff _ | In _ | Always _ | Eventually _ | Throughout _ ->
      Format.fprintf fmt "(%a)" pp f

and pp_infix fmt sep fs =
  match fs with
  | [] -> Format.pp_print_string fmt "true"
  | _ ->
      Format.fprintf fmt "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt sep)
           pp)
        fs
