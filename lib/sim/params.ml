
type mode = Crash | Omission | General_omission

type t = { n : int; t_failures : int; horizon : int; mode : mode }

let make ~n ~t ~horizon ~mode =
  if n < 2 then invalid_arg "Params.make: need at least 2 processors";
  if n > 4096 then invalid_arg "Params.make: n is unreasonably large";
  if t < 0 || t >= n then invalid_arg "Params.make: need 0 <= t < n";
  if horizon < 1 then invalid_arg "Params.make: horizon must be >= 1";
  { n; t_failures = t; horizon; mode }

let pp_mode fmt = function
  | Crash -> Format.pp_print_string fmt "crash"
  | Omission -> Format.pp_print_string fmt "omission"
  | General_omission -> Format.pp_print_string fmt "general-omission"

let pp fmt p =
  Format.fprintf fmt "n=%d t=%d T=%d mode=%a" p.n p.t_failures p.horizon pp_mode
    p.mode

let procs p = List.init p.n Fun.id
let times p = List.init (p.horizon + 1) Fun.id
let rounds p = List.init p.horizon (fun k -> k + 1)
