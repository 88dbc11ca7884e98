module Spec = Eba.Server.Spec

(* what [eba probcheck -n N -t T --latency L --loss P] computes *)
let case ~n ~t ~latency ~loss () =
  Result.get_ok
    (Spec.Probcheck.report { Spec.Probcheck.default with n; t_failures = t; latency; loss })

let small = case ~n:4 ~t:1 ~latency:(Eba.Net.Link.Const 1.0) ~loss:"0.25"
let n64 = case ~n:64 ~t:8 ~latency:(Eba.Net.Link.Uniform (0.2, 1.0)) ~loss:"0.05"

let by_name = function
  | "small" -> Some (small ())
  | "n64" -> Some (n64 ())
  | _ -> None
