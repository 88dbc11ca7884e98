type t = { top_n : int; link : Link.t }

let make ~n ~link =
  if n < 2 then invalid_arg "Topology.make: need at least 2 processors";
  { top_n = n; link }

let n t = t.top_n
let link t = t.link
let latency_bound t = Link.latency_bound t.link.Link.lat
let pp fmt t = Format.fprintf fmt "mesh n=%d default=%a" t.top_n Link.pp t.link
