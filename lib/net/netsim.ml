module Params = Eba_sim.Params
module Config = Eba_sim.Config
module Pattern = Eba_sim.Pattern

let lossless_topology ~n =
  Topology.make ~n ~link:(Link.make ~latency:(Link.Const 1.0) ~loss:0.0)

(* SplitMix64-style finalizer over (seed, run), so per-run generators are
   well-separated whatever the master seed, and independent of scheduling. *)
let run_seed ~seed ~run =
  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
    Int64.logxor z (Int64.shift_right_logical z 31)
  in
  let a = mix (Int64.add (Int64.of_int seed) 0x9e3779b97f4a7c15L) in
  let b = mix (Int64.logxor a (Int64.of_int run)) in
  Random.State.make
    [| Int64.to_int a land max_int; Int64.to_int b land max_int |]

module Make (P : Eba_protocols.Protocol_intf.PROTOCOL) = struct
  module M = Mux.Make (P)

  (* a fresh engine per run: the outcome's wire record is the engine's
     own, so nothing recycles it under the caller *)
  let run_one params ~sync ~topology ~plan ~rng config =
    M.run_one (M.create params ~sync ~topology ~plan) ~rng config

  let replay ?sync (params : Params.t) pattern config =
    let topology = lossless_topology ~n:params.Params.n in
    let sync = match sync with Some s -> s | None -> Sync.default_for topology in
    (* Replay draws nothing from the rng: the pattern decides every drop
       and the lossless links are deterministic. *)
    let rng = Random.State.make [| 0 |] in
    run_one params ~sync ~topology ~plan:(Inject.Replay pattern) ~rng config
end

let sweep ?jobs ?mux ?cancel ?progress
    (module P : Eba_protocols.Protocol_intf.PROTOCOL) (params : Params.t)
    ~sync ~topology ~dynamic ~seed ~runs =
  (match mux with
  | Some k when k < 1 -> invalid_arg "Netsim.sweep: mux must be >= 1"
  | Some _ | None -> ());
  (* one shared counter across domains: [done] counts completed runs,
     whatever their scheduling order *)
  let completed = Atomic.make 0 in
  let tick f () = f ~done_:(Atomic.fetch_and_add completed 1 + 1) ~total:runs in
  let module M = Mux.Make (P) in
  let st =
    M.sweep_state ?jobs ?cancel ?progress:(Option.map tick progress) params ~sync
      ~topology ~dynamic
      ~rng_of_run:(fun run -> run_seed ~seed ~run)
      ~runs
  in
  Net_stats.summary_of_state
    ~protocol:P.name
    ~params:(Format.asprintf "%a" Params.pp params)
    ~seed
    ~plan:(Inject.describe (Inject.Dynamic dynamic))
    ~topology:(Format.asprintf "%a" Topology.pp topology)
    ~sync:(Format.asprintf "%a" Sync.pp sync)
    st
