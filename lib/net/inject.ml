module Params = Eba_sim.Params
module Pattern = Eba_sim.Pattern
module Bitset = Eba_util.Bitset

type dynamic = {
  dyn_max_faulty : int;
  dyn_omit_prob : float;
  dyn_partitions : int;
  dyn_partition_span : float;
}

let dynamic ?(omit_prob = 0.5) ?(partitions = 0) ?(partition_span = 0.0)
    ~max_faulty () =
  if max_faulty < 0 then invalid_arg "Inject.dynamic: max_faulty must be >= 0";
  if not (omit_prob >= 0.0 && omit_prob <= 1.0) then
    invalid_arg "Inject.dynamic: omit_prob outside [0, 1]";
  if partitions < 0 then invalid_arg "Inject.dynamic: partitions must be >= 0";
  if partitions > 0 && not (partition_span > 0.0) then
    invalid_arg "Inject.dynamic: partitions need a positive span";
  {
    dyn_max_faulty = max_faulty;
    dyn_omit_prob = omit_prob;
    dyn_partitions = partitions;
    dyn_partition_span = partition_span;
  }

type plan = Replay of Pattern.t | Dynamic of dynamic

let describe = function
  | Replay p -> Format.asprintf "replay %a" Pattern.pp p
  | Dynamic d ->
      Printf.sprintf "dynamic max_faulty=%d omit=%g partitions=%dx%g"
        d.dyn_max_faulty d.dyn_omit_prob d.dyn_partitions d.dyn_partition_span

type partition = { p_from : float; p_until : float; p_side : bool array }

type compiled =
  | C_replay of { pat : Pattern.t; rp_faulty : bool array }
  | C_dynamic of {
      mode : Params.mode;
      omit_prob : float;
      dy_faulty : bool array;
      crash_at : float option array;  (* crash mode only *)
      parts : partition list;
    }

(* [k] distinct processors, drawn in a fixed order. *)
let pick_faulty rng n k =
  let chosen = Array.make n false in
  let picked = ref 0 in
  while !picked < k do
    let p = Random.State.int rng n in
    if not chosen.(p) then begin
      chosen.(p) <- true;
      incr picked
    end
  done;
  chosen

let compile rng (params : Params.t) ~total_time = function
  | Replay pat ->
      let faulty = Pattern.faulty pat in
      C_replay
        {
          pat;
          rp_faulty = Array.init params.Params.n (fun i -> Bitset.mem i faulty);
        }
  | Dynamic d ->
      let n = params.Params.n in
      let f = Random.State.int rng (d.dyn_max_faulty + 1) in
      let dy_faulty = pick_faulty rng n (min f n) in
      let crash_at = Array.make n None in
      (match params.Params.mode with
      | Params.Crash ->
          Array.iteri
            (fun p is_faulty ->
              if is_faulty then
                crash_at.(p) <- Some (Random.State.float rng total_time))
            dy_faulty
      | Params.Omission | Params.General_omission -> ());
      let parts =
        List.init d.dyn_partitions (fun _ ->
            let from = Random.State.float rng total_time in
            {
              p_from = from;
              p_until = from +. d.dyn_partition_span;
              p_side = Array.init n (fun _ -> Random.State.bool rng);
            })
      in
      C_dynamic
        { mode = params.Params.mode; omit_prob = d.dyn_omit_prob; dy_faulty; crash_at; parts }

let faulty = function
  | C_replay r -> Array.copy r.rp_faulty
  | C_dynamic d -> Array.copy d.dy_faulty

let crash_time c ~proc =
  match c with C_replay _ -> None | C_dynamic d -> d.crash_at.(proc)

let dead c ~now ~proc =
  match c with
  | C_replay _ -> false
  | C_dynamic d -> (
      match d.crash_at.(proc) with Some t -> now >= t | None -> false)

let blocks_send c rng ~round ~sender ~receiver =
  match c with
  | C_replay r -> not (Pattern.delivers r.pat ~round ~sender ~receiver)
  | C_dynamic d -> (
      match d.mode with
      | Params.Crash -> false  (* crashes silence the node itself *)
      | Params.Omission ->
          d.dy_faulty.(sender)
          && d.omit_prob > 0.0
          && Random.State.float rng 1.0 < d.omit_prob
      | Params.General_omission ->
          (d.dy_faulty.(sender) || d.dy_faulty.(receiver))
          && d.omit_prob > 0.0
          && Random.State.float rng 1.0 < d.omit_prob)

(* [cut] runs on every data copy and ack: a top-level scan, so no
   closure is built per call. *)
let rec severed parts ~now ~src ~dst =
  match parts with
  | [] -> false
  | p :: rest ->
      (now >= p.p_from && now < p.p_until && p.p_side.(src) <> p.p_side.(dst))
      || severed rest ~now ~src ~dst

let cut c ~now ~src ~dst =
  match c with
  | C_replay _ | C_dynamic { parts = []; _ } -> false
  | C_dynamic { parts; _ } -> severed parts ~now ~src ~dst
