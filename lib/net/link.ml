type latency =
  | Const of float
  | Uniform of float * float
  | Spike of { base : float; prob : float; spike : float }

let check_lat = function
  | Const c ->
      if not (Float.is_finite c) || c < 0.0 then
        invalid_arg "Link: constant latency must be finite and >= 0"
  | Uniform (lo, hi) ->
      if not (Float.is_finite lo && Float.is_finite hi) || lo < 0.0 || hi < lo then
        invalid_arg "Link: uniform latency needs 0 <= lo <= hi"
  | Spike { base; prob; spike } ->
      if not (Float.is_finite base && Float.is_finite spike)
         || base < 0.0 || spike < base
      then invalid_arg "Link: spike latency needs 0 <= base <= spike";
      if not (prob >= 0.0 && prob <= 1.0) then
        invalid_arg "Link: spike probability outside [0, 1]"

let latency_of_string s =
  let fail () = invalid_arg (Printf.sprintf "Link: cannot parse latency spec %S" s) in
  let float_of x = match float_of_string_opt (String.trim x) with
    | Some f -> f
    | None -> fail ()
  in
  let lat =
    match String.index_opt s ':' with
    | None -> fail ()
    | Some i ->
        let kind = String.sub s 0 i in
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        let args = String.split_on_char ',' rest in
        (match (String.lowercase_ascii kind, args) with
        | "const", [ c ] -> Const (float_of c)
        | "uniform", [ lo; hi ] -> Uniform (float_of lo, float_of hi)
        | "spike", [ base; prob; spike ] ->
            Spike { base = float_of base; prob = float_of prob; spike = float_of spike }
        | _ -> fail ())
  in
  check_lat lat;
  lat

(* [%g] when it reads back as [x], else the shortest of 15, 16 and 17
   significant digits that does (17 always does). *)
let float_to_string x =
  let at digits = Printf.sprintf "%.*g" digits x in
  match List.find_opt (fun d -> float_of_string (at d) = x) [ 6; 15; 16 ] with
  | Some d -> at d
  | None -> at 17

let latency_to_string = function
  | Const c -> "const:" ^ float_to_string c
  | Uniform (lo, hi) -> Printf.sprintf "uniform:%s,%s" (float_to_string lo) (float_to_string hi)
  | Spike { base; prob; spike } ->
      Printf.sprintf "spike:%s,%s,%s" (float_to_string base) (float_to_string prob)
        (float_to_string spike)

let sample_latency rng = function
  | Const c -> c
  | Uniform (lo, hi) -> if hi = lo then lo else lo +. Random.State.float rng (hi -. lo)
  | Spike { base; prob; spike } ->
      if prob > 0.0 && Random.State.float rng 1.0 < prob then spike else base

let latency_bound = function
  | Const c -> c
  | Uniform (_, hi) -> hi
  | Spike { spike; _ } -> spike

type t = { lat : latency; loss : float }

let make ~latency ~loss =
  check_lat latency;
  if not (loss >= 0.0 && loss < 1.0) then
    invalid_arg "Link: loss probability outside [0, 1)";
  { lat = latency; loss }

let pp fmt l =
  Format.fprintf fmt "%s loss=%g" (latency_to_string l.lat) l.loss
