module Bitset = Eba_util.Bitset

type crash = { crash_proc : int; crash_round : int; crash_recipients : Bitset.t }
type omission = { om_proc : int; om_omits : Bitset.t array }

type general = {
  g_proc : int;
  g_send : Bitset.t array;  (* receivers not sent to, per round *)
  g_recv : Bitset.t array;  (* senders not received from, per round *)
}

type behaviour = Crashes of crash | Omits of omission | General of general

type t = {
  params_mode : Params.mode;
  horizon : int;
  faulty : Bitset.t;
  items : behaviour array;  (* sorted by processor id *)
}

let behaviour_proc = function
  | Crashes c -> c.crash_proc
  | Omits o -> o.om_proc
  | General g -> g.g_proc

let crash ~horizon ~proc ~round ~recipients =
  if round < 1 || round > horizon + 1 then
    invalid_arg "Pattern.crash: round out of range";
  if Bitset.mem proc recipients then
    invalid_arg "Pattern.crash: a processor does not message itself";
  if round = horizon + 1 && not (Bitset.is_empty recipients) then
    invalid_arg "Pattern.crash: clean crash must have empty recipients";
  Crashes { crash_proc = proc; crash_round = round; crash_recipients = recipients }

let clean_crash ~horizon ~proc =
  Crashes { crash_proc = proc; crash_round = horizon + 1; crash_recipients = Bitset.empty }

let omission ~horizon ~proc ~omits =
  if Array.length omits <> horizon then
    invalid_arg "Pattern.omission: omits must cover every round";
  if Array.exists (Bitset.mem proc) omits then
    invalid_arg "Pattern.omission: a processor does not message itself";
  Omits { om_proc = proc; om_omits = Array.copy omits }

let general ~horizon ~proc ~send ~recv =
  if Array.length send <> horizon || Array.length recv <> horizon then
    invalid_arg "Pattern.general: omission sets must cover every round";
  if Array.exists (Bitset.mem proc) send || Array.exists (Bitset.mem proc) recv then
    invalid_arg "Pattern.general: a processor does not message itself";
  General { g_proc = proc; g_send = Array.copy send; g_recv = Array.copy recv }

let make (params : Params.t) behaviours =
  let items = Array.of_list behaviours in
  Array.sort (fun a b -> Stdlib.compare (behaviour_proc a) (behaviour_proc b)) items;
  let faulty =
    Array.fold_left (fun acc b -> Bitset.add (behaviour_proc b) acc) Bitset.empty items
  in
  if Bitset.cardinal faulty <> Array.length items then
    invalid_arg "Pattern.make: duplicate faulty processor";
  if Bitset.cardinal faulty > params.Params.t_failures then
    invalid_arg "Pattern.make: more than t faulty processors";
  Array.iter
    (fun b ->
      let p = behaviour_proc b in
      if p < 0 || p >= params.Params.n then invalid_arg "Pattern.make: processor out of range";
      match (b, params.Params.mode) with
      | Crashes _, Params.Crash
      | Omits _, Params.Omission
      | (Omits _ | General _), Params.General_omission ->
          (* sending-only omitters are legal general omitters *)
          ()
      | Crashes _, (Params.Omission | Params.General_omission)
      | Omits _, Params.Crash
      | General _, (Params.Crash | Params.Omission) ->
          invalid_arg "Pattern.make: behaviour does not match failure mode")
    items;
  { params_mode = params.Params.mode; horizon = params.Params.horizon; faulty; items }

let failure_free params = make params []

let faulty p = p.faulty
let behaviours p = Array.to_list p.items

let find_behaviour p proc =
  let n = Array.length p.items in
  let rec loop i =
    if i >= n then None
    else
      let b = p.items.(i) in
      if behaviour_proc b = proc then Some b else loop (i + 1)
  in
  loop 0

(* Delivery queries are only meaningful for the rounds the pattern
   describes.  Out-of-range rounds used to disagree across branches
   (nonfaulty and crash senders answered [true] past the horizon, omitters
   [false]), so they are now uniformly a programming error. *)
let check_round p round =
  if round < 1 || round > p.horizon then
    invalid_arg "Pattern: round out of range [1, horizon]"

let sender_delivers p ~round ~sender ~receiver =
  check_round p round;
  match find_behaviour p sender with
  | None -> true
  | Some (Crashes c) ->
      if round < c.crash_round then true
      else if round = c.crash_round then Bitset.mem receiver c.crash_recipients
      else false
  | Some (Omits o) -> not (Bitset.mem receiver o.om_omits.(round - 1))
  | Some (General g) -> not (Bitset.mem receiver g.g_send.(round - 1))

let receiver_accepts p ~round ~sender ~receiver =
  check_round p round;
  match find_behaviour p receiver with
  | None | Some (Crashes _) | Some (Omits _) -> true
  | Some (General g) -> not (Bitset.mem sender g.g_recv.(round - 1))

let delivers p ~round ~sender ~receiver =
  sender_delivers p ~round ~sender ~receiver
  && receiver_accepts p ~round ~sender ~receiver

(* The round-local footprint of a behaviour, in the normal form the
   shared-prefix model builder groups by: which receivers the processor's
   round-[round] messages fail to reach through its own fault, and which
   senders it refuses to receive from.  A crash is "deliver everything"
   before its round, a strict-subset delivery at it, and silence after. *)
let round_signature ~n b ~round =
  if round < 1 then invalid_arg "Pattern.round_signature: round out of range";
  match b with
  | Crashes c ->
      let rest = Bitset.remove c.crash_proc (Bitset.full n) in
      if round < c.crash_round then (Bitset.empty, Bitset.empty)
      else if round = c.crash_round then
        (Bitset.diff rest c.crash_recipients, Bitset.empty)
      else (rest, Bitset.empty)
  | Omits o ->
      if round > Array.length o.om_omits then
        invalid_arg "Pattern.round_signature: round out of range";
      (o.om_omits.(round - 1), Bitset.empty)
  | General g ->
      if round > Array.length g.g_send then
        invalid_arg "Pattern.round_signature: round out of range";
      (g.g_send.(round - 1), g.g_recv.(round - 1))

let crashed_before p ~proc ~round =
  match find_behaviour p proc with
  | Some (Crashes c) -> round > c.crash_round
  | Some (Omits _) | Some (General _) | None -> false

let visible_failure p = function
  | Crashes c -> c.crash_round <= p.horizon
  | Omits o -> Array.exists (fun s -> not (Bitset.is_empty s)) o.om_omits
  | General g ->
      Array.exists (fun s -> not (Bitset.is_empty s)) g.g_send
      || Array.exists (fun s -> not (Bitset.is_empty s)) g.g_recv

let num_failures p =
  Array.fold_left (fun acc b -> if visible_failure p b then acc + 1 else acc) 0 p.items

let behaviour_key = function
  | Crashes c -> (0, c.crash_proc, c.crash_round, [ Bitset.to_int c.crash_recipients ])
  | Omits o -> (1, o.om_proc, 0, Array.to_list (Array.map Bitset.to_int o.om_omits))
  | General g ->
      ( 2,
        g.g_proc,
        0,
        Array.to_list (Array.map Bitset.to_int g.g_send)
        @ Array.to_list (Array.map Bitset.to_int g.g_recv) )

let compare a b =
  Stdlib.compare
    (Array.to_list (Array.map behaviour_key a.items))
    (Array.to_list (Array.map behaviour_key b.items))

let equal a b = compare a b = 0

let pp_sets sets =
  String.concat ";"
    (Array.to_list (Array.map (fun s -> Format.asprintf "%a" Bitset.pp s) sets))

let pp_behaviour fmt = function
  | Crashes c ->
      Format.fprintf fmt "crash(p%d@r%d->%a)" c.crash_proc c.crash_round Bitset.pp
        c.crash_recipients
  | Omits o -> Format.fprintf fmt "omit(p%d:%s)" o.om_proc (pp_sets o.om_omits)
  | General g ->
      Format.fprintf fmt "general(p%d:send %s recv %s)" g.g_proc (pp_sets g.g_send)
        (pp_sets g.g_recv)

let pp fmt p =
  if Array.length p.items = 0 then Format.pp_print_string fmt "failure-free"
  else
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " ")
      pp_behaviour fmt (Array.to_list p.items)
