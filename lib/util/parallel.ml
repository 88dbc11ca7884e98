(* A small chunked domain pool for the sweep engine.

   Work items are pulled in chunks from a shared cursor under a mutex, each
   worker folds into its own accumulator, and the per-domain accumulators
   are merged in a fixed (domain-index) order once every worker has joined.
   All the merges used by the engine combine exact integer counters, so an
   N-domain run produces bit-identical results to a sequential one; with an
   effective job count of 1 no domain is ever spawned and the fold runs in
   the calling domain, so sequential behaviour is exactly the old code. *)

let available () = Domain.recommended_domain_count ()

(* Scheduling observability: totals depend on the job count and chunk
   geometry, so none of these are deterministic across [--jobs] values. *)
let m_spawned = Metrics.counter ~deterministic:false "parallel.domains_spawned"
let m_chunks = Metrics.counter ~deterministic:false "parallel.chunks"
let m_chunk_max = Metrics.gauge ~deterministic:false "parallel.max_chunks_per_domain"

let note_chunks per_domain =
  if Metrics.enabled () then begin
    Metrics.add m_chunks per_domain;
    Metrics.record m_chunk_max per_domain
  end

let env_jobs () =
  match Sys.getenv_opt "EBA_DOMAINS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some 0 -> Some (available ())
      | Some j when j >= 1 -> Some j
      | Some _ | None ->
          invalid_arg (Printf.sprintf "EBA_DOMAINS: bad job count %S" s))

(* [None] = no programmatic override; the environment (or 1) decides. *)
let override : int option Atomic.t = Atomic.make None

let set_jobs j =
  if j < 0 then invalid_arg "Parallel.set_jobs: negative job count";
  Atomic.set override (if j = 0 then None else Some j)

let jobs () =
  match Atomic.get override with
  | Some j -> j
  | None -> ( match env_jobs () with Some j -> j | None -> 1)

let effective = function Some j when j >= 1 -> j | Some _ | None -> jobs ()

let with_jobs j f =
  let saved = Atomic.get override in
  set_jobs j;
  Fun.protect ~finally:(fun () -> Atomic.set override saved) f

(* Run [main] in this domain and [n-1] copies in fresh domains; join them
   all even when one raises, then re-raise the first failure. *)
let run_workers n worker =
  let failure : exn Atomic.t = Atomic.make Not_found in
  let failed = Atomic.make false in
  let guarded () =
    try worker ()
    with e ->
      if not (Atomic.exchange failed true) then Atomic.set failure e;
      None
  in
  Metrics.add m_spawned (n - 1);
  let domains = Array.init (n - 1) (fun _ -> Domain.spawn guarded) in
  let first = guarded () in
  let rest = Array.map Domain.join domains in
  if Atomic.get failed then raise (Atomic.get failure);
  Array.to_list (Array.append [| first |] rest) |> List.filter_map Fun.id

let default_chunk = 64

let map_reduce_seq ?jobs ?(chunk = default_chunk) ~init ~fold ~merge seq =
  if chunk < 1 then invalid_arg "Parallel.map_reduce_seq: chunk must be >= 1";
  let j = effective jobs in
  if j <= 1 then begin
    let acc = init () in
    Seq.iter (fold acc) seq;
    acc
  end
  else begin
    let lock = Mutex.create () in
    let cursor = ref seq in
    let next_chunk () =
      Mutex.protect lock (fun () ->
          let rec take k s acc =
            if k = 0 then (acc, s)
            else
              match s () with
              | Seq.Nil -> (acc, Seq.empty)
              | Seq.Cons (x, tl) -> take (k - 1) tl (x :: acc)
          in
          let items, rest = take chunk !cursor [] in
          cursor := rest;
          List.rev items)
    in
    let worker () =
      let acc = init () in
      let mine = ref 0 in
      let rec loop () =
        match next_chunk () with
        | [] ->
            note_chunks !mine;
            Some acc
        | items ->
            Stdlib.incr mine;
            List.iter (fold acc) items;
            loop ()
      in
      loop ()
    in
    match run_workers j worker with
    | [] -> init ()
    | acc :: rest ->
        List.iter (merge acc) rest;
        acc
  end
