module Spec = Eba.Server.Spec
module Net = Eba.Net

let fabrics =
  let const = Net.Link.Const 1.0 in
  [
    ("const lossless", fun s -> { s with Spec.latency = const; loss = 0.0 });
    ("const loss=0.05", fun s -> { s with Spec.latency = const; loss = 0.05 });
    ( "uniform loss=0.1",
      fun s -> { s with Spec.latency = Net.Link.Uniform (0.2, 1.0); loss = 0.1 } );
    ( "omission partitions=2",
      fun s ->
        { s with Spec.latency = const; loss = 0.0; mode = Eba.Params.Omission; partitions = 2 }
    );
  ]

let seeds = [ 1; 2026 ]

let protocols =
  List.map (fun name -> (name, false)) Spec.protocol_names
  @ List.map (fun name -> (name, true)) Spec.compact_protocol_names

(* The set-carrying protocols, full and compact, past one word: n = 70
   runs them on two-limb [Procset.Wide] sets. *)
let wide =
  List.concat_map
    (fun (protocol, mode) -> [ (protocol, false, mode); (protocol, true, mode) ])
    [ ("p0opt", Eba.Params.Crash); ("p0opt+", Eba.Params.Crash); ("chain0", Eba.Params.Omission) ]

let render ?(mux = Spec.Mux_off) () =
  let buf = Buffer.create 65536 in
  let emit label spec =
    match Spec.resolve spec with
    | Error m -> failwith (Printf.sprintf "%s: %s" spec.Spec.protocol m)
    | Ok r ->
        Printf.bprintf buf "# %s\n%s\n" label
          (Eba.Json.to_string (Net.Net_stats.summary_json (Spec.run r)))
  in
  List.iter
    (fun (protocol, compact) ->
      List.iter
        (fun (fabric, set) ->
          List.iter
            (fun seed ->
              let spec =
                set
                  {
                    Spec.default with
                    protocol;
                    compact;
                    n = 4;
                    seed;
                    runs = Some 4;
                    mux;
                  }
              in
              emit
                (Printf.sprintf "%s%s %s seed=%d" protocol
                   (if compact then " compact" else "")
                   fabric seed)
                spec)
            seeds)
        fabrics)
    protocols;
  List.iter
    (fun (protocol, compact, mode) ->
      emit
        (Printf.sprintf "%s%s n=70 uniform loss=0.05 seed=7" protocol
           (if compact then " compact" else ""))
        {
          Spec.default with
          protocol;
          compact;
          mode;
          n = 70;
          t_failures = 4;
          horizon = 5;
          latency = Net.Link.Uniform (0.2, 1.0);
          loss = 0.05;
          seed = 7;
          runs = Some 2;
          mux;
        })
    wide;
  Buffer.contents buf
