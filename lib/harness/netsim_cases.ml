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

let render ?(mux = Spec.Mux_off) () =
  let buf = Buffer.create 65536 in
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
              match Spec.resolve spec with
              | Error m -> failwith (Printf.sprintf "%s: %s" protocol m)
              | Ok r ->
                  Printf.bprintf buf "# %s%s %s seed=%d\n%s\n" protocol
                    (if compact then " compact" else "")
                    fabric seed
                    (Eba.Json.to_string (Net.Net_stats.summary_json (Spec.run r))))
            seeds)
        fabrics)
    protocols;
  Buffer.contents buf
