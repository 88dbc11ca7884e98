module Json = Eba.Json

let universes =
  [ (4, 1, 3, Eba.Params.Crash, "crash"); (3, 1, 3, Eba.Params.Omission, "omission") ]

let served ~n ~t ~horizon ~mode name =
  let params =
    Json.Obj
      [
        ("protocol", Json.String name);
        ("query", Json.String "spec");
        ("n", Json.Int n);
        ("t", Json.Int t);
        ("horizon", Json.Int horizon);
        ("mode", Json.String mode);
      ]
  in
  match Eba.Server.Registry.prepare ~verb:"knowledge-query" ~params with
  | Error _ -> failwith ("knowledge-query refused for " ^ name)
  | Ok thunk -> (
      match thunk Eba.Server.Registry.no_ctx with
      | Ok json -> Json.to_string json
      | Error m -> failwith m)

let witnesses buf label failures =
  Printf.bprintf buf "  %s: %d\n" label (List.length failures);
  List.iter
    (fun (f : Eba.Characterize.failure) ->
      Printf.bprintf buf "    %s @ point %d proc %d\n" f.condition f.point f.proc)
    failures

let render () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (n, t, horizon, mode, mode_s) ->
      Printf.bprintf buf "# %s n=%d t=%d T=%d\n" mode_s n t horizon;
      let model = Eba.Model.build (Eba.Params.make ~n ~t ~horizon ~mode) in
      let env = Eba.Formula.env model in
      List.iter
        (fun name ->
          Printf.bprintf buf "%s\n" name;
          Printf.bprintf buf "  served: %s\n" (served ~n ~t ~horizon ~mode:mode_s name);
          let pair = (Option.get (Eba.Zoo.by_name name)) env in
          let d = Eba.Kb_protocol.decide model pair in
          witnesses buf "optimality_failures" (Eba.Characterize.optimality_failures env d);
          witnesses buf "necessary" (Eba.Characterize.necessary env d))
        Eba.Zoo.names)
    universes;
  Buffer.contents buf
