module Json = Eba_util.Json

type error_code = Bad_request | Unknown_verb | Busy | Shutting_down | Internal

let code_to_string = function
  | Bad_request -> "bad-request"
  | Unknown_verb -> "unknown-verb"
  | Busy -> "busy"
  | Shutting_down -> "shutting-down"
  | Internal -> "internal"

let code_of_string = function
  | "bad-request" -> Some Bad_request
  | "unknown-verb" -> Some Unknown_verb
  | "busy" -> Some Busy
  | "shutting-down" -> Some Shutting_down
  | "internal" -> Some Internal
  | _ -> None

type request = {
  req_id : Json.t;
  verb : string;
  params : Json.t;
  want_progress : bool;
}

let mem j key =
  match j with Json.Obj fields -> List.assoc_opt key fields | _ -> None

let request_of_json j =
  match j with
  | Json.Obj _ -> (
      let req_id = Option.value (mem j "id") ~default:Json.Null in
      match mem j "progress" with
      | Some (Json.Bool _) | None -> (
          let want_progress =
            match mem j "progress" with Some (Json.Bool b) -> b | _ -> false
          in
          match mem j "verb" with
          | Some (Json.String verb) -> (
              match mem j "params" with
              | None -> Ok { req_id; verb; params = Json.Obj []; want_progress }
              | Some (Json.Obj _ as params) ->
                  Ok { req_id; verb; params; want_progress }
              | Some _ -> Error "\"params\" must be an object")
          | Some _ -> Error "\"verb\" must be a string"
          | None -> Error "missing \"verb\"")
      | Some _ -> Error "\"progress\" must be a boolean")
  | _ -> Error "request frame must be a JSON object"

let request ?(id = Json.Null) ?(progress = false) ~verb ?(params = []) () =
  Json.Obj
    (("id", id) :: ("verb", Json.String verb)
    :: ("params", Json.Obj params)
    :: (if progress then [ ("progress", Json.Bool true) ] else []))

let ok ~id result =
  Json.Obj [ ("id", id); ("status", Json.String "ok"); ("result", result) ]

let busy ~id ~depth ~cap =
  Json.Obj
    [
      ("id", id);
      ("status", Json.String "busy");
      ( "error",
        Json.Obj
          [
            ("code", Json.String (code_to_string Busy));
            ( "message",
              Json.String
                (Printf.sprintf
                   "request queue saturated (%d of %d); retry later" depth cap)
            );
            ("queue_depth", Json.Int depth);
            ("queue_cap", Json.Int cap);
          ] );
    ]

let error ~id code message =
  Json.Obj
    [
      ("id", id);
      ("status", Json.String "error");
      ( "error",
        Json.Obj
          [
            ("code", Json.String (code_to_string code));
            ("message", Json.String message);
          ] );
    ]

let cancelled ~id = Json.Obj [ ("id", id); ("status", Json.String "cancelled") ]

let progress ~id ~done_ ~total =
  Json.Obj
    [
      ("id", id);
      ("status", Json.String "progress");
      ("done", Json.Int done_);
      ("total", Json.Int total);
    ]

type reply =
  | Ok_result of Json.t
  | Busy_reply of { depth : int; cap : int }
  | Error_reply of { code : error_code; message : string }
  | Cancelled_reply
  | Progress_frame of { p_done : int; p_total : int }

let reply_of_json j =
  let id = Option.value (mem j "id") ~default:Json.Null in
  match mem j "status" with
  | Some (Json.String "ok") -> (
      match mem j "result" with
      | Some r -> Ok (id, Ok_result r)
      | None -> Error "ok response without \"result\"")
  | Some (Json.String "cancelled") -> Ok (id, Cancelled_reply)
  | Some (Json.String "progress") -> (
      match (mem j "done", mem j "total") with
      | Some (Json.Int p_done), Some (Json.Int p_total) ->
          Ok (id, Progress_frame { p_done; p_total })
      | _ -> Error "progress frame without integer \"done\"/\"total\"")
  | Some (Json.String ("busy" | "error" as status)) -> (
      match mem j "error" with
      | Some e -> (
          let message =
            match mem e "message" with Some (Json.String m) -> m | _ -> ""
          in
          if status = "busy" then
            let geti k =
              match mem e k with Some (Json.Int i) -> i | _ -> -1
            in
            Ok (id, Busy_reply { depth = geti "queue_depth"; cap = geti "queue_cap" })
          else
            match mem e "code" with
            | Some (Json.String c) -> (
                match code_of_string c with
                | Some code -> Ok (id, Error_reply { code; message })
                | None -> Error (Printf.sprintf "unknown error code %S" c))
            | _ -> Error "error response without a code")
      | None -> Error "error response without \"error\"")
  | Some (Json.String other) -> Error (Printf.sprintf "unknown status %S" other)
  | _ -> Error "response frame without a status"

(* --- param accessors --- *)

let wrong key expected = Error (Printf.sprintf "%S must be %s" key expected)

let get_int ?default params key =
  match mem params key with
  | Some (Json.Int i) -> Ok i
  | Some _ -> wrong key "an integer"
  | None -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "missing %S" key))

let get_string ?default params key =
  match mem params key with
  | Some (Json.String s) -> Ok s
  | Some _ -> wrong key "a string"
  | None -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "missing %S" key))
