(* Shape checks on the renderers' JSON output, over the one JSON reader
   (Service.Jsonp). *)

open Analysis.Json

let member = Service.Jsonp.member

let parse s =
  Result.map_error (fun m -> "invalid JSON: " ^ m) (Service.Jsonp.parse s)

(* the SARIF shape Diag.to_json promises: a version and one run carrying
   a tool and a results array *)
let validate_sarif s =
  Result.bind (parse s) (fun v ->
      match member "version" v with
      | None -> Error "missing \"version\""
      | Some _ -> (
          match member "runs" v with
          | Some (List (run :: _)) -> (
              match (member "tool" run, member "results" run) with
              | Some _, Some (List _) -> Ok ()
              | None, _ -> Error "run missing \"tool\""
              | _, _ -> Error "run missing \"results\" array")
          | Some (List []) -> Error "empty \"runs\""
          | _ -> Error "missing \"runs\" array"))

(* the Chrome trace_event shape Explain.trace_json promises: an object
   with a traceEvents array whose entries all carry a "ph" phase; every
   instant event (ph = "i") needs ts/pid/tid numbers.  Returns the
   instant-event count so callers can reconcile it with the recorder. *)
let validate_trace s =
  let number = function Some (Int _ | Float _) -> true | _ -> false in
  Result.bind (parse s) (fun v ->
      match member "traceEvents" v with
      | Some (List events) ->
          let rec go n = function
            | [] -> Ok n
            | e :: rest -> (
                match member "ph" e with
                | Some (Str "M") -> go n rest
                | Some (Str "i") ->
                    if
                      List.for_all
                        (fun k -> number (member k e))
                        [ "ts"; "pid"; "tid" ]
                    then go (n + 1) rest
                    else Error "instant event missing ts/pid/tid"
                | Some (Str ph) -> Error ("unexpected phase " ^ ph)
                | _ -> Error "event missing \"ph\"")
          in
          go 0 events
      | _ -> Error "missing \"traceEvents\" array")
