module Json = Xaos_obs.Json

type request =
  | Subscribe of { name : string; query : string; earliest : bool }
  | Unsubscribe of { name : string }
  | Publish of { doc_id : string; priority : int; doc : string }
  | Stats
  | Stats_stream of { interval_s : float; count : int option }
  | Metrics
  | Profile of { top_n : int; by : string }
  | Slowlog of { max : int }
  | Report
  | Shutdown

let op_name = function
  | Subscribe _ -> "subscribe"
  | Unsubscribe _ -> "unsubscribe"
  | Publish _ -> "publish"
  | Stats -> "stats"
  | Stats_stream _ -> "stats-stream"
  | Metrics -> "metrics"
  | Profile _ -> "profile"
  | Slowlog _ -> "slowlog"
  | Report -> "report"
  | Shutdown -> "shutdown"

let request_to_json r =
  let fields =
    match r with
    | Subscribe { name; query; earliest } ->
      [ ("name", Json.String name); ("query", Json.String query) ]
      @ (if earliest then [ ("earliest", Json.Bool true) ] else [])
    | Unsubscribe { name } -> [ ("name", Json.String name) ]
    | Publish { doc_id; priority; doc } ->
      [ ("id", Json.String doc_id); ("priority", Json.Int priority);
        ("doc", Json.String doc) ]
    | Stats_stream { interval_s; count } ->
      ("interval_s", Json.Float interval_s)
      :: (match count with Some n -> [ ("count", Json.Int n) ] | None -> [])
    | Profile { top_n; by } ->
      [ ("n", Json.Int top_n); ("by", Json.String by) ]
    | Slowlog { max } -> [ ("max", Json.Int max) ]
    | Stats | Metrics | Report | Shutdown -> []
  in
  Json.Obj (("op", Json.String (op_name r)) :: fields)

let str_field name j =
  match Json.member name j with
  | Some f -> (
    match Json.to_str f with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "field %S must be a string" name))
  | None -> Error (Printf.sprintf "missing field %S" name)

(* An absent optional field takes its default; a present one of the
   wrong type is an error, never silently the default. *)
let opt_field name ~kind conv ~default j =
  match Json.member name j with
  | None -> Ok default
  | Some v -> (
    match conv v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "field %S must be %s" name kind))

let int_field name ~default j =
  opt_field name ~kind:"an integer" Json.to_int ~default j

let positive name = Error (Printf.sprintf "field %S must be positive" name)

let request_of_json j =
  let ( let* ) = Result.bind in
  match Json.member "op" j with
  | None -> Error "missing field \"op\""
  | Some op -> (
    match Json.to_str op with
    | None -> Error "field \"op\" must be a string"
    | Some "subscribe" ->
      let* name = str_field "name" j in
      let* query = str_field "query" j in
      let* earliest =
        opt_field "earliest" ~kind:"a boolean"
          (function Json.Bool b -> Some b | _ -> None)
          ~default:false j
      in
      Ok (Subscribe { name; query; earliest })
    | Some "unsubscribe" ->
      let* name = str_field "name" j in
      Ok (Unsubscribe { name })
    | Some "publish" ->
      let* doc_id = str_field "id" j in
      let* doc = str_field "doc" j in
      let* priority = int_field "priority" ~default:0 j in
      Ok (Publish { doc_id; priority; doc })
    | Some "stats" -> Ok Stats
    | Some "stats-stream" ->
      let* interval_s =
        opt_field "interval_s" ~kind:"a number" Json.to_float ~default:1.0 j
      in
      let* count =
        opt_field "count" ~kind:"an integer"
          (fun v -> Option.map Option.some (Json.to_int v))
          ~default:None j
      in
      if interval_s <= 0. then positive "interval_s"
      else Ok (Stats_stream { interval_s; count })
    | Some "metrics" -> Ok Metrics
    | Some "profile" ->
      let* top_n = int_field "n" ~default:10 j in
      let* by = opt_field "by" ~kind:"a string" Json.to_str ~default:"match_s" j in
      if top_n <= 0 then positive "n" else Ok (Profile { top_n; by })
    | Some "slowlog" ->
      let* max = int_field "max" ~default:20 j in
      if max <= 0 then positive "max" else Ok (Slowlog { max })
    | Some "report" -> Ok Report
    | Some "shutdown" -> Ok Shutdown
    | Some other -> Error (Printf.sprintf "unknown op %S" other))

let request_of_line line =
  match Json.parse line with
  | Error e -> Error ("bad json: " ^ e)
  | Ok j -> request_of_json j

let ok ~op fields =
  Json.Obj (("ok", Json.Bool true) :: ("op", Json.String op) :: fields)

let error ~op msg =
  Json.Obj
    [ ("ok", Json.Bool false); ("op", Json.String op);
      ("error", Json.String msg) ]

let overload ~doc_id ~shed =
  let shed_field =
    match shed with
    | `Incoming -> [ ("shed", Json.String "incoming") ]
    | `Displaced by ->
      [ ("shed", Json.String "displaced"); ("by", Json.String by) ]
  in
  Json.Obj
    (("ok", Json.Bool false) :: ("op", Json.String "publish")
     :: ("id", Json.String doc_id) :: ("error", Json.String "overload")
     :: shed_field)

let event ~kind fields = Json.Obj (("event", Json.String kind) :: fields)

let to_line j = Json.to_string ~indent:false j ^ "\n"
