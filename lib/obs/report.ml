let schema_version = 4

let min_schema_version = 4

type table = {
  title : string;
  columns : string list;
  rows : string list list;
}

type gc_summary = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;
  top_heap_words : int;
}

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    major_words = s.Gc.major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    compactions = s.Gc.compactions;
    heap_words = s.Gc.heap_words;
    top_heap_words = s.Gc.top_heap_words;
  }

type relevance = {
  rel_bytes_seen : int;
  rel_retained_bytes : int;
  rel_retained_peak_bytes : int;
  rel_elements_total : int;
  rel_elements_stored : int;
  rel_ratio : float;
}

let relevance_of ~bytes_seen ~retained_bytes ~retained_peak_bytes
    ~elements_total ~elements_stored =
  {
    rel_bytes_seen = bytes_seen;
    rel_retained_bytes = retained_bytes;
    rel_retained_peak_bytes = retained_peak_bytes;
    rel_elements_total = elements_total;
    rel_elements_stored = elements_stored;
    rel_ratio =
      (if bytes_seen > 0 then
         float_of_int retained_peak_bytes /. float_of_int bytes_seen
       else 0.);
  }

(* One subscription's cost account in the v4 attribution section. *)
type attrib_entry = {
  ae_key : string;
  ae_docs : int;
  ae_events : int;
  ae_match_s : float;
  ae_structures : int;
  ae_live_peak : int;
  ae_retained_peak_bytes : int;
  ae_emissions : int;
  ae_faults : int;
}

type attribution = {
  at_subscriptions : int;  (* accounts in the registry, not just top-N *)
  at_docs : int;
  at_events : int;
  at_match_s : float;
  at_structures : int;
  at_emissions : int;
  at_faults : int;
  at_top : attrib_entry list;  (* descending by match_s *)
}

type t = {
  version : int;
  kind : string;
  created_at : float;
  config : (string * Json.t) list;
  stats : (string * float) list;
  spans : Telemetry.span_summary list;
  snapshots : Snapshot.point list;
  tables : table list;
  gc : gc_summary option;
  relevance : relevance option;
  service_latency : Histogram.summary list;
      (* schema v3; empty = section absent *)
  attribution : attribution option;  (* schema v4 *)
}

let make ?(config = []) ?(stats = []) ?(spans = []) ?(snapshots = [])
    ?(tables = []) ?gc ?relevance ?(service_latency = []) ?attribution ~kind
    () =
  {
    version = schema_version;
    kind;
    created_at = Telemetry.now ();
    config;
    stats;
    spans;
    snapshots;
    tables;
    gc;
    relevance;
    service_latency;
    attribution;
  }

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let span_to_json (s : Telemetry.span_summary) =
  Json.Obj
    [
      ("name", Json.String s.Telemetry.span_name);
      ("count", Json.Int s.Telemetry.count);
      ("total_s", Json.Float s.Telemetry.total_s);
      ("min_s", Json.Float s.Telemetry.min_s);
      ("max_s", Json.Float s.Telemetry.max_s);
    ]

let point_to_json (p : Snapshot.point) =
  Json.Obj
    [
      ("bytes", Json.Int p.Snapshot.sn_bytes);
      ("events", Json.Int p.Snapshot.sn_events);
      ("depth", Json.Int p.Snapshot.sn_depth);
      ("live_structures", Json.Int p.Snapshot.sn_live);
      ("looking_for", Json.Int p.Snapshot.sn_looking_for);
      ("retained_bytes", Json.Int p.Snapshot.sn_retained_bytes);
      ("elapsed_s", Json.Float p.Snapshot.sn_elapsed_s);
      ("bytes_per_sec", Json.Float p.Snapshot.sn_bytes_per_sec);
      ("heap_words", Json.Int p.Snapshot.sn_heap_words);
    ]

let relevance_to_json r =
  Json.Obj
    [
      ("bytes_seen", Json.Int r.rel_bytes_seen);
      ("retained_bytes", Json.Int r.rel_retained_bytes);
      ("retained_peak_bytes", Json.Int r.rel_retained_peak_bytes);
      ("elements_total", Json.Int r.rel_elements_total);
      ("elements_stored", Json.Int r.rel_elements_stored);
      ("ratio", Json.Float r.rel_ratio);
    ]

let table_to_json t =
  Json.Obj
    [
      ("title", Json.String t.title);
      ("columns", Json.List (List.map (fun c -> Json.String c) t.columns));
      ( "rows",
        Json.List
          (List.map
             (fun row -> Json.List (List.map (fun c -> Json.String c) row))
             t.rows) );
    ]

(* Bucket upper bounds can be [infinity] (the last one always is), which
   JSON cannot carry as a number — the Prometheus spelling "+Inf" is
   used instead. *)
let bound_to_json b =
  if b = infinity then Json.String "+Inf" else Json.Float b

let latency_to_json (s : Histogram.summary) =
  Json.Obj
    [
      ("name", Json.String s.Histogram.s_name);
      ("unit", Json.String s.Histogram.s_unit);
      ("count", Json.Int s.Histogram.s_count);
      ("sum", Json.Float s.Histogram.s_sum);
      ("max", Json.Float s.Histogram.s_max);
      ("p50", Json.Float s.Histogram.s_p50);
      ("p90", Json.Float s.Histogram.s_p90);
      ("p99", Json.Float s.Histogram.s_p99);
      ( "buckets",
        Json.List
          (List.map
             (fun (bound, cumulative) ->
               Json.Obj
                 [ ("le", bound_to_json bound);
                   ("count", Json.Int cumulative) ])
             s.Histogram.s_buckets) );
    ]

let gc_to_json g =
  Json.Obj
    [
      ("minor_words", Json.Float g.minor_words);
      ("promoted_words", Json.Float g.promoted_words);
      ("major_words", Json.Float g.major_words);
      ("minor_collections", Json.Int g.minor_collections);
      ("major_collections", Json.Int g.major_collections);
      ("compactions", Json.Int g.compactions);
      ("heap_words", Json.Int g.heap_words);
      ("top_heap_words", Json.Int g.top_heap_words);
    ]

let attrib_entry_to_json e =
  Json.Obj
    [
      ("key", Json.String e.ae_key);
      ("docs", Json.Int e.ae_docs);
      ("events", Json.Int e.ae_events);
      ("match_s", Json.Float e.ae_match_s);
      ("structures", Json.Int e.ae_structures);
      ("live_peak", Json.Int e.ae_live_peak);
      ("retained_peak_bytes", Json.Int e.ae_retained_peak_bytes);
      ("emissions", Json.Int e.ae_emissions);
      ("faults", Json.Int e.ae_faults);
    ]

let attribution_to_json a =
  Json.Obj
    [
      ("subscriptions", Json.Int a.at_subscriptions);
      ("docs", Json.Int a.at_docs);
      ("events", Json.Int a.at_events);
      ("match_s", Json.Float a.at_match_s);
      ("structures", Json.Int a.at_structures);
      ("emissions", Json.Int a.at_emissions);
      ("faults", Json.Int a.at_faults);
      ("top", Json.List (List.map attrib_entry_to_json a.at_top));
    ]

let to_json r =
  Json.Obj
    ([
       ("schema_version", Json.Int r.version);
       ("kind", Json.String r.kind);
       ("created_at", Json.Float r.created_at);
       ("config", Json.Obj r.config);
       ( "stats",
         Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.stats) );
       ("spans", Json.List (List.map span_to_json r.spans));
       ("snapshots", Json.List (List.map point_to_json r.snapshots));
       ("tables", Json.List (List.map table_to_json r.tables));
     ]
    @ (match r.gc with None -> [] | Some g -> [ ("gc", gc_to_json g) ])
    @ (match r.relevance with
      | None -> []
      | Some rel -> [ ("relevance", relevance_to_json rel) ])
    @ (match r.service_latency with
      | [] -> []
      | latencies ->
        [ ("service_latency", Json.List (List.map latency_to_json latencies))
        ])
    @
    match r.attribution with
    | None -> []
    | Some a -> [ ("attribution", attribution_to_json a) ])

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

(* Tiny result-returning field combinators; [path] makes errors name the
   offending field. *)
let ( let* ) r f = Result.bind r f

let field path key json =
  match Json.member key json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing field %S" path key)

let req path key conv json =
  let* v = field path key json in
  match conv v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "%s: field %S has the wrong type" path key)

let decode_list path conv items =
  let rec loop i acc = function
    | [] -> Ok (List.rev acc)
    | item :: rest -> (
      match conv (Printf.sprintf "%s[%d]" path i) item with
      | Ok x -> loop (i + 1) (x :: acc) rest
      | Error _ as e -> e)
  in
  loop 0 [] items

let span_of_json path json =
  let* span_name = req path "name" Json.to_str json in
  let* count = req path "count" Json.to_int json in
  let* total_s = req path "total_s" Json.to_float json in
  let* min_s = req path "min_s" Json.to_float json in
  let* max_s = req path "max_s" Json.to_float json in
  Ok { Telemetry.span_name; count; total_s; min_s; max_s }

let point_of_json path json =
  let* sn_bytes = req path "bytes" Json.to_int json in
  let* sn_events = req path "events" Json.to_int json in
  let* sn_depth = req path "depth" Json.to_int json in
  let* sn_live = req path "live_structures" Json.to_int json in
  let* sn_looking_for = req path "looking_for" Json.to_int json in
  let* sn_retained_bytes = req path "retained_bytes" Json.to_int json in
  let* sn_elapsed_s = req path "elapsed_s" Json.to_float json in
  let* sn_bytes_per_sec = req path "bytes_per_sec" Json.to_float json in
  let* sn_heap_words = req path "heap_words" Json.to_int json in
  Ok
    {
      Snapshot.sn_bytes;
      sn_events;
      sn_depth;
      sn_live;
      sn_looking_for;
      sn_retained_bytes;
      sn_elapsed_s;
      sn_bytes_per_sec;
      sn_heap_words;
    }

let relevance_of_json path json =
  let* rel_bytes_seen = req path "bytes_seen" Json.to_int json in
  let* rel_retained_bytes = req path "retained_bytes" Json.to_int json in
  let* rel_retained_peak_bytes =
    req path "retained_peak_bytes" Json.to_int json
  in
  let* rel_elements_total = req path "elements_total" Json.to_int json in
  let* rel_elements_stored = req path "elements_stored" Json.to_int json in
  let* rel_ratio = req path "ratio" Json.to_float json in
  Ok
    {
      rel_bytes_seen;
      rel_retained_bytes;
      rel_retained_peak_bytes;
      rel_elements_total;
      rel_elements_stored;
      rel_ratio;
    }

let bound_of_json path json =
  match json with
  | Json.String "+Inf" -> Ok infinity
  | _ -> (
    match Json.to_float json with
    | Some x -> Ok x
    | None -> Error (path ^ ": bucket bound is neither a number nor \"+Inf\""))

let latency_of_json path json =
  let* s_name = req path "name" Json.to_str json in
  let* s_unit = req path "unit" Json.to_str json in
  let* s_count = req path "count" Json.to_int json in
  let* s_sum = req path "sum" Json.to_float json in
  let* s_max = req path "max" Json.to_float json in
  let* s_p50 = req path "p50" Json.to_float json in
  let* s_p90 = req path "p90" Json.to_float json in
  let* s_p99 = req path "p99" Json.to_float json in
  let* bucket_values = req path "buckets" Json.to_list json in
  let* s_buckets =
    decode_list (path ^ ".buckets")
      (fun p v ->
        let* le = field p "le" v in
        let* bound = bound_of_json p le in
        let* cumulative = req p "count" Json.to_int v in
        Ok (bound, cumulative))
      bucket_values
  in
  Ok
    {
      Histogram.s_name;
      s_unit;
      s_count;
      s_sum;
      s_max;
      s_p50;
      s_p90;
      s_p99;
      s_buckets;
    }

let table_of_json path json =
  let* title = req path "title" Json.to_str json in
  let* column_values = req path "columns" Json.to_list json in
  let* columns =
    decode_list (path ^ ".columns")
      (fun p v ->
        match Json.to_str v with
        | Some s -> Ok s
        | None -> Error (p ^ ": expected string"))
      column_values
  in
  let* row_values = req path "rows" Json.to_list json in
  let* rows =
    decode_list (path ^ ".rows")
      (fun p v ->
        match Json.to_list v with
        | None -> Error (p ^ ": expected array")
        | Some cells ->
          decode_list p
            (fun pc c ->
              match Json.to_str c with
              | Some s -> Ok s
              | None -> Error (pc ^ ": expected string"))
            cells)
      row_values
  in
  Ok { title; columns; rows }

let gc_of_json path json =
  let* minor_words = req path "minor_words" Json.to_float json in
  let* promoted_words = req path "promoted_words" Json.to_float json in
  let* major_words = req path "major_words" Json.to_float json in
  let* minor_collections = req path "minor_collections" Json.to_int json in
  let* major_collections = req path "major_collections" Json.to_int json in
  let* compactions = req path "compactions" Json.to_int json in
  let* heap_words = req path "heap_words" Json.to_int json in
  let* top_heap_words = req path "top_heap_words" Json.to_int json in
  Ok
    {
      minor_words;
      promoted_words;
      major_words;
      minor_collections;
      major_collections;
      compactions;
      heap_words;
      top_heap_words;
    }

let attrib_entry_of_json path json =
  let* ae_key = req path "key" Json.to_str json in
  let* ae_docs = req path "docs" Json.to_int json in
  let* ae_events = req path "events" Json.to_int json in
  let* ae_match_s = req path "match_s" Json.to_float json in
  let* ae_structures = req path "structures" Json.to_int json in
  let* ae_live_peak = req path "live_peak" Json.to_int json in
  let* ae_retained_peak_bytes =
    req path "retained_peak_bytes" Json.to_int json
  in
  let* ae_emissions = req path "emissions" Json.to_int json in
  let* ae_faults = req path "faults" Json.to_int json in
  Ok
    {
      ae_key;
      ae_docs;
      ae_events;
      ae_match_s;
      ae_structures;
      ae_live_peak;
      ae_retained_peak_bytes;
      ae_emissions;
      ae_faults;
    }

let attribution_of_json path json =
  let* at_subscriptions = req path "subscriptions" Json.to_int json in
  let* at_docs = req path "docs" Json.to_int json in
  let* at_events = req path "events" Json.to_int json in
  let* at_match_s = req path "match_s" Json.to_float json in
  let* at_structures = req path "structures" Json.to_int json in
  let* at_emissions = req path "emissions" Json.to_int json in
  let* at_faults = req path "faults" Json.to_int json in
  let* top_values = req path "top" Json.to_list json in
  let* at_top =
    decode_list (path ^ ".top") attrib_entry_of_json top_values
  in
  Ok
    {
      at_subscriptions;
      at_docs;
      at_events;
      at_match_s;
      at_structures;
      at_emissions;
      at_faults;
      at_top;
    }

let of_json json =
  let path = "report" in
  let* version = req path "schema_version" Json.to_int json in
  if version < min_schema_version || version > schema_version then
    Error
      (Printf.sprintf
         "report: unsupported schema_version %d (this build reads %d)"
         version schema_version)
  else
    let* kind = req path "kind" Json.to_str json in
    let* created_at = req path "created_at" Json.to_float json in
    let* config = req path "config" Json.to_obj json in
    let* stats_fields = req path "stats" Json.to_obj json in
    let* stats =
      decode_list (path ^ ".stats")
        (fun p (k, v) ->
          match Json.to_float v with
          | Some x -> Ok (k, x)
          | None -> Error (Printf.sprintf "%s: field %S is not a number" p k))
        stats_fields
    in
    let* span_values = req path "spans" Json.to_list json in
    let* spans = decode_list (path ^ ".spans") span_of_json span_values in
    let* point_values = req path "snapshots" Json.to_list json in
    let* snapshots =
      decode_list (path ^ ".snapshots") point_of_json point_values
    in
    let* table_values = req path "tables" Json.to_list json in
    let* tables = decode_list (path ^ ".tables") table_of_json table_values in
    let* gc =
      match Json.member "gc" json with
      | None | Some Json.Null -> Ok None
      | Some g -> Result.map Option.some (gc_of_json (path ^ ".gc") g)
    in
    let* relevance =
      match Json.member "relevance" json with
      | None | Some Json.Null -> Ok None
      | Some r ->
        Result.map Option.some (relevance_of_json (path ^ ".relevance") r)
    in
    (* optional sections: a report carries only what its producer
       measured, and [report diff] notes a section present on one side *)
    let* service_latency =
      match Json.member "service_latency" json with
      | None | Some Json.Null -> Ok []
      | Some (Json.List values) ->
        decode_list (path ^ ".service_latency") latency_of_json values
      | Some _ -> Error (path ^ ": field \"service_latency\" must be an array")
    in
    let* attribution =
      match Json.member "attribution" json with
      | None | Some Json.Null -> Ok None
      | Some a ->
        Result.map Option.some (attribution_of_json (path ^ ".attribution") a)
    in
    Ok
      {
        version;
        kind;
        created_at;
        config;
        stats;
        spans;
        snapshots;
        tables;
        gc;
        relevance;
        service_latency;
        attribution;
      }

let validate json =
  let* r = of_json json in
  let* () =
    let rec monotone last = function
      | [] -> Ok ()
      | (p : Snapshot.point) :: rest ->
        if p.Snapshot.sn_bytes < last then
          Error
            (Printf.sprintf
               "report.snapshots: bytes regress (%d after %d) — not a valid \
                progress curve"
               p.Snapshot.sn_bytes last)
        else monotone p.Snapshot.sn_bytes rest
    in
    monotone (-1) r.snapshots
  in
  let* () =
    let rec spans_ok = function
      | [] -> Ok ()
      | (s : Telemetry.span_summary) :: rest ->
        if s.Telemetry.count <= 0 then
          Error
            (Printf.sprintf "report.spans: span %S has non-positive count"
               s.Telemetry.span_name)
        else if s.Telemetry.total_s < 0. then
          Error
            (Printf.sprintf "report.spans: span %S has negative total"
               s.Telemetry.span_name)
        else spans_ok rest
    in
    spans_ok r.spans
  in
  let* () =
    let latency_ok (s : Histogram.summary) =
      let name = s.Histogram.s_name in
      if s.s_count < 0 then
        Error
          (Printf.sprintf "report.service_latency: %S has negative count" name)
      else if s.s_p50 < 0. || s.s_p90 < s.s_p50 || s.s_p99 < s.s_p90 then
        Error
          (Printf.sprintf
             "report.service_latency: %S quantiles not monotone" name)
      else begin
        let rec buckets_ok last = function
          | [] -> Ok ()
          | (_, cumulative) :: rest ->
            if cumulative < last then
              Error
                (Printf.sprintf
                   "report.service_latency: %S cumulative buckets regress"
                   name)
            else buckets_ok cumulative rest
        in
        let* () = buckets_ok 0 s.s_buckets in
        match List.rev s.s_buckets with
        | (_, total) :: _ when total <> s.s_count ->
          Error
            (Printf.sprintf
               "report.service_latency: %S bucket total %d disagrees with \
                count %d"
               name total s.s_count)
        | _ -> Ok ()
      end
    in
    let rec all_ok = function
      | [] -> Ok ()
      | s :: rest ->
        let* () = latency_ok s in
        all_ok rest
    in
    all_ok r.service_latency
  in
  let* () =
    match r.relevance with
    | None -> Ok ()
    | Some rel ->
      if
        rel.rel_bytes_seen < 0 || rel.rel_retained_bytes < 0
        || rel.rel_retained_peak_bytes < 0 || rel.rel_elements_total < 0
        || rel.rel_elements_stored < 0
      then Error "report.relevance: negative quantity"
      else if rel.rel_retained_bytes > rel.rel_retained_peak_bytes then
        Error "report.relevance: retained_bytes above its recorded peak"
      else if rel.rel_elements_stored > rel.rel_elements_total then
        Error "report.relevance: more elements stored than seen"
      else if rel.rel_ratio < 0. then Error "report.relevance: negative ratio"
      else Ok ()
  in
  match r.attribution with
  | None -> Ok ()
  | Some a ->
    if
      a.at_subscriptions < 0 || a.at_docs < 0 || a.at_events < 0
      || a.at_match_s < 0. || a.at_structures < 0 || a.at_emissions < 0
      || a.at_faults < 0
    then Error "report.attribution: negative total"
    else if List.length a.at_top > a.at_subscriptions then
      Error "report.attribution: more top entries than subscriptions"
    else begin
      let entry_ok e =
        if
          e.ae_docs < 0 || e.ae_events < 0 || e.ae_match_s < 0.
          || e.ae_structures < 0 || e.ae_live_peak < 0
          || e.ae_retained_peak_bytes < 0 || e.ae_emissions < 0
          || e.ae_faults < 0
        then
          Error
            (Printf.sprintf "report.attribution: entry %S negative quantity"
               e.ae_key)
        else Ok ()
      in
      let rec entries_ok last = function
        | [] -> Ok ()
        | e :: rest ->
          let* () = entry_ok e in
          if e.ae_match_s > last then
            Error
              (Printf.sprintf
                 "report.attribution: top entries not sorted by match_s \
                  (entry %S)"
                 e.ae_key)
          else entries_ok e.ae_match_s rest
      in
      entries_ok infinity a.at_top
    end

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let to_string r = Json.to_string (to_json r)

let write path r =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_string r);
      output_char oc '\n')

let read path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | contents -> (
    match Json.parse contents with
    | Error msg -> Error msg
    | Ok json -> of_json json)
