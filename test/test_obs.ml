(* Telemetry layer: disabled path is inert, enabled path counts, spans
   time with an injected clock, JSON round-trips exactly, and run
   reports survive serialise -> parse -> of_json. *)

module Tel = Xaos_obs.Telemetry
module Json = Xaos_obs.Json
module Report = Xaos_obs.Report
module Snapshot = Xaos_obs.Snapshot
module Expose = Xaos_obs.Expose
module Attrib = Xaos_obs.Attrib

(* Each test starts from a clean slate; cells persist (process-global
   registry) but their values reset. *)
let fresh () =
  Tel.reset ();
  Tel.disable ()

(* ---------------- telemetry ---------------- *)

let test_disabled_is_noop () =
  fresh ();
  let c = Tel.counter "test_noop_total" in
  Tel.incr c;
  Tel.add c 41;
  Alcotest.(check int) "counter untouched" 0 (Tel.counter_value c);
  let g = Tel.gauge "test_noop_gauge" in
  Tel.set_gauge g 7;
  Alcotest.(check int) "gauge untouched" 0 (Tel.gauge_value g)

let test_enabled_counts () =
  fresh ();
  Tel.enable ();
  let c = Tel.counter "test_count_total" in
  Tel.incr c;
  Tel.add c 41;
  Alcotest.(check int) "counter" 42 (Tel.counter_value c);
  let g = Tel.gauge "test_count_gauge" in
  Tel.set_gauge g 7;
  Tel.set_gauge g 3;
  Alcotest.(check int) "gauge holds last value" 3 (Tel.gauge_value g);
  Alcotest.(check int) "gauge high-water" 7 (Tel.gauge_max g);
  Tel.reset ();
  Alcotest.(check int) "reset clears" 0 (Tel.counter_value c)

let test_registry_dedups () =
  fresh ();
  let a = Tel.counter "test_dedup_total" in
  let b = Tel.counter "test_dedup_total" in
  Tel.enable ();
  Tel.incr a;
  Tel.incr b;
  Alcotest.(check int) "same cell" 2 (Tel.counter_value a);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Telemetry: metric kind mismatch for test_dedup_total")
    (fun () -> ignore (Tel.gauge "test_dedup_total"))

let test_span_with_injected_clock () =
  fresh ();
  Tel.enable ();
  let t = ref 0. in
  Tel.set_clock (fun () -> !t);
  let sp = Tel.span "test_span_seconds" in
  Tel.enter sp;
  t := 1.5;
  Tel.leave sp;
  Tel.enter sp;
  t := 2.0;
  Tel.leave sp;
  (* unmatched leave must be ignored, not crash or double-count *)
  Tel.leave sp;
  let s = Tel.span_summary sp in
  Tel.set_clock (fun () -> Unix.gettimeofday ());
  Alcotest.(check int) "count" 2 s.Tel.count;
  Alcotest.(check (float 1e-9)) "total" 2.0 s.Tel.total_s;
  Alcotest.(check (float 1e-9)) "min" 0.5 s.Tel.min_s;
  Alcotest.(check (float 1e-9)) "max" 1.5 s.Tel.max_s

let test_time_is_exception_safe () =
  fresh ();
  Tel.enable ();
  let sp = Tel.span "test_time_seconds" in
  (try Tel.time sp (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "span closed despite raise" 1
    (Tel.span_summary sp).Tel.count

(* The engine's structure-lifetime distribution is a {!Histogram}: an
   evaluation with telemetry on exposes it as a Prometheus histogram
   under its long-standing name. *)
let test_lifetime_histogram_exposed () =
  fresh ();
  let module H = Xaos_obs.Histogram in
  let module Query = Xaos_core.Query in
  let q = Query.compile_exn "//b[c]" in
  let h =
    match H.find "engine/structure_lifetime" with
    | Some h -> h
    | None -> Alcotest.fail "engine/structure_lifetime is not registered"
  in
  H.reset h;
  Tel.enable ();
  ignore (Query.run_string q "<a><b><c/></b><b><d/></b></a>");
  Tel.disable ();
  let lines = String.split_on_char '\n' (Expose.render ()) in
  Alcotest.(check bool) "histogram type line" true
    (List.mem "# TYPE xaos_engine_structure_lifetime_elements histogram" lines);
  let prefix = "xaos_engine_structure_lifetime_elements_count " in
  let n = String.length prefix in
  match
    List.find_opt
      (fun l -> String.length l > n && String.sub l 0 n = prefix)
      lines
  with
  | Some l ->
    let count = int_of_string (String.sub l n (String.length l - n)) in
    Alcotest.(check bool) "non-zero _count" true (count > 0)
  | None -> Alcotest.fail "no _count sample for the lifetime histogram"

let test_expose_mentions_metrics () =
  fresh ();
  Tel.enable ();
  let c = Tel.counter ~help:"a test counter" "test_expose_total" in
  Tel.add c 5;
  let buf = Buffer.create 256 in
  Tel.expose buf;
  let text = Buffer.contents buf in
  let contains needle =
    let n = String.length needle and len = String.length text in
    let rec at i = i + n <= len && (String.sub text i n = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "sample line" true (contains "test_expose_total 5");
  Alcotest.(check bool) "help line" true
    (contains "# HELP test_expose_total a test counter");
  Alcotest.(check bool) "type line" true
    (contains "# TYPE test_expose_total counter")

(* Sanitization at the exposition boundary: metric names from arbitrary
   strings, label values from arbitrary subscription ids. *)
let test_expose_sanitization () =
  Alcotest.(check string) "illegal chars become underscores"
    "stage_parse_total" (Expose.sanitize_name "stage/parse total");
  Alcotest.(check string) "digit start prefixed" "_9lives"
    (Expose.sanitize_name "9lives");
  Alcotest.(check string) "empty becomes underscore" "_"
    (Expose.sanitize_name "");
  Alcotest.(check string) "legal name untouched" "xaos_ok:name_1"
    (Expose.sanitize_name "xaos_ok:name_1");
  Alcotest.(check string) "quote escaped" {|say \"hi\"|}
    (Expose.escape_label_value {|say "hi"|});
  Alcotest.(check string) "backslash escaped" {|a\\b|}
    (Expose.escape_label_value {|a\b|});
  Alcotest.(check string) "newline escaped" {|a\nb|}
    (Expose.escape_label_value "a\nb")

(* Hostile subscription ids must not corrupt the exposition: the
   attribution samples label-escape them, and the structural checker
   accepts the result. *)
let test_expose_survives_hostile_names () =
  fresh ();
  Tel.enable ();
  let attrib_was = Attrib.enabled () in
  Fun.protect
    ~finally:(fun () ->
      if not attrib_was then Attrib.disable ();
      Attrib.reset ();
      fresh ())
    (fun () ->
      Attrib.reset ();
      Attrib.enable ();
      List.iter
        (fun name ->
          Attrib.charge (Attrib.account name) ~events:3 ~match_s:0.01
            ~structures:1 ~live_peak:1 ~retained_peak_bytes:8 ~emissions:1
            ~fault:false)
        [ {|quo"te|}; {|back\slash|}; "new\nline"; "with space"; "//a[@b]" ];
      let text = Expose.render () in
      (match Expose.check text with
      | Ok () -> ()
      | Error e -> Alcotest.failf "hostile names broke the exposition: %s" e);
      (* the accounts actually made it out as labeled samples *)
      let contains needle =
        let n = String.length needle and len = String.length text in
        let rec at i =
          i + n <= len && (String.sub text i n = needle || at (i + 1))
        in
        at 0
      in
      Alcotest.(check bool) "labeled attribution sample" true
        (contains {|sub="with space"|});
      Alcotest.(check bool) "quote sample escaped" true
        (contains {|sub="quo\"te"|});
      (* a raw newline inside a label would split the sample line *)
      Alcotest.(check bool) "newline sample escaped" true
        (contains {|sub="new\nline"|}))

(* ---------------- json ---------------- *)

let test_json_round_trip () =
  let v =
    Json.Obj
      [
        ("i", Json.Int 42);
        ("f", Json.Float 0.1);
        ("tiny", Json.Float 5.9604644775390625e-06);
        ("s", Json.String "he said \"hi\"\n\ttab");
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Float 2.5; Json.String "x" ]);
        ("empty", Json.Obj []);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Error e -> Alcotest.fail e
  | Ok v' ->
    (* structural equality must hold exactly, floats included *)
    Alcotest.(check bool) "round trip" true (v = v')

(* JSON has no NaN or infinities: they encode as null, and the document
   still parses. *)
let test_json_non_finite () =
  List.iter
    (fun x ->
      let text = Json.to_string (Json.List [ Json.Float x; Json.Int 1 ]) in
      match Json.parse text with
      | Ok v ->
        Alcotest.(check bool)
          (Printf.sprintf "%h round trips as null" x)
          true
          (v = Json.List [ Json.Null; Json.Int 1 ])
      | Error e -> Alcotest.failf "%h encoded as unparseable %S: %s" x text e)
    [ infinity; neg_infinity; nan ]

let test_json_parse_errors () =
  let bad = [ "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ] in
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    bad

let test_json_accessors () =
  match Json.parse {|{"a": {"b": [10, 2.5]}, "s": "x"}|} with
  | Error e -> Alcotest.fail e
  | Ok v ->
    let open Json in
    (match member "a" v with
    | Some a -> (
      match member "b" a with
      | Some (List [ i; f ]) ->
        Alcotest.(check (option int)) "int" (Some 10) (to_int i);
        Alcotest.(check (option (float 0.))) "float" (Some 2.5) (to_float f)
      | _ -> Alcotest.fail "b not a 2-list")
    | None -> Alcotest.fail "missing a");
    Alcotest.(check bool) "absent member" true (member "zz" v = None)

(* ---------------- snapshot ---------------- *)

let test_snapshot_series () =
  fresh ();
  let t = ref 0. in
  Tel.set_clock (fun () -> !t);
  let s = Snapshot.create ~interval_bytes:100 () in
  Alcotest.(check bool) "first sample due immediately" true
    (Snapshot.due s ~bytes:0);
  Snapshot.sample s ~bytes:0 ~events:0 ~depth:0 ~live:0 ~looking_for:1;
  Alcotest.(check bool) "not due before interval" false
    (Snapshot.due s ~bytes:99);
  t := 1.0;
  Snapshot.sample s ~bytes:200 ~events:10 ~depth:3 ~live:5 ~looking_for:2;
  (* a regressing byte offset must be dropped, keeping the series
     monotone *)
  Snapshot.sample s ~bytes:150 ~events:11 ~depth:3 ~live:5 ~looking_for:2;
  Tel.set_clock (fun () -> Unix.gettimeofday ());
  let pts = Snapshot.points s in
  Alcotest.(check int) "two points" 2 (List.length pts);
  let bytes = List.map (fun p -> p.Snapshot.sn_bytes) pts in
  Alcotest.(check (list int)) "monotone bytes" [ 0; 200 ] bytes;
  let last = List.nth pts 1 in
  Alcotest.(check (float 1e-9)) "elapsed" 1.0 last.Snapshot.sn_elapsed_s;
  Alcotest.(check (float 1e-6)) "rate" 200. last.Snapshot.sn_bytes_per_sec

(* ---------------- eventlog ---------------- *)

module Eventlog = Xaos_obs.Eventlog

let fresh_log () =
  fresh ();
  Eventlog.disable ();
  Eventlog.set_sink None;
  Eventlog.set_level Eventlog.Info;
  Eventlog.set_capacity 1024;
  Eventlog.clear ()

let test_eventlog_ring_drop () =
  fresh_log ();
  Eventlog.enable ();
  Eventlog.set_capacity 4;
  let base = Eventlog.recorded () in
  for i = 1 to 10 do
    Eventlog.record ~kind:"shed" ~reason:Eventlog.Queue_full
      (Printf.sprintf "doc-%d" i)
  done;
  let events = Eventlog.events () in
  Alcotest.(check int) "ring holds capacity" 4 (List.length events);
  Alcotest.(check (list string)) "newest win, oldest first"
    [ "doc-7"; "doc-8"; "doc-9"; "doc-10" ]
    (List.map (fun e -> e.Eventlog.subject) events);
  Alcotest.(check int) "overwrites counted" 6 (Eventlog.dropped ());
  Alcotest.(check int) "all accepted" 10 (Eventlog.recorded () - base);
  (* sequence numbers survive the drops *)
  let seqs = List.map (fun e -> e.Eventlog.seq) events in
  Alcotest.(check bool) "seq strictly increasing" true
    (List.for_all2 ( < ) seqs (List.tl seqs @ [ max_int ]));
  Eventlog.clear ();
  Alcotest.(check int) "clear empties ring" 0
    (List.length (Eventlog.events ()));
  Alcotest.(check int) "clear zeroes drop counter" 0 (Eventlog.dropped ());
  Eventlog.disable ()

let test_eventlog_level_filter () =
  fresh_log ();
  Eventlog.enable ();
  Eventlog.set_level Eventlog.Warn;
  let base = Eventlog.recorded () in
  Eventlog.record ~level:Eventlog.Debug ~kind:"noise" "below";
  Eventlog.record ~kind:"noise" "info-is-below-warn";
  Eventlog.record ~level:Eventlog.Warn ~kind:"quarantine"
    ~reason:Eventlog.Budget_exceeded "poison";
  Eventlog.record ~level:Eventlog.Error ~kind:"crash"
    ~reason:Eventlog.Thread_crash "evaluator";
  let kinds = List.map (fun e -> e.Eventlog.kind) (Eventlog.events ()) in
  Alcotest.(check (list string)) "only >= warn recorded"
    [ "quarantine"; "crash" ] kinds;
  Alcotest.(check int) "filtered events not counted" 2
    (Eventlog.recorded () - base);
  (* while disabled nothing lands, whatever the level *)
  Eventlog.disable ();
  Eventlog.record ~level:Eventlog.Error ~kind:"crash" "ignored";
  Alcotest.(check int) "disabled is a no-op" 2 (Eventlog.recorded () - base)

let test_eventlog_sink_and_json () =
  fresh_log ();
  Eventlog.enable ();
  let lines = ref [] in
  Eventlog.set_sink (Some (fun line -> lines := line :: !lines));
  Eventlog.record ~kind:"readmit" ~reason:Eventlog.Backoff_elapsed
    ~detail:[ ("tick", Json.Int 17) ]
    "poison";
  Eventlog.record ~kind:"doc-end"
    ~reason:(Eventlog.Sax_limit "max_depth")
    "doc-3";
  Eventlog.set_sink None;
  match List.rev_map Json.parse !lines with
  | [ Ok first; Ok second ] ->
    let str k j = Option.bind (Json.member k j) Json.to_str in
    Alcotest.(check (option string)) "kind" (Some "readmit")
      (str "kind" first);
    Alcotest.(check (option string)) "typed reason code"
      (Some "backoff-elapsed") (str "reason" first);
    Alcotest.(check (option string)) "parameterised reason code"
      (Some "sax-limit:max_depth") (str "reason" second);
    Alcotest.(check (option int)) "detail preserved" (Some 17)
      (Option.bind (Json.member "detail" first) (fun d ->
           Option.bind (Json.member "tick" d) Json.to_int));
    Eventlog.disable ()
  | _ -> Alcotest.fail "expected exactly two well-formed sink lines"

(* ---------------- report ---------------- *)

(* A hand-built v4 attribution section: two accounts, top sorted
   descending by match time, totals covering a third account that did
   not make the cut. *)
let sample_attribution () =
  let entry key docs events match_s emissions faults =
    { Report.ae_key = key; ae_docs = docs; ae_events = events;
      ae_match_s = match_s; ae_structures = 2 * docs; ae_live_peak = 5;
      ae_retained_peak_bytes = 128; ae_emissions = emissions;
      ae_faults = faults }
  in
  { Report.at_subscriptions = 3; at_docs = 9; at_events = 48;
    at_match_s = 0.8; at_structures = 18; at_emissions = 6; at_faults = 1;
    at_top = [ entry "hot" 3 25 0.5 3 1; entry "warm" 3 15 0.25 2 0 ] }

let sample_report () =
  fresh ();
  Tel.enable ();
  let t = ref 0. in
  Tel.set_clock (fun () -> !t);
  let sp = Tel.span "test_report_seconds" in
  Tel.enter sp;
  t := 0.25;
  Tel.leave sp;
  let snap = Snapshot.create ~interval_bytes:10 () in
  Snapshot.sample snap ~bytes:0 ~events:0 ~depth:0 ~live:0 ~looking_for:1;
  t := 0.5;
  Snapshot.sample snap ~retained_bytes:25 ~bytes:50 ~events:9 ~depth:2 ~live:3
    ~looking_for:2;
  Tel.set_clock (fun () -> Unix.gettimeofday ());
  (* a real histogram summary, +inf bucket included, for the schema-v3
     service_latency section *)
  let hist = Xaos_obs.Histogram.make ~unit_:"s" ~scale:1e-6 "stage/test" in
  List.iter
    (Xaos_obs.Histogram.record hist)
    [ 120; 450; 900; 15_000 ];
  Report.make ~kind:"test"
    ~config:[ ("query", Json.String "//a"); ("eager", Json.Bool false) ]
    ~stats:[ ("elements_total", 12.); ("wall_s", 0.5) ]
    ~spans:[ Tel.span_summary sp ]
    ~snapshots:(Snapshot.points snap)
    ~tables:
      [ { Report.title = "t"; columns = [ "a"; "b" ]; rows = [ [ "1"; "2" ] ] } ]
    ~gc:(Report.gc_now ())
    ~relevance:
      (Report.relevance_of ~bytes_seen:1000 ~retained_bytes:25
         ~retained_peak_bytes:80 ~elements_total:12 ~elements_stored:3)
    ~service_latency:[ Xaos_obs.Histogram.summary hist ]
    ~attribution:(sample_attribution ())
    ()

let test_report_round_trip () =
  let r = sample_report () in
  let text = Report.to_string r in
  match Json.parse text with
  | Error e -> Alcotest.fail e
  | Ok json -> (
    match Report.of_json json with
    | Error e -> Alcotest.fail e
    | Ok r' ->
      Alcotest.(check int) "version" Report.schema_version r'.Report.version;
      Alcotest.(check string) "kind" "test" r'.Report.kind;
      Alcotest.(check bool) "config" true (r.Report.config = r'.Report.config);
      Alcotest.(check bool) "stats" true (r.Report.stats = r'.Report.stats);
      Alcotest.(check bool) "spans" true (r.Report.spans = r'.Report.spans);
      Alcotest.(check bool) "snapshots" true
        (r.Report.snapshots = r'.Report.snapshots);
      Alcotest.(check bool) "tables" true (r.Report.tables = r'.Report.tables);
      Alcotest.(check bool) "gc" true (r.Report.gc = r'.Report.gc);
      Alcotest.(check bool) "relevance" true
        (r.Report.relevance = r'.Report.relevance);
      (* v4 section survives exactly *)
      Alcotest.(check bool) "attribution" true
        (r.Report.attribution = r'.Report.attribution);
      (* v3 section survives exactly, +inf bucket bound included *)
      Alcotest.(check bool) "service_latency" true
        (r.Report.service_latency = r'.Report.service_latency);
      match r'.Report.service_latency with
      | [ s ] ->
        let bound, total =
          List.nth s.Xaos_obs.Histogram.s_buckets
            (List.length s.Xaos_obs.Histogram.s_buckets - 1)
        in
        Alcotest.(check bool) "last bound is +inf" true (bound = infinity);
        Alcotest.(check int) "inf bucket holds all" 4 total
      | _ -> Alcotest.fail "expected one latency summary")

(* The attribution section's structural invariants: non-negative
   quantities, top bounded by the registry size, top sorted descending
   by match time. *)
let test_attribution_validation () =
  let r = sample_report () in
  let map_attribution f = function
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (function
             | "attribution", Json.Obj af -> ("attribution", Json.Obj (f af))
             | kv -> kv)
           fields)
    | j -> j
  in
  let set key v fields =
    List.map (function k, _ when k = key -> (k, v) | kv -> kv) fields
  in
  let reject what j =
    match Report.validate j with
    | Ok () -> Alcotest.failf "%s accepted" what
    | Error _ -> ()
  in
  let base = Report.to_json r in
  reject "negative total"
    (map_attribution (set "faults" (Json.Int (-1))) base);
  reject "top larger than the registry"
    (map_attribution (set "subscriptions" (Json.Int 1)) base);
  (* reverse the top list: ascending match_s *)
  reject "unsorted top"
    (map_attribution
       (fun af ->
         List.map
           (function
             | "top", Json.List l -> ("top", Json.List (List.rev l))
             | kv -> kv)
           af)
       base);
  (* a negative per-entry quantity *)
  reject "negative entry"
    (map_attribution
       (fun af ->
         List.map
           (function
             | "top", Json.List (Json.Obj e :: rest) ->
               ("top", Json.List (Json.Obj (set "events" (Json.Int (-5)) e) :: rest))
             | kv -> kv)
           af)
       base)

let test_relevance_validation () =
  let r = sample_report () in
  (* a relevance section claiming more retained than its peak is
     inconsistent *)
  let corrupt = function
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (function
             | "relevance", Json.Obj rf ->
               ( "relevance",
                 Json.Obj
                   (List.map
                      (function
                        | "retained_bytes", _ ->
                          ("retained_bytes", Json.Int 999_999)
                        | kv -> kv)
                      rf) )
             | kv -> kv)
           fields)
    | j -> j
  in
  match Report.validate (corrupt (Report.to_json r)) with
  | Ok () -> Alcotest.fail "retained > peak accepted"
  | Error _ -> ()

let test_report_validate () =
  let r = sample_report () in
  (match Report.validate (Report.to_json r) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid report rejected: %s" e);
  (* an unsupported schema version must be rejected, not guessed at:
     a future one, and every one before the current *)
  let with_version v = function
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (function
             | "schema_version", _ -> ("schema_version", Json.Int v)
             | kv -> kv)
           fields)
    | j -> j
  in
  List.iter
    (fun v ->
      match Report.validate (with_version v (Report.to_json r)) with
      | Ok () -> Alcotest.failf "schema version %d accepted" v
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "v%d named unsupported" v)
          true
          (String.starts_with ~prefix:"report: unsupported schema_version" e))
    [ 1; 2; 3; 999 ];
  (* snapshots out of byte order are a malformed series *)
  let scramble = function
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (function
             | "snapshots", Json.List [ a; b ] ->
               ("snapshots", Json.List [ b; a ])
             | kv -> kv)
           fields)
    | j -> j
  in
  match Report.validate (scramble (Report.to_json r)) with
  | Ok () -> Alcotest.fail "non-monotone snapshots accepted"
  | Error _ -> ()

let test_report_write_read () =
  let r = sample_report () in
  let path = Filename.temp_file "xaos_report" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Report.write path r;
      match Report.read path with
      | Error e -> Alcotest.fail e
      | Ok r' ->
        Alcotest.(check bool) "file round trip" true
          (r.Report.stats = r'.Report.stats
          && r.Report.snapshots = r'.Report.snapshots))

let suite =
  [
    Alcotest.test_case "disabled telemetry is a no-op" `Quick
      test_disabled_is_noop;
    Alcotest.test_case "enabled telemetry counts" `Quick test_enabled_counts;
    Alcotest.test_case "registry dedups by name" `Quick test_registry_dedups;
    Alcotest.test_case "span timing with injected clock" `Quick
      test_span_with_injected_clock;
    Alcotest.test_case "time closes span on raise" `Quick
      test_time_is_exception_safe;
    Alcotest.test_case "engine lifetime histogram exposed" `Quick
      test_lifetime_histogram_exposed;
    Alcotest.test_case "prometheus exposition" `Quick
      test_expose_mentions_metrics;
    Alcotest.test_case "json round trip" `Quick test_json_round_trip;
    Alcotest.test_case "json non-finite floats" `Quick test_json_non_finite;
    Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    Alcotest.test_case "snapshot series monotone" `Quick test_snapshot_series;
    Alcotest.test_case "report round trip" `Quick test_report_round_trip;
    Alcotest.test_case "report validation" `Quick test_report_validate;
    Alcotest.test_case "attribution validation" `Quick
      test_attribution_validation;
    Alcotest.test_case "exposition sanitization" `Quick
      test_expose_sanitization;
    Alcotest.test_case "exposition survives hostile names" `Quick
      test_expose_survives_hostile_names;
    Alcotest.test_case "eventlog ring drop" `Quick test_eventlog_ring_drop;
    Alcotest.test_case "eventlog level filter" `Quick
      test_eventlog_level_filter;
    Alcotest.test_case "eventlog sink and typed reasons" `Quick
      test_eventlog_sink_and_json;
    Alcotest.test_case "relevance validation" `Quick test_relevance_validation;
    Alcotest.test_case "report write/read" `Quick test_report_write_read;
  ]
