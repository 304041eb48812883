(* perfbench driver: one workload per invocation.

     xbench --workload NAME --seed N --seconds S --trace 0|1

   Builds the workload's inputs and oracle from the seed, measures for
   about S seconds, prints a human-readable table (every metric with its
   unit and sample count) and, as the last line of standard output, one
   JSON object: {"correct", "attempted", "failed", "metrics"}. With
   --trace 0 the metrics are the end-to-end ones, measured untraced; with
   --trace 1 they are the per-layer ones from the traced run. Exits
   non-zero when any oracle check fails. *)

module Json = Xaos_obs.Json

let out_dir = ".perfbench-out"
let server_exe = Filename.concat "_build" (Filename.concat "default" "bin/xaos.exe")

type metric = { name : string; unit_ : string; value : float; n : int option }

let metric ?n name unit_ value = { name; unit_; value; n }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** extra human-readable lines *)
  valid : bool;  (** false: the run cannot be trusted (backlog grew) *)
}

let print_result ~workload r =
  Printf.printf "workload %s\n" workload;
  List.iter (fun l -> Printf.printf "  %s\n" l) r.notes;
  List.iter
    (fun m ->
      Printf.printf "  %-32s %14.4f %-8s%s\n" m.name m.value m.unit_
        (match m.n with Some n -> Printf.sprintf " (n=%d)" n | None -> ""))
    r.metrics;
  Printf.printf "  %-32s %14.4f %-8s (attempted=%d failed=%d)\n" "failed_frac"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    "share" r.attempted r.failed;
  let correct = r.failed = 0 && r.valid in
  let num v = if Float.is_finite v then Json.Float v else Json.Null in
  print_endline
    (Json.to_string ~indent:false
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun m ->
                     ( m.name,
                       Json.Obj
                         [ ("value", num m.value);
                           ("unit", Json.String m.unit_) ] ))
                   r.metrics) ) ]));
  correct

(* {1 Wire workloads} *)

type wire_cfg = {
  rate : float;  (** open-loop documents per second *)
  window : int;  (** closed-loop documents in flight *)
  ctrl_period : float;  (** seconds between control requests *)
}

let setups = 3

let socket_path () = Filename.concat out_dir (Printf.sprintf "s%d.sock" (Unix.getpid ()))

let live_server = ref None

let () =
  at_exit (fun () ->
      match !live_server with
      | Some s -> Wire.stop_session s
      | None -> ());
  (* a killed benchmark still stops its server *)
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ]

(* spawn + subscribe [setups] times; the last session stays up *)
let wire_setup (w : Gen.wire) =
  let socket = socket_path () in
  let log = Filename.concat out_dir "server.log" in
  let times = Mono.samples () in
  let rec go k =
    let t0 = Mono.now () in
    let s = Wire.start_session ~exe:server_exe ~socket ~log w in
    live_server := Some s;
    Mono.add times (Mono.now () -. t0);
    if k = setups then s
    else begin
      Wire.stop_session s;
      live_server := None;
      go (k + 1)
    end
  in
  let s = go 1 in
  (s, times)

(* The run alternates [segments] closed-loop and open-loop phases, so
   each metric samples the whole run rather than one contiguous stretch
   of it: a host that slows down for a few seconds then moves a single
   segment, not a whole metric. Throughputs are the median segment. *)
let segments = 5

let wire_measured (w : Gen.wire) cfg ~seconds =
  let s, setup = wire_setup w in
  let t = Wire.create w s in
  let th = Wire.start_reader t in
  let lines = Wire.publish_lines w in
  (* warm-up: fills the server's heap and caches, not measured *)
  let _, seq = Wire.closed_loop t lines ~window:cfg.window ~seconds:1. ~first_seq:0 in
  let seg = seconds /. float_of_int segments in
  let docs_rate = Mono.samples () and mb_rate = Mono.samples () in
  let lag = Mono.samples () in
  let closed_docs = ref 0 and open_docs = ref 0 and ctrl_sent = ref 0 in
  let backlog_start = ref 0. and backlog_end = ref 0. in
  let seq = ref seq in
  let marks = ref [ (0, 0, 0) ] in
  for _ = 1 to segments do
    let closed, next =
      Wire.closed_loop t lines ~window:cfg.window ~seconds:(0.3 *. seg)
        ~first_seq:!seq
    in
    Mono.add docs_rate (float_of_int closed.c_docs /. closed.c_seconds);
    Mono.add mb_rate (float_of_int closed.c_bytes /. 1e6 /. closed.c_seconds);
    closed_docs := !closed_docs + closed.c_docs;
    let opened, next =
      Wire.open_loop t lines ~lag ~rate:cfg.rate ~ctrl_period:cfg.ctrl_period
        ~seconds:(0.7 *. seg) ~first_seq:next
    in
    open_docs := !open_docs + opened.o_docs;
    ctrl_sent := !ctrl_sent + opened.ctrl_sent;
    backlog_start := !backlog_start +. (opened.backlog_start /. float_of_int segments);
    backlog_end := !backlog_end +. (opened.backlog_end /. float_of_int segments);
    marks :=
      Mono.(count t.latency, count t.item_latency, count t.control_latency)
      :: !marks;
    seq := next
  done;
  let marks = List.rev !marks in
  let tail samples pick =
    Mono.segment_percentile samples (List.map pick marks) 99.
  in
  let stat = Wire.scrape_stats t in
  let rss = Mono.vm_hwm_mb s.server.pid in
  Wire.stop_reader t th;
  Wire.stop_session s;
  live_server := None;
  let grew = !backlog_end > !backlog_start +. 2. in
  let match_events, item_events = Gen.expected_events w in
  let doc_kb =
    Array.fold_left (fun a d -> a + String.length d) 0 w.docs
    / (1024 * Array.length w.docs)
  in
  let lat = t.latency and items = t.item_latency and ctl = t.control_latency in
  let n x = Some (Mono.count x) in
  { attempted = !seq + !ctrl_sent;
    failed = t.failed_docs + t.failed_ctrl;
    valid = not grew;
    notes =
      [ Printf.sprintf "%d subscriptions, %d distinct documents; closed loop window %d, open loop %.0f docs/s"
          (Array.length w.subs) (Array.length w.docs) cfg.window cfg.rate;
        Printf.sprintf "per document (oracle): %d KB, %.1f match events, %.1f item events"
          doc_kb match_events item_events;
        Printf.sprintf "backlog (docs in flight) first quarter %.2f, last quarter %.2f%s"
          !backlog_start !backlog_end
          (if grew then "  GREW: latencies invalid" else "");
        Printf.sprintf "server stats: shed %.0f, displaced %.0f, dropped responses %.0f, crashes %.0f"
          (stat "ingress/shed") (stat "ingress/displaced")
          (stat "server/dropped_responses") (stat "server/thread_crashes");
        Printf.sprintf "gen.lag_p99_ms %.3f (n=%d)" (Mono.percentile lag 99.)
          (Mono.count lag);
        Printf.sprintf "pooled over the run: latency p99 %.3f ms, item p99 %.3f ms, control p99 %.3f ms"
          (Mono.percentile lat 99.) (Mono.percentile items 99.) (Mono.percentile ctl 99.) ]
      @ List.rev t.mismatches;
    metrics =
      [ metric "setup_s" "s" (Mono.median setup) ~n:(Mono.count setup);
        metric "docs_per_s" "docs/s" (Mono.median docs_rate) ~n:!closed_docs;
        metric "eval_mb_per_s" "MB/s" (Mono.median mb_rate) ~n:!closed_docs;
        metric "latency_p50_ms" "ms" (Mono.median lat) ?n:(n lat);
        metric "latency_p99_ms" "ms" (tail lat (fun (a, _, _) -> a)) ?n:(n lat);
        metric "item_latency_p50_ms" "ms" (Mono.median items) ?n:(n items);
        metric "item_latency_p99_ms" "ms" (tail items (fun (_, b, _) -> b)) ?n:(n items);
        metric "control_p99_ms" "ms" (tail ctl (fun (_, _, c) -> c)) ?n:(n ctl);
        metric "peak_mem_mb" "MB" rss ];
  }

(* {1 xmark-stream} *)

let stream_measured (g : Gen.stream) ~seconds =
  let m = Stream.measured g ~seconds in
  let passes = Mono.count m.passes in
  let mb = float_of_int m.doc_bytes /. 1e6 in
  let n x = Some (Mono.count x) in
  { attempted = passes; failed = m.mismatches; valid = true;
    notes =
      [ Printf.sprintf "%.1f MB XMark document, %d queries (odd ones earliest), DOM baseline oracle"
          mb (Array.length g.queries) ];
    metrics =
      [ metric "setup_s" "s" (Mono.median m.setup) ?n:(n m.setup);
        metric "docs_per_s" "docs/s" (Mono.median m.rates) ~n:passes;
        metric "eval_mb_per_s" "MB/s" (Mono.median m.rates *. mb) ~n:passes;
        metric "latency_p50_ms" "ms" (Mono.median m.passes) ?n:(n m.passes);
        metric "latency_p99_ms" "ms"
          (Mono.segment_percentile m.passes m.pass_marks 99.) ?n:(n m.passes);
        metric "item_latency_p50_ms" "ms" (Mono.median m.items) ?n:(n m.items);
        metric "item_latency_p99_ms" "ms"
          (Mono.segment_percentile m.items m.item_marks 99.) ?n:(n m.items);
        metric "control_p99_ms" "ms"
          (Mono.segment_percentile m.control m.control_marks 99.) ?n:(n m.control);
        metric "peak_mem_mb" "MB" m.peak_heap_mb ] }

(* {1 Traced runs: the per-layer metrics} *)

(* Per-layer metrics in a fixed order; a layer the workload bypasses
   reports 0. *)
let layer_metrics = [
  ("sax.parse_ms", "ms"); ("sax.mb_per_s", "MB/s"); ("sax.events", "count");
  ("sax.minor_words_per_event", "words"); ("sax.share", "ratio");
  ("xpath.compile_ms", "ms");
  ("queryset.start_ms", "ms"); ("queryset.feed_ms", "ms");
  ("queryset.finish_ms", "ms"); ("queryset.dispatched", "count");
  ("queryset.suppressed", "count"); ("queryset.delivery_ratio", "ratio");
  ("queryset.classes", "count"); ("queryset.compaction_ratio", "ratio");
  ("queryset.dormant_frac", "ratio"); ("queryset.match_yield", "ratio");
  ("gate.speedup", "ratio");
  ("engine.structures", "count"); ("engine.live_peak", "count");
  ("engine.retained_peak_bytes", "bytes");
  ("engine.minor_words_per_event", "words"); ("engine.share", "ratio");
  ("query.feed_ms", "ms"); ("query.finish_ms", "ms");
  ("broker.publish_ms", "ms"); ("broker.overhead_ms", "ms");
  ("broker.stats_wait_ms", "ms"); ("broker.share", "ratio");
  ("protocol.encode_ms", "ms"); ("protocol.decode_ms", "ms");
  ("wire.bytes_in", "bytes"); ("wire.bytes_out", "bytes");
  ("wire.transport_ms", "ms");
  ("server.shed", "count"); ("server.displaced", "count");
  ("server.dropped", "count");
  ("obs.observer_overhead", "ratio"); ("obs.attrib_overhead", "ratio");
  ("gen.lag_p99_ms", "ms"); ("trace.coverage", "ratio");
  ("trace.overhead", "ratio") ]

let layer_result ~attempted ~failed ~notes values =
  { attempted; failed; valid = true; notes;
    metrics =
      List.map
        (fun (name, unit_) ->
          let v = Option.value ~default:0. (List.assoc_opt name values) in
          metric name unit_ (if Float.is_finite v then v else 0.))
        layer_metrics }

(* per-document self times of the named spans, as samples *)
let doc_values docs names f =
  let s = Mono.samples () in
  Hashtbl.iter
    (fun _ tbl ->
      let get n = Option.map fst (Hashtbl.find_opt tbl n) in
      let vals = List.map get names in
      if List.for_all Option.is_some vals then
        match f (List.map Option.get vals) with
        | Some v -> Mono.add s v
        | None -> ())
    docs;
  s

let span_total docs name =
  Hashtbl.fold
    (fun _ tbl (ms, w) ->
      match Hashtbl.find_opt tbl name with
      | Some (m, w') -> (ms +. m, w +. w')
      | None -> (ms, w))
    docs (0., 0.)

let trace_path workload seed =
  Filename.concat out_dir (Printf.sprintf "%s-seed%d.trace.json" workload seed)

let wire_traced ~workload ~seed (w : Gen.wire) cfg ~seconds =
  (* phase A, over the wire: transport, generator lag, bytes, shedding *)
  let s, _ = wire_setup w in
  let t = Wire.create w s in
  let th = Wire.start_reader t in
  let lines = Wire.publish_lines w in
  let _, seq = Wire.closed_loop t lines ~window:cfg.window ~seconds:1. ~first_seq:0 in
  List.iter (fun (c : Wire.conn) -> c.bytes_in <- 0; c.bytes_out <- 0) [ s.pub; s.sub ];
  let lag = Mono.samples () in
  let opened, seq =
    Wire.open_loop t lines ~lag ~rate:cfg.rate ~ctrl_period:cfg.ctrl_period
      ~seconds:(0.35 *. seconds) ~first_seq:seq
  in
  let to_server = s.pub.bytes_out + s.sub.bytes_out
  and from_server = s.pub.bytes_in + s.sub.bytes_in in
  let stat = Wire.scrape_stats t in
  Wire.stop_reader t th;
  Wire.stop_session s;
  live_server := None;
  let wire_p50 = Mono.median t.latency in
  (* phase B, in-process: the traced replay *)
  let ls, fed, emitted, replay_mismatches = Traced.wire w ~seconds:(0.65 *. seconds) in
  Traced.write_chrome (trace_path workload seed);
  let docs = Traced.per_doc () in
  let med names f = Mono.median (doc_values docs names f) in
  let ms name = med [ name ] (fun l -> Some (List.hd l)) in
  let core = [ "sax"; "queryset.start"; "queryset.feed"; "queryset.finish" ] in
  let sum4 l = List.fold_left ( +. ) 0. l in
  let with_pub f = med ("broker.publish" :: core) (function p :: l -> f p l | [] -> None) in
  let total name = fst (span_total docs name) in
  let words name = snd (span_total docs name) in
  let events = Traced.tot ls "sax.events" in
  let bytes =
    Hashtbl.fold (fun d _ acc -> acc + String.length w.docs.(d mod Array.length w.docs)) docs 0
  in
  let qs = total "queryset.start" +. total "queryset.feed" +. total "queryset.finish" in
  let pub = total "broker.publish" in
  let traced = total "doc" +. total "sax" +. qs in
  let n_open = float_of_int opened.o_docs in
  let publish_p50 = ms "broker.publish" in
  let values =
    [ ("sax.parse_ms", ms "sax");
      ("sax.mb_per_s", float_of_int bytes /. 1e6 /. (total "sax" /. 1e3));
      ("sax.events", Traced.med ls "sax.events");
      ("sax.minor_words_per_event", Traced.ratio (words "sax") events);
      ("sax.share", with_pub (fun p l -> Some (List.hd l /. p)));
      ("xpath.compile_ms", Traced.med ls "xpath.compile_ms");
      ("queryset.start_ms", ms "queryset.start");
      ("queryset.feed_ms", ms "queryset.feed");
      ("queryset.finish_ms", ms "queryset.finish");
      ("queryset.dispatched", Traced.med ls "queryset.dispatched");
      ("queryset.suppressed", Traced.med ls "queryset.suppressed");
      ("queryset.delivery_ratio",
       Traced.ratio (Traced.tot ls "queryset.dispatched")
         (Traced.tot ls "queryset.dispatched" +. Traced.tot ls "queryset.suppressed"));
      ("queryset.classes", Traced.med ls "queryset.classes");
      ("queryset.compaction_ratio",
       Traced.ratio (Traced.tot ls "queryset.members") (Traced.tot ls "queryset.classes"));
      ("queryset.dormant_frac",
       Traced.ratio (Traced.tot ls "queryset.dormant") (Traced.tot ls "queryset.classes"));
      ("queryset.match_yield", Traced.ratio (float_of_int emitted) (float_of_int fed));
      ("gate.speedup", Traced.ratio (total "queryset.ungated") qs);
      ("engine.structures", Traced.med ls "engine.structures");
      ("engine.live_peak", Traced.med ls "engine.live_peak");
      ("engine.retained_peak_bytes", Traced.med ls "engine.retained_peak_bytes");
      ("engine.minor_words_per_event",
       Traced.ratio
         (words "queryset.start" +. words "queryset.feed" +. words "queryset.finish")
         events);
      ("engine.share", with_pub (fun p l -> Some (sum4 (List.tl l) /. p)));
      ("query.feed_ms", ms "query.feed");
      ("query.finish_ms", ms "query.finish");
      ("broker.publish_ms", publish_p50);
      ("broker.overhead_ms", with_pub (fun p l -> Some (p -. sum4 l)));
      ("broker.stats_wait_ms", Traced.med ls "broker.stats_wait_ms");
      ("broker.share", with_pub (fun p l -> Some ((p -. sum4 l) /. p)));
      ("protocol.encode_ms", ms "protocol.encode");
      ("protocol.decode_ms", ms "protocol.decode");
      ("wire.bytes_in", float_of_int to_server /. n_open);
      ("wire.bytes_out", float_of_int from_server /. n_open);
      ("wire.transport_ms", wire_p50 -. publish_p50);
      ("server.shed", stat "ingress/shed");
      ("server.displaced", stat "ingress/displaced");
      ("server.dropped", stat "server/dropped_responses");
      ("obs.observer_overhead", Traced.ratio (total "broker.publish.telemetry") pub);
      ("obs.attrib_overhead", Traced.ratio (total "broker.publish.attrib") pub);
      ("gen.lag_p99_ms", Mono.percentile lag 99.);
      ("trace.coverage", with_pub (fun p l -> Some (sum4 l /. p)));
      ("trace.overhead", Traced.ratio pub traced) ]
  in
  layer_result ~attempted:(seq + opened.ctrl_sent + Hashtbl.length docs)
    ~failed:(t.failed_docs + t.failed_ctrl + replay_mismatches)
    ~notes:
      ([ Printf.sprintf "traced replay: %d documents, trace written to %s"
           (Hashtbl.length docs) (trace_path workload seed);
         Printf.sprintf "wire phase: %d documents at %.0f/s, latency p50 %.3f ms"
           opened.o_docs cfg.rate wire_p50 ]
      @ List.rev t.mismatches)
    values

let stream_traced ~workload ~seed (g : Gen.stream) ~seconds =
  let ls, mismatches = Traced.stream g ~seconds in
  Traced.write_chrome (trace_path workload seed);
  let docs = Traced.per_doc () in
  let med names f = Mono.median (doc_values docs names f) in
  let ms name = med [ name ] (fun l -> Some (List.hd l)) in
  let layers = [ "pass.untraced"; "sax"; "query.feed"; "query.finish" ] in
  let share f =
    med layers (function u :: l -> Some (f l /. u) | [] -> None)
  in
  let total name = fst (span_total docs name) in
  let words name = snd (span_total docs name) in
  let events = Traced.tot ls "sax.events" in
  let passes = Hashtbl.length docs in
  let engine l = List.nth l 1 +. List.nth l 2 in
  let values =
    [ ("sax.parse_ms", ms "sax");
      ("sax.mb_per_s",
       float_of_int (passes * String.length g.doc) /. 1e6 /. (total "sax" /. 1e3));
      ("sax.events", Traced.med ls "sax.events");
      ("sax.minor_words_per_event", Traced.ratio (words "sax") events);
      ("sax.share", share List.hd);
      ("xpath.compile_ms", Traced.med ls "xpath.compile_ms");
      ("engine.structures", Traced.med ls "engine.structures");
      ("engine.live_peak", Traced.med ls "engine.live_peak");
      ("engine.retained_peak_bytes", Traced.med ls "engine.retained_peak_bytes");
      ("engine.minor_words_per_event",
       Traced.ratio (words "query.feed" +. words "query.finish") events);
      ("engine.share", share engine);
      ("query.feed_ms", ms "query.feed");
      ("query.finish_ms", ms "query.finish");
      ("trace.coverage", share (fun l -> List.hd l +. engine l));
      ("trace.overhead",
       Traced.ratio (total "pass.untraced")
         (total "pass" +. total "sax" +. total "query.feed" +. total "query.finish")) ]
  in
  layer_result ~attempted:passes ~failed:mismatches
    ~notes:
      [ Printf.sprintf "traced replay: %d passes, trace written to %s; \
                        queryset, broker, protocol, wire and obs are bypassed (0)"
          passes (trace_path workload seed) ]
    values

(* {1 Command line} *)

(* Open-loop rates are about half the closed-loop docs_per_s measured on
   this benchmark's reference machine (2 cores), so the server is never
   saturated and the backlog stays flat. *)
let topics_cfg = { rate = 36.; window = 2; ctrl_period = 0.05 }
let mixed_cfg = { rate = 50.; window = 2; ctrl_period = 0.025 }

let workloads = [ "topics-wire"; "mixed-wire"; "xmark-stream" ]

let usage () =
  prerr_endline
    "usage: xbench --workload (topics-wire|mixed-wire|xmark-stream) --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload workloads) || !seconds <= 0. || (!trace <> 0 && !trace <> 1)
  then usage ();
  if not (Sys.file_exists server_exe) then begin
    prerr_endline ("xbench: " ^ server_exe ^ " is not built");
    exit 2
  end;
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let seconds = !seconds and seed = !seed and workload = !workload in
  let traced = !trace = 1 in
  let r =
    try
      match workload with
      | "topics-wire" when traced ->
        wire_traced ~workload ~seed (Gen.topics ~seed) topics_cfg ~seconds
      | "topics-wire" -> wire_measured (Gen.topics ~seed) topics_cfg ~seconds
      | "mixed-wire" when traced ->
        wire_traced ~workload ~seed (Gen.mixed ~seed) mixed_cfg ~seconds
      | "mixed-wire" -> wire_measured (Gen.mixed ~seed) mixed_cfg ~seconds
      | _ when traced -> stream_traced ~workload ~seed (Gen.stream ~seed) ~seconds
      | _ -> stream_measured (Gen.stream ~seed) ~seconds
    with Wire.Fatal msg ->
      prerr_endline ("xbench: " ^ msg);
      exit 1
  in
  if not (print_result ~workload r) then exit 1
