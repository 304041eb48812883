open Xaos_core
module Sax = Xaos_xml.Sax
module Telemetry = Xaos_obs.Telemetry
module Tracer = Xaos_obs.Tracer
module Report = Xaos_obs.Report
module Json = Xaos_obs.Json

type config = {
  budget : int option;
  deadline_s : float option;
  limits : Sax.limits;
  quarantine : Quarantine.config;
  reset_symbols_every : int;
  earliest : bool;
  prefix_gate : bool;
      (** route gateable equivalence classes through the shared-prefix
          trie so their engines stay dormant until a document touches
          one of their prefixes (see {!Xaos_core.Query_set.start}) *)
  slow_ms : float option;
      (** a document whose total pipeline time reaches this many
          milliseconds lands in the slow-document log with its
          per-subscription breakdown ([Some 0.] flags every document —
          deterministic for tests); [None] disables the log *)
}

let default_config =
  { budget = Some 50_000; deadline_s = Some 2.0;
    limits = Sax.default_limits; quarantine = Quarantine.default_config;
    reset_symbols_every = 256; earliest = false; prefix_gate = true;
    slow_ms = None }

type status =
  | Live
  | Quarantined of string

type sub = {
  sub_query : Query.t;  (** survives Symbol.reset: re-resolves at start *)
}

(* One slow-document record: what crossed the threshold and who paid
   for it. [sd_top] is the per-subscription breakdown, descending by
   match time. *)
type slow_doc = {
  sd_doc_id : string;
  sd_tick : int;
  sd_total_ms : float;
  sd_events : int;
  sd_faults : int;
  sd_deadline : bool;
  sd_limit : string option;
  sd_top : (string * float) list;
}

let slow_log_cap = 64
let slow_top_n = 5

type t = {
  mu : Mutex.t;
  config : config;
  set : Query_set.t;
  subs : (string, sub) Hashtbl.t;
  quarantine : Quarantine.t;
  mutable tick : int;
  (* plain-int accounting: stats must work with telemetry disabled *)
  mutable n_events : int;
  mutable n_faults : int;
  mutable n_matches : int;
  mutable n_deadline : int;
  mutable n_limit : int;
  mutable n_aborted : int;
  mutable n_failed : int;
  (* pipeline totals accumulated independently of Attrib, so the
     conservation test compares two different accumulation paths *)
  mutable n_outcomes : int;
  mutable n_delivered : int;
  mutable n_emitted : int;
  mutable n_match_s : float;
  mutable n_slow : int;
  mutable n_classes : int;  (* engine classes in the last session *)
  mutable n_members : int;  (* subscriptions fanning into them *)
  mutable slow_log : slow_doc list;  (* newest first, <= slow_log_cap *)
}

let counter_docs = Telemetry.counter "xaos_service_docs_total"
let counter_faults = Telemetry.counter "xaos_service_sax_faults_total"
let counter_deadline = Telemetry.counter "xaos_service_deadline_total"
let counter_limit = Telemetry.counter "xaos_service_limit_total"
let counter_quarantined = Telemetry.counter "xaos_service_quarantined_total"
let counter_readmitted = Telemetry.counter "xaos_service_readmitted_total"
let gauge_live = Telemetry.gauge "xaos_service_live_subscriptions"
let span_publish =
  Telemetry.span ~help:"time evaluating one published document"
    "xaos_service_publish_seconds"

(* Per-stage latency histograms (microsecond base, reported in seconds).
   Parse and dispatch are recorded once per document; subscription match
   time once per (document, run) pair from the outcome's [spent_s]. *)
module Histogram = Xaos_obs.Histogram
module Eventlog = Xaos_obs.Eventlog
module Attrib = Xaos_obs.Attrib
module Flight = Xaos_obs.Flight

let hist_parse =
  Histogram.create ~unit_:"s" ~scale:1e-6
    ~help:"SAX parse time per document" "stage/parse"

let hist_dispatch =
  Histogram.create ~unit_:"s" ~scale:1e-6
    ~help:"event dispatch + matching time per document" "stage/dispatch"

let hist_sub_match =
  Histogram.create ~unit_:"s" ~scale:1e-6
    ~help:"per-subscription match time per document"
    "stage/subscription_match"

let create ?(config = default_config) () =
  { mu = Mutex.create (); config; set = Query_set.of_queries [];
    subs = Hashtbl.create 64;
    quarantine = Quarantine.create ~config:config.quarantine ();
    tick = 0; n_events = 0; n_faults = 0; n_matches = 0; n_deadline = 0;
    n_limit = 0; n_aborted = 0; n_failed = 0; n_outcomes = 0;
    n_delivered = 0; n_emitted = 0; n_match_s = 0.; n_slow = 0;
    n_classes = 0; n_members = 0; slow_log = [] }

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let subscribe ?(earliest = false) t ~name ~query =
  with_lock t @@ fun () ->
  if Hashtbl.mem t.subs name then Error ("duplicate subscription: " ^ name)
  else begin
    (* the emission mode is baked into the compiled query, so it follows
       the subscription through quarantine and re-admission for free *)
    let config =
      if earliest || t.config.earliest then
        { Engine.default_config with emission = Engine.Earliest }
      else Engine.default_config
    in
    match Query.compile ~config query with
    | Error e -> Error e
    | Ok q ->
      Hashtbl.add t.subs name { sub_query = q };
      Query_set.register t.set name q;
      Telemetry.set_gauge gauge_live (Query_set.size t.set);
      Ok ()
  end

let unsubscribe t ~name =
  with_lock t @@ fun () ->
  if not (Hashtbl.mem t.subs name) then false
  else begin
    Hashtbl.remove t.subs name;
    Quarantine.forget t.quarantine name;
    ignore (Query_set.unregister t.set name);
    Telemetry.set_gauge gauge_live (Query_set.size t.set);
    true
  end

let subscriptions t =
  with_lock t @@ fun () ->
  Hashtbl.fold
    (fun name _ acc ->
      let status =
        match Quarantine.reason t.quarantine name with
        | Some r -> Quarantined r
        | None -> Live
      in
      (name, status) :: acc)
    t.subs []
  |> List.sort compare

type doc_outcome = {
  doc_id : string;
  tick : int;
  matches : (string * int) list;
  events : int;
  faults : int;
  deadline_hit : bool;
  limit_hit : string option;
  aborted : string list;
  failed : (string * string) list;
  quarantined_now : (string * string) list;
  readmitted : string list;
}

(* re-admit every quarantined subscription whose backoff elapsed *)
let readmit_due t =
  let due = Quarantine.due t.quarantine ~now:t.tick in
  List.filter
    (fun name ->
      Quarantine.readmit t.quarantine name;
      match Hashtbl.find_opt t.subs name with
      | Some sub when not (Query_set.mem t.set name) ->
        Query_set.register t.set name sub.sub_query;
        Telemetry.incr counter_readmitted;
        Eventlog.record ~kind:"readmit" ~reason:Eventlog.Backoff_elapsed
          ~detail:[ ("tick", Json.Int t.tick); ("probation", Json.Bool true) ]
          name;
        true
      | _ ->
        (* unsubscribed while quarantined *)
        Quarantine.forget t.quarantine name;
        false)
    due

(* attribute per-run failures to their subscriptions; returns the ones
   quarantined by this document *)
let account_outcomes t ~doc_died outcomes =
  List.filter_map
    (fun (o : Query_set.outcome) ->
      let name = o.query_name in
      let failure_reason =
        match o.failed with
        | Some msg -> Some ("raised: " ^ msg)
        | None ->
          (* under a document-level end every run is flagged aborted;
             only blame the subscription when the document survived *)
          if o.aborted && not doc_died then Some "budget-exceeded" else None
      in
      match failure_reason with
      | None ->
        (* a document-level end is neutral for budget-aborted runs: not a
           failure, but not a success either — a success would reset the
           consecutive-failure streak of a near-quarantine subscription
           on every unrelated document-wide deadline *)
        if not doc_died then Quarantine.record_success t.quarantine ~name;
        None
      | Some reason -> (
        if o.failed <> None then t.n_failed <- t.n_failed + 1
        else t.n_aborted <- t.n_aborted + 1;
        match
          Quarantine.record_failure t.quarantine ~now:t.tick ~name ~reason
        with
        | `Counted -> None
        | `Quarantined ->
          ignore (Query_set.unregister t.set name);
          Telemetry.incr counter_quarantined;
          Telemetry.set_gauge gauge_live (Query_set.size t.set);
          Eventlog.record ~level:Eventlog.Warn ~kind:"quarantine"
            ~reason:
              (if o.failed <> None then Eventlog.Engine_raised
               else Eventlog.Budget_exceeded)
            ~detail:
              [ ("tick", Json.Int t.tick); ("reason", Json.String reason) ]
            name;
          Some (name, reason)))
    outcomes

let publish ?on_item ?flight t ~doc_id doc =
  with_lock t @@ fun () ->
  Telemetry.enter span_publish;
  if Tracer.enabled () then Tracer.phase_begin "service.publish";
  Fun.protect ~finally:(fun () ->
      if Tracer.enabled () then Tracer.phase_end "service.publish";
      Telemetry.leave span_publish)
  @@ fun () ->
  t.tick <- t.tick + 1;
  (match flight with Some fl -> Flight.set_tick fl t.tick | None -> ());
  Telemetry.incr counter_docs;
  if
    t.config.reset_symbols_every > 0
    && t.tick mod t.config.reset_symbols_every = 0
  then Xaos_xml.Symbol.reset ();
  let readmitted = readmit_due t in
  let session =
    Query_set.start ?budget:t.config.budget ~gate:t.config.prefix_gate
      ?on_item t.set
  in
  let classes, members, _ = Query_set.session_stats session in
  t.n_classes <- classes;
  t.n_members <- members;
  let faults = ref 0 in
  let deadline_hit = ref false in
  let limit_hit = ref None in
  let events = ref 0 in
  let started = Unix.gettimeofday () in
  let parser =
    Sax.of_string ~limits:t.config.limits ~mode:Sax.Lenient
      ~on_fault:(fun _ -> incr faults)
      doc
  in
  let parse_s = ref 0. and dispatch_s = ref 0. in
  (* one loop; while timed it splits time between the parser pull and
     the dispatch/match step, and keeps the session's byte offset
     current so results are stamped for emission latency. [timed] is
     read once per document, so the untimed path never reads the clock. *)
  let timed = Telemetry.enabled () in
  (try
     let rec loop () =
       let t0 = if timed then Telemetry.now () else 0. in
       let pulled = Sax.next parser in
       if timed then parse_s := !parse_s +. (Telemetry.now () -. t0);
       match pulled with
       | None -> ()
       | Some ev ->
         incr events;
         if timed then begin
           Query_set.set_stream_byte session (Sax.bytes_read parser);
           let t1 = Telemetry.now () in
           Query_set.feed session ev;
           dispatch_s := !dispatch_s +. (Telemetry.now () -. t1)
         end
         else Query_set.feed session ev;
         (match t.config.deadline_s with
         | Some d
           when !events land 63 = 0 && Unix.gettimeofday () -. started > d ->
           deadline_hit := true
         | _ -> ());
         if not !deadline_hit then loop ()
     in
     loop ()
   with Sax.Limit_exceeded (_, kind, _) ->
     limit_hit := Some (Sax.limit_kind_name kind));
  let doc_died = !deadline_hit || !limit_hit <> None in
  if !deadline_hit then
    Eventlog.record ~level:Eventlog.Warn ~kind:"doc-end"
      ~reason:Eventlog.Doc_deadline
      ~detail:[ ("tick", Json.Int t.tick); ("events", Json.Int !events) ]
      doc_id;
  (match !limit_hit with
  | Some kind ->
    Eventlog.record ~level:Eventlog.Warn ~kind:"doc-end"
      ~reason:(Eventlog.Sax_limit kind)
      ~detail:[ ("tick", Json.Int t.tick); ("events", Json.Int !events) ]
      doc_id
  | None -> ());
  let fin_t0 = if timed then Telemetry.now () else started in
  let outcomes =
    if doc_died then Query_set.finish_partial session
    else Query_set.finish session
  in
  let fin_t1 = if timed then Telemetry.now () else started in
  if timed then begin
    Histogram.record_seconds hist_parse !parse_s;
    Histogram.record_seconds hist_dispatch !dispatch_s;
    List.iter
      (fun (o : Query_set.outcome) ->
        Histogram.record_seconds hist_sub_match o.spent_s)
      outcomes
  end;
  let quarantined_now = account_outcomes t ~doc_died outcomes in
  (* pipeline totals and per-subscription cost charges from the same
     outcomes, accumulated through two separate paths on purpose: the
     conservation test asserts they agree *)
  let attrib_on = Attrib.enabled () in
  let run_faulted (o : Query_set.outcome) =
    o.failed <> None || (o.aborted && not doc_died)
  in
  List.iter
    (fun (o : Query_set.outcome) ->
      let emitted = List.length o.items in
      t.n_outcomes <- t.n_outcomes + 1;
      t.n_delivered <- t.n_delivered + o.delivered;
      t.n_emitted <- t.n_emitted + emitted;
      t.n_match_s <- t.n_match_s +. o.spent_s;
      if attrib_on then
        Attrib.charge
          (Attrib.account o.query_name)
          ~events:o.delivered ~match_s:o.spent_s
          ~structures:o.stats.Stats.structures_created
          ~live_peak:o.stats.Stats.live_peak
          ~retained_peak_bytes:o.stats.Stats.retained_peak_bytes
          ~emissions:emitted ~fault:(run_faulted o))
    outcomes;
  let total_s = Unix.gettimeofday () -. started in
  let any_run_fault = List.exists run_faulted outcomes in
  (* slow-document log: threshold-triggered, bounded ring plus a typed
     event-log record carrying the per-subscription breakdown *)
  let slow =
    match t.config.slow_ms with
    | Some ms when total_s *. 1000. >= ms -> true
    | _ -> false
  in
  if slow then begin
    let top =
      List.stable_sort
        (fun (a : Query_set.outcome) b -> compare b.spent_s a.spent_s)
        outcomes
      |> List.filteri (fun i _ -> i < slow_top_n)
      |> List.map (fun (o : Query_set.outcome) -> (o.query_name, o.spent_s))
    in
    let sd =
      { sd_doc_id = doc_id; sd_tick = t.tick;
        sd_total_ms = total_s *. 1000.; sd_events = !events;
        sd_faults = !faults; sd_deadline = !deadline_hit;
        sd_limit = !limit_hit; sd_top = top }
    in
    t.n_slow <- t.n_slow + 1;
    t.slow_log <-
      sd :: List.filteri (fun i _ -> i < slow_log_cap - 1) t.slow_log;
    Eventlog.record ~level:Eventlog.Warn ~kind:"slow-doc"
      ~reason:Eventlog.Slow_document
      ~detail:
        [ ("tick", Json.Int t.tick);
          ("total_ms", Json.Float sd.sd_total_ms);
          ("events", Json.Int !events);
          ( "top",
            Json.List
              (List.map
                 (fun (name, s) ->
                   Json.Obj
                     [ ("sub", Json.String name); ("match_s", Json.Float s) ])
                 top) ) ]
      doc_id
  end;
  (* flight spans: track 0 carries the sequential pipeline stages (parse
     and dispatch are disjoint measured subsets of the wall interval, so
     they sit before the real finish window), track 1 carries the match
     aggregate with per-subscription children laid sequentially inside
     it *)
  (match flight with
  | None -> ()
  | Some fl ->
    if slow then Flight.mark_slow fl;
    if doc_died || !faults > 0 || any_run_fault then Flight.mark_faulted fl;
    let p_end = started +. !parse_s in
    let d_end = p_end +. !dispatch_s in
    Flight.span fl ~name:"parse" ~start:started ~stop:p_end
      ~args:[ ("events", Json.Int !events) ]
      ();
    Flight.span fl ~name:"dispatch" ~start:p_end ~stop:d_end ();
    Flight.span fl ~name:"emission" ~start:fin_t0 ~stop:fin_t1
      ~args:[ ("outcomes", Json.Int (List.length outcomes)) ]
      ();
    Flight.span fl ~cat:"match" ~track:1 ~name:"match" ~start:p_end
      ~stop:fin_t1 ();
    let cursor = ref p_end in
    let shown = ref 0 in
    List.iter
      (fun (o : Query_set.outcome) ->
        if o.spent_s > 0. && !shown < 40 then begin
          incr shown;
          Flight.span fl ~cat:"match" ~track:1 ~name:o.query_name
            ~start:!cursor
            ~stop:(!cursor +. o.spent_s)
            ~args:
              [ ("events", Json.Int o.delivered);
                ("items", Json.Int (List.length o.items)) ]
            ();
          cursor := !cursor +. o.spent_s
        end)
      outcomes);
  let matches =
    List.filter_map
      (fun (o : Query_set.outcome) ->
        match o.items with
        | [] -> None
        | items -> Some (o.query_name, List.length items))
      outcomes
  in
  t.n_events <- t.n_events + !events;
  t.n_faults <- t.n_faults + !faults;
  t.n_matches <- t.n_matches + List.length matches;
  if !faults > 0 then Telemetry.add counter_faults !faults;
  if !deadline_hit then begin
    t.n_deadline <- t.n_deadline + 1;
    Telemetry.incr counter_deadline
  end;
  if !limit_hit <> None then begin
    t.n_limit <- t.n_limit + 1;
    Telemetry.incr counter_limit
  end;
  Telemetry.sample_gc ();
  { doc_id; tick = t.tick; matches; events = !events; faults = !faults;
    deadline_hit = !deadline_hit; limit_hit = !limit_hit;
    aborted =
      List.filter_map
        (fun (o : Query_set.outcome) ->
          if o.aborted && o.failed = None && not doc_died then
            Some o.query_name
          else None)
        outcomes;
    failed =
      List.filter_map
        (fun (o : Query_set.outcome) ->
          Option.map (fun m -> (o.query_name, m)) o.failed)
        outcomes;
    quarantined_now; readmitted }

let docs_seen t = with_lock t @@ fun () -> t.tick

let stats t =
  with_lock t @@ fun () ->
  let f = float_of_int in
  [ ("service/docs", f t.tick); ("service/events", f t.n_events);
    ("service/sax_faults", f t.n_faults);
    ("service/subscription_matches", f t.n_matches);
    ("service/deadline_ends", f t.n_deadline);
    ("service/limit_ends", f t.n_limit);
    ("service/runs_aborted", f t.n_aborted);
    ("service/runs_failed", f t.n_failed);
    ("service/quarantined", f (Quarantine.times_quarantined t.quarantine));
    ("service/readmitted", f (Quarantine.times_readmitted t.quarantine));
    ("service/live_subscriptions", f (Query_set.size t.set));
    ("service/quarantined_now",
     f (List.length (Quarantine.quarantined t.quarantine)));
    ("service/run_outcomes", f t.n_outcomes);
    ("service/deliveries", f t.n_delivered);
    ("service/emitted_items", f t.n_emitted);
    ("service/match_seconds", t.n_match_s);
    ("service/slow_docs", f t.n_slow);
    ("service/queryset_classes", f t.n_classes);
    ("service/queryset_members", f t.n_members);
    ("service/compaction_ratio",
     if t.n_classes = 0 then 1. else f t.n_members /. f t.n_classes) ]
  @ Histogram.stats ()

let quarantined t = with_lock t @@ fun () -> Quarantine.quarantined t.quarantine

let slow_docs t = with_lock t @@ fun () -> t.slow_log

let slow_doc_to_json sd =
  Json.Obj
    ([
       ("doc_id", Json.String sd.sd_doc_id);
       ("tick", Json.Int sd.sd_tick);
       ("total_ms", Json.Float sd.sd_total_ms);
       ("events", Json.Int sd.sd_events);
       ("faults", Json.Int sd.sd_faults);
       ("deadline", Json.Bool sd.sd_deadline);
     ]
    @ (match sd.sd_limit with
      | None -> []
      | Some kind -> [ ("limit", Json.String kind) ])
    @ [
        ( "top",
          Json.List
            (List.map
               (fun (name, s) ->
                 Json.Obj
                   [ ("sub", Json.String name); ("match_s", Json.Float s) ])
               sd.sd_top) );
      ])

let report ?(extra_stats = []) t =
  let stats = stats t @ extra_stats in
  let config =
    with_lock t @@ fun () ->
    [ ("budget",
       match t.config.budget with Some b -> Json.Int b | None -> Json.Null);
      ("deadline_s",
       match t.config.deadline_s with
       | Some d -> Json.Float d
       | None -> Json.Null);
      ("quarantine_threshold", Json.Int t.config.quarantine.threshold);
      ("reset_symbols_every", Json.Int t.config.reset_symbols_every);
      ("subscriptions", Json.Int (Hashtbl.length t.subs)) ]
  in
  Report.make ~kind:"service" ~config ~stats
    ~spans:(Telemetry.span_summaries ())
    ~service_latency:(Histogram.summaries ())
    ?attribution:
      (if Attrib.enabled () then Some (Attrib.report_section ()) else None)
    ~gc:(Report.gc_now ()) ()
