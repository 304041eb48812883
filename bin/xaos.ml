(* xaos — command-line front end to the streaming XPath engine.

     xaos eval '//listitem/ancestor::category//name' auctions.xml
     cat doc.xml | xaos eval --stats '//a[b]/..'
     xaos eval --lenient --partial-ok '//item//name' hostile.xml
     xaos explain '//Y[U]//W[ancestor::Z/V]'
     xaos filter subscriptions.txt doc1.xml doc2.xml
     xaos generate xmark --scale 0.01 -o auctions.xml
     xaos generate random --seed 7 --elements 50000 -o random.xml

   Exit codes: 0 success (including --partial-ok degradation), 1 query
   error, 2 I/O error, 3 ill-formed input, 4 resource limit tripped. *)

open Cmdliner
open Xaos_core
module Tel = Xaos_obs.Telemetry
module Trc = Xaos_obs.Tracer

let exit_query_error = 1

let exit_io_error = 2

let exit_ill_formed = 3

let exit_limit = 4

let die code msg =
  prerr_endline ("xaos: " ^ msg);
  exit code

let or_die_query = function
  | Ok v -> v
  | Error msg -> die exit_query_error msg

let sax_error_message pos msg =
  Format.asprintf "%a: %s" Xaos_xml.Sax.pp_position pos msg

let limit_message pos kind bound =
  Format.asprintf "%a: input exceeds %s = %d" Xaos_xml.Sax.pp_position pos
    (Xaos_xml.Sax.limit_kind_name kind)
    bound

(* Open the document source, hand the parser to [f], and close the channel
   on every path. A missing or unreadable file is an I/O error (exit 2),
   not an uncaught Sys_error backtrace. *)
let with_source ?limits ?mode ?on_fault file f =
  match file with
  | None -> f (Xaos_xml.Sax.of_channel ?limits ?mode ?on_fault stdin)
  | Some path ->
    let ic =
      try open_in_bin path with Sys_error msg -> die exit_io_error msg
    in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> f (Xaos_xml.Sax.of_channel ?limits ?mode ?on_fault ic))

(* Read the whole document as an event list, each event stamped with the
   parser position just past its token — shared by trace and why, which
   replay the same events once per disjunct. *)
let collect_positioned_events ?limits ?mode ?on_fault file =
  with_source ?limits ?mode ?on_fault file (fun parser ->
      let rec loop acc =
        match Xaos_xml.Sax.next parser with
        | None -> List.rev acc
        | Some ev ->
          loop ((ev, Some (Xaos_xml.Sax.position parser)) :: acc)
        | exception Xaos_xml.Sax.Error (pos, msg) ->
          die exit_ill_formed (sax_error_message pos msg)
        | exception Xaos_xml.Sax.Limit_exceeded (pos, kind, bound) ->
          die exit_limit (limit_message pos kind bound)
      in
      loop [])

(* ------------------------------------------------------------------ *)
(* Hardening options shared by eval and filter                         *)
(* ------------------------------------------------------------------ *)

type hardening = {
  lenient : bool;
  partial_ok : bool;
  limits : Xaos_xml.Sax.limits;
  budget : int option;
}

let make_hardening lenient partial_ok max_depth max_bytes max_structures =
  let limits =
    {
      Xaos_xml.Sax.default_limits with
      max_depth =
        Option.value max_depth
          ~default:Xaos_xml.Sax.default_limits.Xaos_xml.Sax.max_depth;
      max_input_bytes =
        Option.value max_bytes
          ~default:Xaos_xml.Sax.default_limits.Xaos_xml.Sax.max_input_bytes;
    }
  in
  { lenient; partial_ok; limits; budget = max_structures }

let parse_mode h = if h.lenient then Xaos_xml.Sax.Lenient else Xaos_xml.Sax.Strict

(* Outcome of streaming one document through a query run. *)
type stream_outcome =
  | Complete
  | Failed of int * string  (* exit code, message *)

(* Whole-run wall clock, shared by --stats, --report and --metrics. *)
let span_run =
  Tel.span ~help:"wall-clock time of the whole streaming run"
    "xaos_run_seconds"

(* Stream every event into the run. With [series], also record a
   snapshot time series over document bytes: a cheap due-check per event,
   plus one final point on every outcome so the series is never empty.
   When the provenance tracer is on, each event's parser position is
   threaded in first so lifecycle events carry document offsets. *)
let stream_document ?series run parser =
  let tracing = Xaos_obs.Tracer.enabled () in
  let events = ref 0 in
  let sample s =
    Xaos_obs.Snapshot.sample s
      ~bytes:(Xaos_xml.Sax.bytes_read parser)
      ~events:!events
      ~depth:(Xaos_xml.Sax.depth parser)
      ~live:(Query.live_structures run)
      ~looking_for:(Query.looking_for_size run)
      ~retained_bytes:(Query.retained_bytes run)
  in
  let outcome =
    try
      let rec loop () =
        match Xaos_xml.Sax.next parser with
        | None -> ()
        | Some ev ->
          if tracing then begin
            let p = Xaos_xml.Sax.position parser in
            Xaos_obs.Tracer.set_position ~byte:p.Xaos_xml.Sax.offset
              ~line:p.Xaos_xml.Sax.line
          end;
          Query.feed run ev;
          incr events;
          (match series with
          | Some s
            when Xaos_obs.Snapshot.due s
                   ~bytes:(Xaos_xml.Sax.bytes_read parser) ->
            sample s
          | Some _ | None -> ());
          loop ()
      in
      loop ();
      Complete
    with
    | Xaos_xml.Sax.Error (pos, msg) ->
      Failed (exit_ill_formed, sax_error_message pos msg)
    | Xaos_xml.Sax.Limit_exceeded (pos, kind, bound) ->
      Failed (exit_limit, limit_message pos kind bound)
    | Engine.Budget_exceeded { live; budget } ->
      Failed
        ( exit_limit,
          Printf.sprintf "engine budget exceeded: %d live structures (cap %d)"
            live budget )
  in
  (match series with Some s -> sample s | None -> ());
  outcome

(* ------------------------------------------------------------------ *)
(* eval                                                                *)
(* ------------------------------------------------------------------ *)

type engine_kind =
  | Streaming
  | Dom
  | Dom_dedup

let config_of ~eager ~earliest ~no_filter ~no_counters =
  if eager && earliest then
    die exit_query_error "--eager and --earliest are mutually exclusive";
  {
    Engine.boolean_subtrees = not no_counters;
    relevance_filter = not no_filter;
    emission =
      (if earliest then Engine.Earliest
       else if eager then Engine.Eager
       else Engine.Deferred);
  }

let print_items items =
  List.iter (fun i -> Format.printf "%a@." Item.pp i) items

let eval_report ~query ~file ~h ~eager ~earliest ~no_filter ~no_counters
    ~stats ~result ~run ~series ~wall_s ~peak_heap_words ~bytes_seen path =
  let open Xaos_obs in
  let config =
    [
      ("query", Json.String query);
      ("file", match file with Some f -> Json.String f | None -> Json.Null);
      ("engine", Json.String "xaos");
      ("eager", Json.Bool eager);
      ("earliest", Json.Bool earliest);
      ("no_filter", Json.Bool no_filter);
      ("no_counters", Json.Bool no_counters);
      ("lenient", Json.Bool h.lenient);
      ("partial_ok", Json.Bool h.partial_ok);
      ("max_depth", Json.Int h.limits.Xaos_xml.Sax.max_depth);
      ( "max_input_bytes",
        Json.Int h.limits.Xaos_xml.Sax.max_input_bytes );
      ( "budget",
        match h.budget with Some b -> Json.Int b | None -> Json.Null );
    ]
  in
  let stats_fields =
    List.map (fun (k, v) -> (k, float_of_int v)) (Stats.to_fields stats)
    @ [
        ("discarded_fraction", Stats.discarded_fraction stats);
        ("results", float_of_int (List.length result.Result_set.items));
        ( "retained_structures",
          float_of_int (Query.retained_structures run) );
        ("wall_s", wall_s);
        ("peak_heap_words", float_of_int peak_heap_words);
      ]
  in
  let relevance =
    Report.relevance_of ~bytes_seen
      ~retained_bytes:stats.Stats.retained_bytes
      ~retained_peak_bytes:stats.Stats.retained_peak_bytes
      ~elements_total:stats.Stats.elements_total
      ~elements_stored:stats.Stats.elements_stored
  in
  let report =
    Report.make ~kind:"eval" ~config ~stats:stats_fields
      ~spans:(Tel.span_summaries ())
      ~snapshots:(Snapshot.points series)
      ~gc:(Report.gc_now ()) ~relevance ()
  in
  try Report.write path report with Sys_error msg -> die exit_io_error msg

let eval_cmd query file engine_kind eager earliest no_filter no_counters
    stats_flag count_only tuples_flag report metrics trace_out trace_capacity
    snapshot_interval hardening =
  let h = hardening in
  let config = config_of ~eager ~earliest ~no_filter ~no_counters in
  (match engine_kind, report, metrics, trace_out with
  | (Dom | Dom_dedup), Some _, _, _
  | (Dom | Dom_dedup), _, Some _, _
  | (Dom | Dom_dedup), _, _, Some _ ->
    die exit_query_error
      "--report, --metrics and --trace-out require the streaming engine \
       (--engine xaos)"
  | _ -> ());
  match engine_kind with
  | Streaming ->
    (* --stats, --report and --metrics all draw from the telemetry sink;
       plain runs leave it disabled (the hook points are no-ops). The
       provenance tracer is a separate ring, enabled only by --trace-out. *)
    let telemetry = stats_flag || report <> None || metrics <> None in
    if telemetry then begin
      Tel.reset ();
      Tel.enable ()
    end;
    if trace_out <> None then Trc.enable ~capacity:trace_capacity ();
    Trc.phase_begin "compile";
    let q = or_die_query (Query.compile ~config query) in
    Trc.phase_end "compile";
    let faults = ref 0 in
    (* --earliest: results are printed by the engine's callback the
       moment each is decided, and the deferred result set (computed
       anyway) is compared against what was streamed — the CLI is its
       own differential check. *)
    let streamed = ref [] in
    let on_match =
      if not earliest then None
      else
        Some
          (fun (it : Item.t) ->
            streamed := it :: !streamed;
            if not count_only then Format.printf "%a@." Item.pp it)
    in
    let run = Query.start ?on_match ?budget:h.budget q in
    (* --metrics streams each snapshot point as one NDJSON line during
       the run, then appends the Prometheus exposition at exit — so the
       sink is opened before streaming starts. *)
    let metrics_sink =
      match metrics with
      | None -> None
      | Some path when String.equal path "-" -> Some (stdout, false)
      | Some path -> (
        try Some (open_out path, true)
        with Sys_error msg -> die exit_io_error msg)
    in
    let series =
      match report, metrics_sink with
      | None, None -> None
      | _ ->
        let on_point =
          Option.map
            (fun (oc, _) (p : Xaos_obs.Snapshot.point) ->
              output_string oc
                (Xaos_obs.Json.to_string ~indent:false
                   (Xaos_obs.Report.point_to_json p));
              output_char oc '\n')
            metrics_sink
        in
        Some
          (Xaos_obs.Snapshot.create ~interval_bytes:snapshot_interval
             ?on_point ())
    in
    let bytes_seen = ref 0 in
    let stream () =
      Tel.enter span_run;
      Trc.phase_begin "stream";
      let outcome =
        with_source ~limits:h.limits ~mode:(parse_mode h)
          ~on_fault:(fun _ -> incr faults)
          file
          (fun parser ->
            let outcome = stream_document ?series run parser in
            bytes_seen := Xaos_xml.Sax.bytes_read parser;
            outcome)
      in
      Trc.phase_end "stream";
      Tel.leave span_run;
      outcome
    in
    let outcome, peak_heap_words =
      if telemetry then Tel.with_peak_heap stream else (stream (), 0)
    in
    let wall_s = (Tel.span_summary span_run).Tel.total_s in
    Trc.phase_begin "finish";
    let result =
      match outcome with
      | Complete -> Query.finish run
      | Failed (code, msg) ->
        if h.partial_ok then begin
          Format.eprintf "xaos: %s; reporting partial results@." msg;
          Query.finish_partial run
        end
        else die code msg
    in
    Trc.phase_end "finish";
    if earliest then begin
      (* every item must have come through the callback, in document
         order, exactly once — fail loudly if the two paths disagree *)
      let ids l = List.map (fun (i : Item.t) -> i.Item.id) l in
      if ids (List.rev !streamed) <> ids result.Result_set.items then
        die exit_ill_formed
          (Printf.sprintf
             "internal: earliest emission streamed %d items but the result \
              set holds %d (or order differs)"
             (List.length !streamed)
             (List.length result.Result_set.items))
    end;
    if count_only then
      Format.printf "%d@." (List.length result.Result_set.items)
    else if not earliest then print_items result.Result_set.items;
    (if tuples_flag then
       match result.Result_set.tuples with
       | None -> ()
       | Some tuples ->
         List.iter
           (fun tuple ->
             Format.printf "(%a)@."
               (Format.pp_print_array
                  ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
                  Item.pp)
               tuple)
           tuples);
    let stats = Query.run_stats run in
    stats.Stats.parse_faults <- !faults;
    if stats_flag then
      Format.eprintf "%a; wall: %.3f s; peak heap: %d words@." Stats.pp stats
        wall_s peak_heap_words;
    (match report with
    | None -> ()
    | Some path ->
      let series = Option.get series in
      eval_report ~query ~file ~h ~eager ~earliest ~no_filter ~no_counters
        ~stats ~result ~run ~series ~wall_s ~peak_heap_words
        ~bytes_seen:!bytes_seen path);
    (match metrics_sink with
    | None -> ()
    | Some (oc, close) ->
      (* full exposition: the telemetry registry plus every latency
         histogram (e.g. [engine/emission]) *)
      output_string oc (Xaos_obs.Expose.render ());
      if close then close_out_noerr oc else flush oc);
    (match trace_out with
    | None -> ()
    | Some path -> (
      Trc.disable ();
      try Trc.write_chrome path with Sys_error msg -> die exit_io_error msg))
  | Dom | Dom_dedup ->
    let path =
      match Xaos_xpath.Parser.parse_result query with
      | Ok p -> p
      | Error msg -> die exit_query_error msg
    in
    let doc =
      with_source ~limits:h.limits ~mode:(parse_mode h) file (fun parser ->
          try Xaos_xml.Dom.of_sax parser with
          | Xaos_xml.Sax.Error (pos, msg) ->
            die exit_ill_formed (sax_error_message pos msg)
          | Xaos_xml.Sax.Limit_exceeded (pos, kind, bound) ->
            die exit_limit (limit_message pos kind bound))
    in
    let dedup = engine_kind = Dom_dedup in
    let items, counters =
      Xaos_baseline.Dom_engine.eval_with_counters ~dedup doc path
    in
    if count_only then Format.printf "%d@." (List.length items)
    else print_items items;
    if stats_flag then
      Format.eprintf "nodes visited: %d; predicate evaluations: %d@."
        counters.Xaos_baseline.Dom_engine.nodes_visited
        counters.Xaos_baseline.Dom_engine.predicate_evaluations

(* ------------------------------------------------------------------ *)
(* explain                                                             *)
(* ------------------------------------------------------------------ *)

let explain_cmd query =
  let path =
    match Xaos_xpath.Parser.parse_result query with
    | Ok p -> p
    | Error msg -> die exit_query_error msg
  in
  Format.printf "expression:  %s@." (Xaos_xpath.Ast.to_string path);
  Format.printf "node tests:  %d@." (Xaos_xpath.Ast.step_count path);
  Format.printf "backward:    %b@." (Xaos_xpath.Ast.uses_backward_axis path);
  let disjuncts =
    or_die_query (Xaos_xpath.Dnf.expand_bounded ~limit:64 path)
  in
  List.iteri
    (fun i disjunct ->
      if List.length disjuncts > 1 then
        Format.printf "@.-- disjunct %d: %s@." (i + 1)
          (Xaos_xpath.Ast.to_string disjunct);
      let xtree = Xaos_xpath.Xtree.of_path disjunct in
      Format.printf "@.x-tree:@.%a" Xaos_xpath.Xtree.pp xtree;
      match Xaos_xpath.Xdag.of_xtree xtree with
      | dag ->
        Format.printf "@.x-dag:@.%a" Xaos_xpath.Xdag.pp dag;
        (match Xaos_xpath.Xdag.join_points dag with
        | [] -> Format.printf "join points: none (x-dag is a tree)@."
        | points ->
          Format.printf "join points: %a@."
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
               Format.pp_print_int)
            points);
        let engine = Engine.create dag in
        Format.printf "eager-capable: %b@." (Engine.emits_eagerly engine)
      | exception Xaos_xpath.Xdag.Unsatisfiable ->
        Format.printf
          "@.unsatisfiable: reversal creates a cycle (e.g. an ancestor of \
           the root); this disjunct never matches@.")
    disjuncts

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let default_trace_limit = 200

let trace_cmd query file limit =
  let path =
    match Xaos_xpath.Parser.parse_result query with
    | Ok p -> p
    | Error msg -> die exit_query_error msg
  in
  let disjuncts =
    or_die_query (Xaos_xpath.Dnf.expand_bounded ~limit:16 path)
  in
  let events = collect_positioned_events file in
  List.iteri
    (fun i disjunct ->
      if List.length disjuncts > 1 then
        Format.printf "@.-- disjunct %d: %s@.@." (i + 1)
          (Xaos_xpath.Ast.to_string disjunct);
      let xtree = Xaos_xpath.Xtree.of_path disjunct in
      match Xaos_xpath.Xdag.of_xtree xtree with
      | dag ->
        let trace = Trace.run_positioned dag events in
        let truncated =
          match limit with
          | Some n when List.length trace.Trace.steps > n ->
            Some { trace with Trace.steps = List.filteri (fun i _ -> i < n) trace.Trace.steps }
          | _ -> None
        in
        (match truncated with
        | Some t ->
          Format.printf "%a" (Trace.pp ~xtree) t;
          let lim = Option.get limit in
          Format.printf
            "... (%d more steps not shown; --limit is %d, default %d; \
             raise it or pass --limit 0 for all)@."
            (List.length trace.Trace.steps - lim)
            lim default_trace_limit
        | None -> Format.printf "%a" (Trace.pp ~xtree) trace)
      | exception Xaos_xpath.Xdag.Unsatisfiable ->
        Format.printf "unsatisfiable disjunct; no trace@.")
    disjuncts

(* ------------------------------------------------------------------ *)
(* why (causal provenance of result items)                             *)
(* ------------------------------------------------------------------ *)

let label_of (xtree : Xaos_xpath.Xtree.t) v =
  if v < 0 || v >= Array.length xtree.Xaos_xpath.Xtree.nodes then "?"
  else
    Format.asprintf "%a" Xaos_xpath.Xtree.pp_label
      xtree.Xaos_xpath.Xtree.nodes.(v).Xaos_xpath.Xtree.label

(* Render one provenance chain, emission first, climbing the surviving
   placements toward the root. *)
let print_chain xtree (item : Item.t) =
  match Trc.provenance ~item_id:item.Item.id with
  | [] ->
    Format.printf
      "%a: no retained provenance (raise the ring capacity?)@." Item.pp item
  | chain ->
    Format.printf "%a@." Item.pp item;
    List.iter
      (fun (e : Trc.event) ->
        let pos ppf () =
          if e.Trc.byte >= 0 then
            Format.fprintf ppf " at byte %d (line %d)" e.Trc.byte e.Trc.line
        in
        match e.Trc.kind with
        | Trc.Emitted _ ->
          Format.printf "  emitted%a by structure #%d@." pos () e.Trc.serial
        | Trc.Created { parent_serial } ->
          let witness =
            if parent_serial = 0 then ", witnessed by the root"
            else if parent_serial > 0 then
              Printf.sprintf ", witnessed by #%d" parent_serial
            else ""
          in
          let survived =
            match Trc.undos_survived ~serial:e.Trc.serial with
            | 0 -> ""
            | 1 -> ", survived 1 undo"
            | n -> Printf.sprintf ", survived %d undos" n
          in
          Format.printf "  structure #%d at x-node %s created%a for %s@%d%s%s@."
            e.Trc.serial
            (label_of xtree e.Trc.xnode)
            pos () e.Trc.tag e.Trc.level witness survived
        | Trc.Propagated { target_serial; optimistic } ->
          let target =
            if target_serial = 0 then "the root structure"
            else
              match Trc.creation ~serial:target_serial with
              | Some c ->
                Printf.sprintf "#%d at %s" target_serial
                  (label_of xtree c.Trc.xnode)
              | None -> Printf.sprintf "#%d" target_serial
          in
          Format.printf "  #%d propagated%s into %s%a@." e.Trc.serial
            (if optimistic then " optimistically" else "")
            target pos ()
        | Trc.Undone _ | Trc.Refuted | Trc.Phase _ -> ())
      chain

let why_cmd query file item_sel =
  let path =
    match Xaos_xpath.Parser.parse_result query with
    | Ok p -> p
    | Error msg -> die exit_query_error msg
  in
  let disjuncts =
    or_die_query (Xaos_xpath.Dnf.expand_bounded ~limit:16 path)
  in
  let events = collect_positioned_events (Some file) in
  List.iteri
    (fun i disjunct ->
      if List.length disjuncts > 1 then
        Format.printf "@.-- disjunct %d: %s@." (i + 1)
          (Xaos_xpath.Ast.to_string disjunct);
      let xtree = Xaos_xpath.Xtree.of_path disjunct in
      match Xaos_xpath.Xdag.of_xtree xtree with
      | exception Xaos_xpath.Xdag.Unsatisfiable ->
        Format.printf "unsatisfiable disjunct; nothing to explain@."
      | dag ->
        (* serials and causal ids are per engine run, so each disjunct
           gets a fresh ring *)
        Trc.enable ();
        let engine = Engine.create dag in
        let result =
          Fun.protect
            ~finally:(fun () -> Trc.disable ())
            (fun () ->
              List.iter
                (fun (ev, pos) ->
                  (match pos with
                  | Some (p : Xaos_xml.Sax.position) ->
                    Trc.set_position ~byte:p.Xaos_xml.Sax.offset
                      ~line:p.Xaos_xml.Sax.line
                  | None -> ());
                  Engine.feed engine ev)
                events;
              Engine.finish engine)
        in
        let items =
          match item_sel with
          | None -> result.Result_set.items
          | Some id ->
            List.filter
              (fun (it : Item.t) -> it.Item.id = id)
              result.Result_set.items
        in
        if items = [] then
          Format.printf "no result items%s@."
            (match item_sel with
            | Some id -> Printf.sprintf " with element id %d" id
            | None -> "")
        else List.iter (print_chain xtree) items)
    disjuncts

(* ------------------------------------------------------------------ *)
(* filter (publish/subscribe)                                          *)
(* ------------------------------------------------------------------ *)

let filter_cmd subscriptions_file docs shared earliest hardening =
  let h = hardening in
  let subscriptions =
    let ic =
      try open_in subscriptions_file
      with Sys_error msg -> die exit_io_error msg
    in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec loop acc =
          match input_line ic with
          | line ->
            let line = String.trim line in
            if String.length line = 0 || line.[0] = '#' then loop acc
            else loop (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        loop [])
  in
  (* names must be unique (the same expression may be subscribed twice),
     so queries are named by position; compile errors carry both *)
  let set =
    let config =
      if earliest then
        Some { Engine.default_config with emission = Engine.Earliest }
      else None
    in
    or_die_query
      (Query_set.compile ?config
         (List.mapi
            (fun i q -> (Printf.sprintf "#%d (%s)" (i + 1) q, q))
            subscriptions))
  in
  let dispatch = if shared then Query_set.Shared else Query_set.Naive in
  let exit_code = ref 0 in
  List.iter
    (fun doc_file ->
      (* one pass over the document feeds every subscription. Under
         --earliest each result is also pushed mid-stream; the printed
         verdicts stay byte-identical to the deferred mode and the
         streamed counts are checked against them below. *)
      let streamed : (string, int) Hashtbl.t = Hashtbl.create 16 in
      let on_item =
        if not earliest then None
        else
          Some
            (fun ~name (_ : Item.t) ->
              Hashtbl.replace streamed name
                (1 + Option.value ~default:0 (Hashtbl.find_opt streamed name)))
      in
      let session = Query_set.start ?budget:h.budget ~dispatch ?on_item set in
      (* unlike eval, a failing document must not abort the whole batch:
         report it, pick the right exit code, move on. A budget trip is
         not a document failure at all any more — the session isolates it
         to the offending run *)
      let outcome =
        match open_in_bin doc_file with
        | exception Sys_error msg -> Failed (exit_io_error, msg)
        | ic ->
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              let parser =
                Xaos_xml.Sax.of_channel ~limits:h.limits ~mode:(parse_mode h)
                  ic
              in
              try
                Xaos_xml.Sax.iter (Query_set.feed session) parser;
                Complete
              with
              | Xaos_xml.Sax.Error (pos, msg) ->
                Failed (exit_ill_formed, sax_error_message pos msg)
              | Xaos_xml.Sax.Limit_exceeded (pos, kind, bound) ->
                Failed (exit_limit, limit_message pos kind bound))
      in
      let outcomes =
        match outcome with
        | Complete ->
          let outcomes = Query_set.finish session in
          List.iter
            (fun (o : Query_set.outcome) ->
              if o.aborted then
                if h.partial_ok then
                  Format.eprintf
                    "%s: %s: engine budget exceeded; using partial verdict@."
                    doc_file o.query_name
                else begin
                  Format.eprintf "%s: %s: engine budget exceeded@." doc_file
                    o.query_name;
                  if !exit_code = 0 then exit_code := exit_limit
                end)
            outcomes;
          outcomes
        | Failed (code, msg) ->
          if h.partial_ok then
            Format.eprintf "%s: %s; using partial verdicts@." doc_file msg
          else begin
            Format.eprintf "%s: %s@." doc_file msg;
            if !exit_code = 0 then exit_code := code
          end;
          Query_set.finish_partial session
      in
      if earliest then
        (* the mid-stream deliveries and the final outcomes are two
           paths to the same answer; any disagreement is an engine bug *)
        List.iter
          (fun (o : Query_set.outcome) ->
            let got =
              Option.value ~default:0 (Hashtbl.find_opt streamed o.query_name)
            in
            if got <> List.length o.items then
              die exit_ill_formed
                (Printf.sprintf
                   "internal: %s: %s streamed %d items but finished with %d"
                   doc_file o.query_name got (List.length o.items)))
          outcomes;
      List.iter2
        (fun q (o : Query_set.outcome) ->
          Format.printf "%s\t%s\t%s@." doc_file
            (if o.items <> [] then "MATCH" else "-")
            q)
        subscriptions outcomes)
    docs;
  exit !exit_code

(* ------------------------------------------------------------------ *)
(* report (inspect/validate machine-readable run reports)              *)
(* ------------------------------------------------------------------ *)

let report_validate_cmd path =
  let contents =
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | contents -> contents
    | exception Sys_error msg -> die exit_io_error msg
  in
  let json =
    match Xaos_obs.Json.parse contents with
    | Ok json -> json
    | Error msg -> die exit_ill_formed (path ^ ": " ^ msg)
  in
  match Xaos_obs.Report.validate json with
  | Error msg -> die exit_ill_formed (path ^ ": " ^ msg)
  | Ok () ->
    (* validate implies of_json succeeds *)
    let r = Result.get_ok (Xaos_obs.Report.of_json json) in
    Format.printf
      "%s: valid run report (schema v%d, kind %s, %d stats, %d spans, %d \
       snapshots, %d tables)@."
      path r.Xaos_obs.Report.version r.Xaos_obs.Report.kind
      (List.length r.Xaos_obs.Report.stats)
      (List.length r.Xaos_obs.Report.spans)
      (List.length r.Xaos_obs.Report.snapshots)
      (List.length r.Xaos_obs.Report.tables)

(* Stats where a larger value is a regression: timings, space, GC churn.
   Monotone work counters (events, propagations) legitimately grow with
   the workload and are reported but never fail the diff. *)
let worse_when_larger name =
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
    at 0
  in
  String.ends_with ~suffix:"_s" name
  || String.ends_with ~suffix:"_bytes" name
  || String.ends_with ~suffix:"_words" name
  || contains name "peak"

let report_diff_cmd old_path new_path threshold_pct =
  let load path =
    match Xaos_obs.Report.read path with
    | Ok r -> r
    | Error msg -> die exit_ill_formed (path ^ ": " ^ msg)
  in
  let old_r = load old_path and new_r = load new_path in
  let old_stats = old_r.Xaos_obs.Report.stats
  and new_stats = new_r.Xaos_obs.Report.stats in
  let regressions = ref [] in
  (* one table row; growth beyond the threshold regresses only [gated]
     stats *)
  let row ~gated name ov nv =
    let pct =
      if ov <> 0. then Some ((nv -. ov) /. Float.abs ov *. 100.) else None
    in
    let regressed =
      gated
      &&
      match pct with
      | Some pct -> pct > threshold_pct
      | None -> nv > 0.
    in
    if regressed then regressions := name :: !regressions;
    Format.printf "%-28s %14g %14g %9s%%%s@." name ov nv
      (match pct with
      | Some pct -> Printf.sprintf "%+.1f" pct
      | None -> "n/a")
      (if regressed then "  !" else "")
  in
  Format.printf "%-28s %14s %14s %10s@." "stat" "old" "new" "delta";
  List.iter
    (fun (name, ov) ->
      match List.assoc_opt name new_stats with
      | None -> Format.printf "%-28s %14g %14s@." name ov "(dropped)"
      | Some nv -> row ~gated:(worse_when_larger name) name ov nv)
    old_stats;
  List.iter
    (fun (name, nv) ->
      if not (List.mem_assoc name old_stats) then
        Format.printf "%-28s %14s %14g@." name "(new)" nv)
    new_stats;
  (* service-latency sections: compare the key quantiles per histogram
     when both reports carry them. Quantile stats already present in the
     flat [stats] list (service reports embed them there too) are
     skipped — one verdict per number. *)
  let old_lat = old_r.Xaos_obs.Report.service_latency
  and new_lat = new_r.Xaos_obs.Report.service_latency in
  if old_lat <> [] && new_lat <> [] then
    List.iter
      (fun (os : Xaos_obs.Histogram.summary) ->
        match
          List.find_opt
            (fun (ns : Xaos_obs.Histogram.summary) ->
              ns.Xaos_obs.Histogram.s_name = os.Xaos_obs.Histogram.s_name)
            new_lat
        with
        | None -> ()
        | Some ns ->
          let unit_suffix =
            match os.Xaos_obs.Histogram.s_unit with
            | "" -> ""
            | u -> "_" ^ u
          in
          List.iter
            (fun (q, ov, nv) ->
              let name =
                os.Xaos_obs.Histogram.s_name ^ "_" ^ q ^ unit_suffix
              in
              (* latency: larger is always worse *)
              if not (List.mem_assoc name old_stats) then
                row ~gated:true name ov nv)
            [ ("p50", os.Xaos_obs.Histogram.s_p50, ns.Xaos_obs.Histogram.s_p50);
              ("p99", os.Xaos_obs.Histogram.s_p99, ns.Xaos_obs.Histogram.s_p99)
            ])
      old_lat;
  (* optional sections may legitimately be absent on one side — an eval
     report has no attribution, a service report carries one only while
     attribution is on. Skip with a note; only both-sided sections
     gate. *)
  let skip_note section side =
    Format.printf "note: skipping %s (absent in %s)@." section side
  in
  if old_lat = [] && new_lat <> [] then skip_note "service_latency" "baseline"
  else if old_lat <> [] && new_lat = [] then skip_note "service_latency" "new";
  (match
     ( old_r.Xaos_obs.Report.attribution,
       new_r.Xaos_obs.Report.attribution )
   with
  | None, None -> ()
  | None, Some _ -> skip_note "attribution" "baseline"
  | Some _, None -> skip_note "attribution" "new"
  | Some oa, Some na ->
    let open Xaos_obs.Report in
    List.iter
      (fun (name, ov, nv) -> row ~gated:(worse_when_larger name) name ov nv)
      [ ("attribution/subscriptions",
         float_of_int oa.at_subscriptions,
         float_of_int na.at_subscriptions);
        ("attribution/docs", float_of_int oa.at_docs,
         float_of_int na.at_docs);
        ("attribution/events", float_of_int oa.at_events,
         float_of_int na.at_events);
        ("attribution/match_s", oa.at_match_s, na.at_match_s);
        ("attribution/structures", float_of_int oa.at_structures,
         float_of_int na.at_structures);
        ("attribution/emissions", float_of_int oa.at_emissions,
         float_of_int na.at_emissions);
        ("attribution/faults", float_of_int oa.at_faults,
         float_of_int na.at_faults) ]);
  match !regressions with
  | [] -> Format.printf "no regressions above %g%%@." threshold_pct
  | names ->
    Format.printf "REGRESSION (> %g%%): %s@." threshold_pct
      (String.concat ", " (List.rev names));
    exit 1

let report_command =
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"REPORT.json")
  in
  let old_path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD.json")
  in
  let new_path =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW.json")
  in
  let threshold =
    Arg.(value & opt float 10.
         & info [ "threshold-pct" ] ~docv:"PCT"
             ~doc:"Regression tolerance: fail when a timing/space stat \
                   grows by more than $(docv) percent (default 10).")
  in
  Cmd.group
    (Cmd.info "report" ~doc:"Machine-readable run reports")
    [
      Cmd.v
        (Cmd.info "validate"
           ~doc:"Check that a file is a well-formed run report of the \
                 current schema (exit 0 if valid, 3 otherwise)")
        Term.(const report_validate_cmd $ path);
      Cmd.v
        (Cmd.info "diff"
           ~doc:"Compare the stats of two run reports of the current \
                 schema; exit 1 when a timing or space stat regressed \
                 beyond --threshold-pct")
        Term.(const report_diff_cmd $ old_path $ new_path $ threshold);
    ]

(* ------------------------------------------------------------------ *)
(* generate                                                            *)
(* ------------------------------------------------------------------ *)

let with_output output f =
  match output with
  | None -> f stdout
  | Some file ->
    let oc =
      try open_out_bin file with Sys_error msg -> die exit_io_error msg
    in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f oc)

let generate_xmark scale seed output =
  let cfg = Xaos_workloads.Xmark.config ?seed scale in
  with_output output (fun oc ->
      let buf = Buffer.create 65536 in
      let count =
        Xaos_workloads.Xmark.generate cfg (fun ev ->
            Xaos_xml.Serialize.event_to_buffer buf ev;
            if Buffer.length buf >= 65536 then begin
              Buffer.output_buffer oc buf;
              Buffer.clear buf
            end)
      in
      Buffer.output_buffer oc buf;
      Format.eprintf "generated %d elements at scale %g@." count scale)

let generate_random seed elements output query_out =
  let spec = Xaos_workloads.Randgen.generate_spec ~seed () in
  let query = Xaos_xpath.Ast.to_string spec.Xaos_workloads.Randgen.query in
  (match query_out with
  | None -> Format.eprintf "query: %s@." query
  | Some file ->
    let oc =
      try open_out file with Sys_error msg -> die exit_io_error msg
    in
    output_string oc (query ^ "\n");
    close_out oc);
  with_output output (fun oc ->
      let buf = Buffer.create 65536 in
      let count =
        Xaos_workloads.Randgen.document spec ~seed:(seed * 31) ~elements
          (fun ev ->
            Xaos_xml.Serialize.event_to_buffer buf ev;
            if Buffer.length buf >= 65536 then begin
              Buffer.output_buffer oc buf;
              Buffer.clear buf
            end)
      in
      Buffer.output_buffer oc buf;
      Format.eprintf "generated %d elements@." count)

(* ------------------------------------------------------------------ *)
(* cmdliner terms                                                      *)
(* ------------------------------------------------------------------ *)

let query_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY")

let file_arg =
  Arg.(value & pos 1 (some string) None & info [] ~docv:"FILE"
         ~doc:"XML document; stdin when omitted.")

let engine_arg =
  let kinds =
    [ ("xaos", Streaming); ("dom", Dom); ("dom-dedup", Dom_dedup) ]
  in
  Arg.(value & opt (enum kinds) Streaming
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"$(b,xaos) (streaming), $(b,dom) (Xalan-like baseline) or \
                 $(b,dom-dedup) (baseline with per-step node-set merging).")

let flag names doc = Arg.(value & flag & info names ~doc)

let hardening_term =
  let lenient =
    flag [ "lenient" ]
      "Recover from ill-formed XML (auto-close mismatched tags, drop \
       duplicate attributes, skip stray markup) instead of failing; \
       recoveries are counted in --stats."
  in
  let partial_ok =
    flag [ "partial-ok" ]
      "On truncated or limit-tripping input, exit 0 with the results \
       already certain at the failure point instead of a nonzero exit."
  in
  let max_depth =
    Arg.(value & opt (some int) None
         & info [ "max-depth" ] ~docv:"N"
             ~doc:"Maximum element nesting depth (default 10000).")
  in
  let max_bytes =
    Arg.(value & opt (some int) None
         & info [ "max-bytes" ] ~docv:"N"
             ~doc:"Maximum input bytes to consume (default unlimited).")
  in
  let max_structures =
    Arg.(value & opt (some int) None
         & info [ "max-structures" ] ~docv:"N"
             ~doc:"Cap on live matching structures per disjunct engine \
                   (default unlimited).")
  in
  Term.(
    const make_hardening $ lenient $ partial_ok $ max_depth $ max_bytes
    $ max_structures)

let report_arg =
  Arg.(value & opt (some string) None
       & info [ "report" ] ~docv:"FILE"
           ~doc:"Write a versioned machine-readable JSON run report \
                 (config, stats, span timings, stream snapshot series, \
                 GC summary) to $(docv). Streaming engine only; check a \
                 report with $(b,xaos report validate).")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Stream snapshot points to $(docv) as NDJSON during the \
                 run, then append Prometheus-style text metrics at exit \
                 ($(b,-) for stdout). Streaming engine only.")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Record matching-structure lifecycle events and write \
                 them as Chrome trace-event JSON to $(docv) — loadable in \
                 ui.perfetto.dev. Streaming engine only.")

let trace_capacity_arg =
  Arg.(value & opt int 65536
       & info [ "trace-capacity" ] ~docv:"N"
           ~doc:"Ring-buffer capacity of --trace-out in events (default \
                 65536); at capacity the oldest events are dropped.")

let snapshot_interval_arg =
  Arg.(value & opt int 65536
       & info [ "snapshot-interval" ] ~docv:"BYTES"
           ~doc:"Document bytes between stream snapshot points recorded \
                 by --report / --metrics (default 65536).")

let eval_term =
  Term.(
    const eval_cmd $ query_arg $ file_arg $ engine_arg
    $ flag [ "eager" ] "Stream results out as soon as they are known \
                        (forward-only chain expressions)."
    $ flag [ "earliest" ] "Earliest-decision emission: print each result \
                           the moment the stream decides it, for every \
                           expression (backward axes included); the \
                           result set is identical to the default \
                           deferred mode and is checked against it."
    $ flag [ "no-filter" ] "Disable the looking-for relevance filter \
                            (ablation; results unchanged)."
    $ flag [ "no-counters" ] "Disable the boolean-subtree optimization, \
                              retaining all matching structures."
    $ flag [ "stats" ] "Print engine statistics (plus wall-clock time \
                        and peak heap words) to stderr."
    $ flag [ "count" ] "Print only the number of results."
    $ flag [ "tuples" ] "Also print result tuples of \\$-marked \
                         expressions."
    $ report_arg $ metrics_arg $ trace_out_arg $ trace_capacity_arg
    $ snapshot_interval_arg $ hardening_term)

let eval_command =
  Cmd.v
    (Cmd.info "eval"
       ~doc:"Evaluate an XPath expression over a document in one streaming \
             pass")
    eval_term

let explain_command =
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show the x-tree, x-dag and evaluation plan of an expression")
    Term.(const explain_cmd $ query_arg)

let trace_command =
  let limit =
    Arg.(value & opt (some int) (Some default_trace_limit)
         & info [ "limit" ] ~docv:"N"
             ~doc:(Printf.sprintf
                     "Maximum steps to print (default %d); pass 0 for \
                      unlimited."
                     default_trace_limit))
  in
  let limit = Term.(const (function Some 0 -> None | l -> l) $ limit) in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Print the Table 2-style event walkthrough: per event, the \
             matched x-nodes, the looking-for set and the propagation \
             activity")
    Term.(const trace_cmd $ query_arg $ file_arg $ limit)

let why_command =
  let file =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE"
           ~doc:"XML document (required: provenance needs byte positions).")
  in
  let item =
    Arg.(value & opt (some int) None
         & info [ "item" ] ~docv:"ID"
             ~doc:"Explain only the result item with element id $(docv).")
  in
  Cmd.v
    (Cmd.info "why"
       ~doc:"Explain each result item: walk the causal chain of \
             matching-structure events (created, propagated, undone, \
             emitted) that produced it, with document positions")
    Term.(const why_cmd $ query_arg $ file $ item)

let filter_command =
  let subs =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SUBSCRIPTIONS"
           ~doc:"File with one XPath expression per line ('#' comments).")
  in
  let docs =
    Arg.(non_empty & pos_right 0 string [] & info [] ~docv:"DOC.xml")
  in
  let shared =
    Arg.(value
         & vflag true
             [
               ( true,
                 info [ "shared" ]
                   ~doc:"Route events through the shared dispatch index \
                         (default): each element event reaches only the \
                         subscriptions whose looking-for frontier can match \
                         it." );
               ( false,
                 info [ "no-shared" ]
                   ~doc:"Feed every event to every subscription (the naive \
                         loop); the differential baseline for --shared." );
             ])
  in
  let earliest =
    flag [ "earliest" ]
      "Compile every subscription in earliest-decision emission mode and \
       check the mid-stream deliveries against the final verdicts \
       (printed output is unchanged)."
  in
  Cmd.v
    (Cmd.info "filter"
       ~doc:"Publish/subscribe filtering: match documents against a set of \
             subscriptions, one pass per document")
    Term.(const filter_cmd $ subs $ docs $ shared $ earliest $ hardening_term)

let output_arg =
  Arg.(value & opt (some string) None
       & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (stdout).")

let generate_xmark_command =
  let scale =
    Arg.(value & opt float 0.01 & info [ "scale" ] ~doc:"XMark scale factor.")
  in
  let seed =
    Arg.(value & opt (some int) None & info [ "seed" ] ~doc:"PRNG seed.")
  in
  Cmd.v
    (Cmd.info "xmark" ~doc:"Generate an XMark-like auction document")
    Term.(const generate_xmark $ scale $ seed $ output_arg)

let generate_random_command =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  let elements =
    Arg.(value & opt int 10_000
         & info [ "elements" ] ~doc:"Minimum element count.")
  in
  let query_out =
    Arg.(value & opt (some string) None
         & info [ "query-out" ] ~docv:"FILE"
             ~doc:"Write the generated expression here (stderr otherwise).")
  in
  Cmd.v
    (Cmd.info "random"
       ~doc:"Generate a random size-6 expression and a matching document \
             (the paper's Section 6.2 workload)")
    Term.(const generate_random $ seed $ elements $ output_arg $ query_out)

let generate_command =
  Cmd.group
    (Cmd.info "generate" ~doc:"Workload generators")
    [ generate_xmark_command; generate_random_command ]

(* ------------------------------------------------------------------ *)
(* serve / publish / subscribe / soak — the subscription service       *)
(* ------------------------------------------------------------------ *)

module Service = Xaos_service
module Json = Xaos_obs.Json

let default_socket =
  Filename.concat (Filename.get_temp_dir_name ()) "xaos.sock"

let socket_arg =
  Arg.(value & opt string default_socket
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket path of the service.")

let with_connection socket f =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     die exit_io_error
       (Printf.sprintf "cannot connect to %s: %s (is the service running? \
                        start it with `xaos serve --socket %s`)"
          socket (Unix.error_message e) socket));
  Fun.protect
    ~finally:(fun () ->
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd)

let send_request fd req =
  let line = Service.Protocol.to_line (Service.Protocol.request_to_json req) in
  let len = String.length line in
  let rec go off =
    if off < len then go (off + Unix.write_substring fd line off (len - off))
  in
  try go 0
  with Unix.Unix_error (e, _, _) ->
    die exit_io_error ("service write failed: " ^ Unix.error_message e)

(* Reassemble response lines across reads; [f] returns [`Stop] to
   disconnect. *)
let iter_response_lines fd f =
  let chunk = Bytes.create 65536 in
  let acc = Buffer.create 4096 in
  let stop = ref false in
  while not !stop do
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> stop := true
    | n ->
      Buffer.add_subbytes acc chunk 0 n;
      if Bytes.index_opt (Bytes.sub chunk 0 n) '\n' <> None then begin
        let rec feed = function
          | [] -> ()
          | [ rest ] -> Buffer.add_string acc rest
          | line :: tl ->
            if (not !stop) && line <> "" then
              (match f line with `Stop -> stop := true | `Continue -> ());
            feed tl
        in
        let pending = Buffer.contents acc in
        Buffer.clear acc;
        feed (String.split_on_char '\n' pending)
      end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (e, _, _) ->
      die exit_io_error ("service read failed: " ^ Unix.error_message e)
  done

let json_str field json =
  Option.bind (Json.member field json) Json.to_str

(* Open the shared --metrics sink: "-" is stdout, anything else a file
   (truncated). Returns the channel and whether we own (must close) it. *)
let open_metrics_sink = function
  | None -> None
  | Some path when String.equal path "-" -> Some (stdout, false)
  | Some path -> (
    try Some (open_out path, true)
    with Sys_error msg -> die exit_io_error msg)

let serve_cmd socket budget deadline high low subs_file earliest attrib
    slow_ms flight_sample flight_dir metrics snapshot_interval_s =
  if low < 0 || low >= high then
    die exit_query_error "--low-watermark must satisfy 0 <= low < high";
  if snapshot_interval_s <= 0. then
    die exit_query_error "--snapshot-interval must be positive";
  let broker =
    { Service.Broker.default_config with budget; deadline_s = deadline;
      earliest; slow_ms }
  in
  if attrib then begin
    Xaos_obs.Attrib.reset ();
    Xaos_obs.Attrib.enable ()
  end;
  (match (flight_sample, flight_dir) with
  | Some n, _ when n > 0 ->
    Xaos_obs.Flight.configure ~sample_every:n ?dir:flight_dir ()
  | None, Some _ ->
    (* a directory alone implies the default sampling grid *)
    Xaos_obs.Flight.configure ~sample_every:25 ?dir:flight_dir ()
  | _ -> ());
  let config =
    { (Service.Server.default_config socket) with
      high_watermark = high; low_watermark = low; broker }
  in
  (* Block INT/TERM before any thread is spawned (they inherit the
     mask); a dedicated watcher thread turns the signal into a graceful
     stop — a Sys.Signal_handle would never run while every thread is
     parked in a blocking call. *)
  let signals = [ Sys.sigint; Sys.sigterm ] in
  (try ignore (Thread.sigmask Unix.SIG_BLOCK signals)
   with Invalid_argument _ | Unix.Unix_error _ -> ());
  let server =
    try Service.Server.start config
    with Unix.Unix_error (e, _, _) ->
      die exit_io_error
        (Printf.sprintf "cannot bind %s: %s" socket (Unix.error_message e))
  in
  (match subs_file with
  | None -> ()
  | Some path ->
    let ic = try open_in path with Sys_error msg -> die exit_io_error msg in
    let n = ref 0 in
    (try
       while true do
         let line = String.trim (input_line ic) in
         if line <> "" && line.[0] <> '#' then begin
           incr n;
           match
             Service.Broker.subscribe (Service.Server.broker server)
               ~name:(Printf.sprintf "s%d" !n)
               ~query:line
           with
           | Ok () -> ()
           | Error msg -> die exit_query_error (line ^ ": " ^ msg)
         end
       done
     with End_of_file -> close_in_noerr ic);
    Format.eprintf "loaded %d subscriptions from %s@." !n path);
  Format.eprintf "xaos service listening on %s@." socket;
  ignore
    (Thread.create
       (fun () ->
         match Thread.wait_signal signals with
         | _ -> Service.Server.stop server
         | exception _ -> ())
       ());
  (* --metrics: telemetry on, one NDJSON stats snapshot per interval
     during the run, the Prometheus exposition appended at exit — the
     same sink contract as `xaos eval --metrics` with time instead of
     document bytes as the snapshot axis. *)
  let metrics_sink = open_metrics_sink metrics in
  let stop_sampler =
    match metrics_sink with
    | None -> fun () -> ()
    | Some (oc, _) ->
      Tel.enable ();
      let stop = ref false in
      let started = Unix.gettimeofday () in
      let th =
        Thread.create
          (fun () ->
            while not !stop do
              let fields =
                List.map
                  (fun (k, v) -> (k, Json.Float v))
                  (Service.Server.stats server)
              in
              output_string oc
                (Json.to_string ~indent:false
                   (Json.Obj
                      [ ("elapsed_s",
                         Json.Float (Unix.gettimeofday () -. started));
                        ("stats", Json.Obj fields) ]));
              output_char oc '\n';
              flush oc;
              (* nap in small steps so shutdown is prompt *)
              let rec nap left =
                if left > 0. && not !stop then begin
                  Thread.delay (Float.min 0.2 left);
                  nap (left -. 0.2)
                end
              in
              nap snapshot_interval_s
            done)
          ()
      in
      fun () ->
        stop := true;
        Thread.join th
  in
  Service.Server.wait server;
  stop_sampler ();
  (match metrics_sink with
  | None -> ()
  | Some (oc, close) ->
    output_string oc (Xaos_obs.Expose.render ());
    if close then close_out_noerr oc else flush oc);
  Format.eprintf "xaos service stopped@."

let publish_cmd socket priority files =
  with_connection socket (fun fd ->
      let pending = Hashtbl.create 16 in
      List.iter
        (fun path ->
          let doc =
            try In_channel.with_open_bin path In_channel.input_all
            with Sys_error msg -> die exit_io_error msg
          in
          let doc_id = Filename.basename path in
          Hashtbl.replace pending doc_id ();
          send_request fd
            (Service.Protocol.Publish { doc_id; priority; doc }))
        files;
      let failures = ref 0 in
      iter_response_lines fd (fun line ->
          print_endline line;
          (match Json.parse line with
          | Error _ -> ()
          | Ok json ->
            (* a document is settled by its [processed] event or by an
               overload/error response naming it *)
            (match json_str "event" json, json_str "id" json with
            | Some "processed", Some id -> Hashtbl.remove pending id
            | _, id_opt ->
              (match Json.member "ok" json, json_str "error" json with
              | Some (Json.Bool false), err ->
                incr failures;
                (match (id_opt, err) with
                | Some id, Some "overload" -> Hashtbl.remove pending id
                | _ -> ())
              | _ -> ())));
          if Hashtbl.length pending = 0 then `Stop else `Continue);
      if Hashtbl.length pending > 0 then
        die exit_io_error
          "connection closed before every document was processed";
      if !failures > 0 then exit 1)

let subscribe_cmd socket name query earliest =
  with_connection socket (fun fd ->
      send_request fd (Service.Protocol.Subscribe { name; query; earliest });
      let acked = ref false in
      iter_response_lines fd (fun line ->
          print_endline line;
          if not !acked then begin
            acked := true;
            match Json.parse line with
            | Ok json when Json.member "ok" json = Some (Json.Bool false) ->
              die exit_query_error
                (Option.value ~default:"subscribe refused"
                   (json_str "error" json))
            | _ -> ()
          end;
          `Continue))

let service_stats_cmd socket =
  with_connection socket (fun fd ->
      send_request fd Service.Protocol.Stats;
      iter_response_lines fd (fun line ->
          print_endline line;
          `Stop))

let metrics_cmd socket =
  with_connection socket (fun fd ->
      send_request fd Service.Protocol.Metrics;
      iter_response_lines fd (fun line ->
          (match Json.parse line with
          | Error e -> die exit_ill_formed ("bad metrics response: " ^ e)
          | Ok json -> (
            match Json.member "ok" json with
            | Some (Json.Bool true) -> (
              match
                Option.bind (Json.member "metrics" json) Json.to_str
              with
              | Some text -> print_string text
              | None ->
                die exit_ill_formed "metrics response without metrics field")
            | _ ->
              die exit_io_error
                (Option.value ~default:"metrics refused"
                   (json_str "error" json))));
          `Stop))

(* {2 xaos profile / slowlog: cost attribution over the wire} *)

let jnum field j =
  match Option.bind (Json.member field j) Json.to_float with
  | Some v -> v
  | None -> 0.

let render_profile json =
  let enabled = Json.member "enabled" json = Some (Json.Bool true) in
  let by = Option.value ~default:"match_s" (json_str "by" json) in
  let totals = Option.value ~default:Json.Null (Json.member "totals" json) in
  if not enabled then
    Format.printf
      "attribution disabled — start the service with --attrib@.";
  Format.printf
    "accounts %.0f   docs %.0f   events %.0f   match %.3f ms   emissions \
     %.0f   faults %.0f@."
    (jnum "subscriptions" totals)
    (jnum "docs" totals) (jnum "events" totals)
    (jnum "match_s" totals *. 1e3)
    (jnum "emissions" totals) (jnum "faults" totals);
  let top =
    Option.value ~default:[]
      (Option.bind (Json.member "top" json) Json.to_list)
  in
  if top <> [] then begin
    Format.printf "top by %s:@." by;
    Format.printf "  %-20s %8s %12s %12s %9s %8s@." "subscription" "docs"
      "events" "match ms" "emitted" "faults";
    List.iter
      (fun e ->
        Format.printf "  %-20s %8.0f %12.0f %12.3f %9.0f %8.0f@."
          (Option.value ~default:"?" (json_str "key" e))
          (jnum "docs" e) (jnum "events" e)
          (jnum "match_s" e *. 1e3)
          (jnum "emissions" e) (jnum "faults" e))
      top
  end

let profile_cmd socket top_n by =
  if top_n <= 0 then die exit_query_error "--top must be positive";
  (match Xaos_obs.Attrib.order_of_string by with
  | Some _ -> ()
  | None -> die exit_query_error ("unknown --by order: " ^ by));
  with_connection socket (fun fd ->
      send_request fd (Service.Protocol.Profile { top_n; by });
      iter_response_lines fd (fun line ->
          (match Json.parse line with
          | Error e -> die exit_ill_formed ("bad profile response: " ^ e)
          | Ok json -> (
            match Json.member "ok" json with
            | Some (Json.Bool true) -> render_profile json
            | _ ->
              die exit_io_error
                (Option.value ~default:"profile refused"
                   (json_str "error" json))));
          `Stop))

let slowlog_cmd socket max json_out =
  if max <= 0 then die exit_query_error "--max must be positive";
  with_connection socket (fun fd ->
      send_request fd (Service.Protocol.Slowlog { max });
      iter_response_lines fd (fun line ->
          (match Json.parse line with
          | Error e -> die exit_ill_formed ("bad slowlog response: " ^ e)
          | Ok json -> (
            match Json.member "ok" json with
            | Some (Json.Bool true) ->
              let slow =
                Option.value ~default:[]
                  (Option.bind (Json.member "slow" json) Json.to_list)
              in
              if json_out then
                List.iter
                  (fun sd ->
                    print_endline (Json.to_string ~indent:false sd))
                  slow
              else if slow = [] then
                Format.printf "slow-document log empty@."
              else begin
                Format.printf "%-12s %8s %12s %8s %7s  %s@." "doc" "tick"
                  "total ms" "events" "faults" "top subscriptions";
                List.iter
                  (fun sd ->
                    let top =
                      Option.value ~default:[]
                        (Option.bind (Json.member "top" sd) Json.to_list)
                      |> List.map (fun e ->
                             Printf.sprintf "%s=%.3fms"
                               (Option.value ~default:"?" (json_str "sub" e))
                               (jnum "match_s" e *. 1e3))
                      |> String.concat " "
                    in
                    Format.printf "%-12s %8.0f %12.3f %8.0f %7.0f  %s@."
                      (Option.value ~default:"?" (json_str "doc_id" sd))
                      (jnum "tick" sd) (jnum "total_ms" sd)
                      (jnum "events" sd) (jnum "faults" sd) top)
                  slow
              end
            | _ ->
              die exit_io_error
                (Option.value ~default:"slowlog refused"
                   (json_str "error" json))));
          `Stop))

(* {2 xaos top: live terminal dashboard over stats-stream} *)

let top_stat stats name =
  match List.assoc_opt name stats with
  | Some (Json.Float v) -> v
  | Some (Json.Int v) -> float_of_int v
  | _ -> 0.

let render_top ~socket ~clear ~prev json =
  let stats =
    Option.value ~default:[]
      (Option.bind (Json.member "stats" json) Json.to_obj)
  in
  let elapsed =
    Option.value ~default:0.
      (Option.bind (Json.member "elapsed_s" json) Json.to_float)
  in
  let seq =
    Option.value ~default:0 (Option.bind (Json.member "seq" json) Json.to_int)
  in
  let s = top_stat stats in
  let docs = s "service/docs" in
  let rate =
    match !prev with
    | Some (pdocs, pelapsed) when elapsed > pelapsed ->
      (docs -. pdocs) /. (elapsed -. pelapsed)
    | _ -> 0.
  in
  prev := Some (docs, elapsed);
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "xaos top — %s   snapshot #%d   elapsed %.1fs" socket seq elapsed;
  line "docs %.0f (%.1f/s)   events %.0f   matches %.0f   live subs %.0f"
    docs rate
    (s "service/events")
    (s "service/subscription_matches")
    (s "service/live_subscriptions");
  if List.mem_assoc "service/queryset_classes" stats then
    line "compaction: %.0f subs -> %.0f engine classes (%.2fx)"
      (s "service/queryset_members")
      (s "service/queryset_classes")
      (s "service/compaction_ratio");
  line
    "queue %.0f   connections %.0f   shed %.0f   displaced %.0f   dropped \
     %.0f   crashes %.0f"
    (s "ingress/queue")
    (s "server/connections")
    (s "ingress/shed")
    (s "ingress/displaced")
    (s "server/dropped_responses")
    (s "server/thread_crashes");
  line
    "faults: sax %.0f   deadline %.0f   limit %.0f   aborted %.0f   failed \
     %.0f"
    (s "service/sax_faults")
    (s "service/deadline_ends")
    (s "service/limit_ends")
    (s "service/runs_aborted")
    (s "service/runs_failed");
  let ms v = v *. 1e3 in
  let stage label key =
    if List.mem_assoc (key ^ "_p50_s") stats then
      line "  %-18s p50 %8.3f ms   p99 %8.3f ms" label
        (ms (s (key ^ "_p50_s")))
        (ms (s (key ^ "_p99_s")))
  in
  line "latency:";
  stage "ingress wait" "stage/ingress_wait";
  stage "parse" "stage/parse";
  stage "dispatch" "stage/dispatch";
  stage "subscription match" "stage/subscription_match";
  stage "writer wait" "stage/writer_wait";
  if List.mem_assoc "engine/emission_p50_bytes" stats then
    line "  %-18s p50 %8.0f B    p99 %8.0f B" "emission"
      (s "engine/emission_p50_bytes")
      (s "engine/emission_p99_bytes");
  let quarantined =
    Option.value ~default:[]
      (Option.bind (Json.member "quarantined" json) Json.to_list)
  in
  line "quarantined (%d):" (List.length quarantined);
  List.iter
    (fun q ->
      let f name = Option.value ~default:"?" (json_str name q) in
      let release =
        Option.value ~default:0
          (Option.bind (Json.member "release_tick" q) Json.to_int)
      in
      line "  %-12s %s (release @ tick %d)" (f "name") (f "reason") release)
    quarantined;
  let top_costs =
    Option.value ~default:[]
      (Option.bind (Json.member "top_costs" json) Json.to_list)
  in
  if top_costs <> [] then begin
    line "cost (top by match time):";
    List.iter
      (fun e ->
        line "  %-12s docs %6.0f   events %9.0f   match %9.3f ms   \
              emitted %6.0f   faults %4.0f"
          (Option.value ~default:"?" (json_str "key" e))
          (jnum "docs" e) (jnum "events" e)
          (jnum "match_s" e *. 1e3)
          (jnum "emissions" e) (jnum "faults" e))
      top_costs
  end;
  if clear then print_string "\027[2J\027[H";
  print_string (Buffer.contents b);
  flush stdout

let top_cmd socket interval once =
  if interval <= 0. then
    die exit_query_error "--interval must be positive";
  with_connection socket (fun fd ->
      send_request fd
        (Service.Protocol.Stats_stream
           { interval_s = interval; count = (if once then Some 1 else None) });
      let prev = ref None in
      let seen = ref 0 in
      iter_response_lines fd (fun line ->
          match Json.parse line with
          | Error _ -> `Continue
          | Ok json -> (
            match json_str "event" json with
            | Some "stats" ->
              render_top ~socket ~clear:(not once) ~prev json;
              incr seen;
              if once then `Stop else `Continue
            | _ -> (
              (* the stats-stream ack, or an error refusing it *)
              match Json.member "ok" json with
              | Some (Json.Bool false) ->
                die exit_io_error
                  (Option.value ~default:"stats-stream refused"
                     (json_str "error" json))
              | _ -> `Continue)));
      if !seen = 0 then
        die exit_io_error "connection closed before any snapshot arrived")

(* Periodic stats sampler for `xaos soak --metrics`: the soak's server
   only exists inside [Soak.run], so snapshots are taken the honest way
   — over the socket, one short-lived connection and a [stats] request
   per tick. Connect failures (server not up yet / already gone) skip
   the tick. *)
let spawn_soak_sampler ~socket_path ~interval_s oc =
  let stop = ref false in
  let started = Unix.gettimeofday () in
  let sample_once () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () ->
        try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
        | exception Unix.Unix_error _ -> ()
        | () -> (
          let line =
            Service.Protocol.to_line
              (Service.Protocol.request_to_json Service.Protocol.Stats)
          in
          (try
             ignore (Unix.write_substring fd line 0 (String.length line))
           with Unix.Unix_error _ -> ());
          let buf = Buffer.create 4096 in
          let chunk = Bytes.create 4096 in
          let rec rd () =
            if not (String.contains (Buffer.contents buf) '\n') then
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> ()
              | n ->
                Buffer.add_subbytes buf chunk 0 n;
                rd ()
              | exception Unix.Unix_error _ -> ()
          in
          rd ();
          let contents = Buffer.contents buf in
          match String.index_opt contents '\n' with
          | None -> ()
          | Some i ->
            (* re-frame with the sampler's own clock *)
            let reply = String.sub contents 0 i in
            (match Json.parse reply with
            | Ok json when Json.member "ok" json = Some (Json.Bool true) ->
              let stats =
                Option.value ~default:Json.Null (Json.member "stats" json)
              in
              output_string oc
                (Json.to_string ~indent:false
                   (Json.Obj
                      [ ("elapsed_s",
                         Json.Float (Unix.gettimeofday () -. started));
                        ("stats", stats) ]));
              output_char oc '\n';
              flush oc
            | _ -> ())))
  in
  let th =
    Thread.create
      (fun () ->
        while not !stop do
          (try sample_once () with _ -> ());
          let rec nap left =
            if left > 0. && not !stop then begin
              Thread.delay (Float.min 0.2 left);
              nap (left -. 0.2)
            end
          in
          nap interval_s
        done)
      ()
  in
  fun () ->
    stop := true;
    Thread.join th

let soak_cmd docs subs rate seed socket report event_log slow_ms
    flight_sample flight_dir metrics snapshot_interval_s quiet =
  if snapshot_interval_s <= 0. then
    die exit_query_error "--snapshot-interval must be positive";
  let socket_path =
    Option.value socket ~default:Service.Soak.default_config.socket_path
  in
  let cfg =
    { Service.Soak.docs; subs; fault_rate = rate; seed;
      report_path = report; event_log_path = event_log; socket_path;
      slow_ms = Some slow_ms; flight_sample; flight_dir }
  in
  let progress =
    if quiet then ignore else fun m -> Format.eprintf "%s@." m
  in
  let metrics_sink = open_metrics_sink metrics in
  let stop_sampler =
    match metrics_sink with
    | None -> fun () -> ()
    | Some (oc, _) ->
      spawn_soak_sampler ~socket_path ~interval_s:snapshot_interval_s oc
  in
  let s =
    Fun.protect ~finally:stop_sampler (fun () ->
        Service.Soak.run ~progress cfg)
  in
  (match metrics_sink with
  | None -> ()
  | Some (oc, close) ->
    (* the soak runs in-process, so the registry the server filled is
       ours to expose directly *)
    output_string oc (Xaos_obs.Expose.render ());
    if close then close_out_noerr oc else flush oc);
  Format.printf "published %d  completed %d  (processed %d, shed %d, \
                 displaced %d)@."
    s.published s.completed s.processed s.shed s.displaced;
  Format.printf "client aborts %d  match events %d  quarantine/readmit \
                 events %d/%d@."
    s.client_aborts s.match_events s.quarantine_events s.readmit_events;
  Format.printf "sax faults %d  limit ends %d  deadline ends %d@."
    s.sax_faults s.limit_ends s.deadline_ends;
  Format.printf "quarantined %d  readmitted %d  differential %d checked, \
                 %d mismatches  crashes %d@."
    s.quarantined_total s.readmitted_total s.checked s.mismatches s.crashes;
  let stage_names =
    [ "ingress"; "parse"; "dispatch"; "match"; "emission"; "writer" ]
  in
  Format.printf "attribution: %d accounts (%s)  slow docs %d (typed log \
                 %d)  flight stages %s (%d files)@."
    s.attrib_subs
    (match s.attrib_errors with
    | [] -> "conserved"
    | errs -> "NOT conserved: " ^ String.concat "; " errs)
    s.slow_docs s.log_slow
    (String.concat ","
       (List.filter (fun n -> List.mem n stage_names) s.flight_stages))
    s.flight_written;
  List.iter (Format.printf "mismatch: %s@.") s.mismatch_examples;
  (match report with
  | Some path when s.report_valid -> Format.printf "report: %s@." path
  | _ -> ());
  match Service.Soak.healthy s with
  | Ok () -> Format.printf "HEALTHY@."
  | Error reason ->
    Format.eprintf "UNHEALTHY: %s@." reason;
    exit 1

let serve_command =
  let budget =
    Arg.(value & opt (some int) Service.Broker.default_config.budget
         & info [ "budget" ] ~docv:"N"
             ~doc:"Per-run live matching-structure budget; a subscription \
                   exceeding it aborts with its partial results (and is \
                   quarantined when it keeps doing so).")
  in
  let deadline =
    Arg.(value
         & opt (some float) Service.Broker.default_config.deadline_s
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:"Per-document wall-clock deadline; on expiry the \
                   document is finished partially.")
  in
  let high =
    Arg.(value & opt int 64
         & info [ "high-watermark" ] ~docv:"N"
             ~doc:"Ingress queue bound; publishes past it are shed or \
                   displace lower-priority queued documents.")
  in
  let low =
    Arg.(value & opt int 16
         & info [ "low-watermark" ] ~docv:"N"
             ~doc:"Queue length at which the overloaded state clears.")
  in
  let subs_file =
    Arg.(value & opt (some string) None
         & info [ "subscriptions" ] ~docv:"FILE"
             ~doc:"Pre-register one XPath subscription per line ('#' \
                   comments), named s1, s2, ...")
  in
  let metrics =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Enable telemetry, stream one stats snapshot to \
                   $(docv) as NDJSON per interval while serving, then \
                   append Prometheus-style text metrics at shutdown \
                   ('-' = stdout).")
  in
  let snapshot_interval =
    Arg.(value & opt float 1.0
         & info [ "snapshot-interval" ] ~docv:"SECONDS"
             ~doc:"Seconds between --metrics stats snapshots (default \
                   1).")
  in
  let earliest =
    flag [ "earliest" ]
      "Compile every subscription (including pre-registered ones) in \
       earliest-decision emission mode: owners receive one 'item' event \
       per result the moment it is decided, mid-document."
  in
  let attrib =
    flag [ "attrib" ]
      "Enable per-subscription cost attribution: every run outcome is \
       charged to the owning subscription's account (query it with \
       $(b,xaos profile); 'xaos top' shows the top accounts)."
  in
  let slow_ms =
    Arg.(value & opt (some float) None
         & info [ "slow-ms" ] ~docv:"MS"
             ~doc:"Slow-document threshold: a document whose pipeline \
                   time reaches $(docv) milliseconds lands in the slow \
                   log ($(b,xaos slowlog)) with its per-subscription \
                   breakdown; 0 flags every document.")
  in
  let flight_sample =
    Arg.(value & opt (some int) None
         & info [ "flight-sample" ] ~docv:"N"
             ~doc:"Flight recorder: record a causal span tree across \
                   the pipeline for every $(docv)th document (slow and \
                   faulted documents always keep); 0 disables.")
  in
  let flight_dir =
    Arg.(value & opt (some string) None
         & info [ "flight-dir" ] ~docv:"DIR"
             ~doc:"Write kept flight recordings to $(docv) as Chrome \
                   trace-event JSON (loads in Perfetto); implies \
                   --flight-sample 25 when that flag is absent.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the persistent subscription service on a Unix-domain \
             socket (line-delimited JSON; see xaos subscribe/publish)")
    Term.(const serve_cmd $ socket_arg $ budget $ deadline $ high $ low
          $ subs_file $ earliest $ attrib $ slow_ms $ flight_sample
          $ flight_dir $ metrics $ snapshot_interval)

let publish_command =
  let priority =
    Arg.(value & opt int 0
         & info [ "priority" ] ~docv:"N"
             ~doc:"Admission priority under overload (higher survives).")
  in
  let files =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"DOC.xml")
  in
  Cmd.v
    (Cmd.info "publish"
       ~doc:"Publish documents to a running service and print its \
             responses (exit 1 if any document was shed or refused)")
    Term.(const publish_cmd $ socket_arg $ priority $ files)

let subscribe_command =
  let sub_name =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME")
  in
  let sub_query =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY")
  in
  let earliest =
    flag [ "earliest" ]
      "Opt into earliest-decision emission: the service additionally \
       streams one 'item' event per result element the moment it is \
       decided, while the document is still being parsed."
  in
  Cmd.v
    (Cmd.info "subscribe"
       ~doc:"Register a subscription on a running service and stream its \
             match/quarantine/readmit/item events to stdout until \
             interrupted")
    Term.(const subscribe_cmd $ socket_arg $ sub_name $ sub_query $ earliest)

let service_stats_command =
  Cmd.v
    (Cmd.info "service-stats"
       ~doc:"Print one stats snapshot of a running service as JSON")
    Term.(const service_stats_cmd $ socket_arg)

let metrics_command =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Scrape a running service: print its Prometheus-style text \
             exposition (counters, gauges, latency histograms)")
    Term.(const metrics_cmd $ socket_arg)

let profile_command =
  let top_n =
    Arg.(value & opt int 10
         & info [ "top" ] ~docv:"N"
             ~doc:"Show the $(docv) most expensive accounts (default \
                   10).")
  in
  let by =
    Arg.(value & opt string "match_s"
         & info [ "by" ] ~docv:"ORDER"
             ~doc:"Ranking measure: match_s (default), events, \
                   emissions, structures or faults.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Query a running service's per-subscription cost accounts: \
             registry totals plus the most expensive subscriptions \
             (requires the service to run with --attrib)")
    Term.(const profile_cmd $ socket_arg $ top_n $ by)

let slowlog_command =
  let max =
    Arg.(value & opt int 20
         & info [ "max" ] ~docv:"N"
             ~doc:"Show at most $(docv) records, newest first (default \
                   20).")
  in
  let json_out =
    flag [ "json" ] "Print one JSON object per record instead of the \
                     table."
  in
  Cmd.v
    (Cmd.info "slowlog"
       ~doc:"Print a running service's slow-document log: documents \
             whose pipeline time crossed --slow-ms, with their \
             per-subscription cost breakdown")
    Term.(const slowlog_cmd $ socket_arg $ max $ json_out)

let top_command =
  let interval =
    Arg.(value & opt float 1.0
         & info [ "interval" ] ~docv:"SECONDS"
             ~doc:"Seconds between dashboard refreshes (default 1).")
  in
  let once =
    flag [ "once" ]
      "Render a single snapshot without clearing the screen and exit \
       (no TTY required)."
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live terminal dashboard of a running service: throughput, \
             per-stage latency quantiles, queue depth, quarantine set \
             and fault counters over stats-stream")
    Term.(const top_cmd $ socket_arg $ interval $ once)

let soak_command =
  let docs =
    Arg.(value & opt int Service.Soak.default_config.docs
         & info [ "docs" ] ~docv:"N" ~doc:"Main-stream documents.")
  in
  let subs =
    Arg.(value & opt int Service.Soak.default_config.subs
         & info [ "subs" ] ~docv:"N"
             ~doc:"Live subscriptions (including the poison one).")
  in
  let rate =
    Arg.(value & opt float Service.Soak.default_config.fault_rate
         & info [ "rate" ] ~docv:"P" ~doc:"Fault probability per document.")
  in
  let seed =
    Arg.(value & opt int Service.Soak.default_config.seed
         & info [ "seed" ] ~doc:"Chaos PRNG seed (faults replay from it).")
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Socket path for the in-process server (temp dir \
                   default).")
  in
  let report =
    Arg.(value & opt (some string) None
         & info [ "report" ] ~docv:"FILE"
             ~doc:"Write the service run report here (validate it with \
                   $(b,xaos report validate)).")
  in
  let event_log =
    Arg.(value & opt (some string) None
         & info [ "event-log" ] ~docv:"FILE"
             ~doc:"Stream every structured supervision event \
                   (quarantine, shed, displace, drop, crash, readmit) \
                   to $(docv) as NDJSON.")
  in
  let metrics =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Stream one stats snapshot to $(docv) as NDJSON per \
                   interval during the soak, then append \
                   Prometheus-style text metrics at exit ('-' = \
                   stdout).")
  in
  let snapshot_interval =
    Arg.(value & opt float 1.0
         & info [ "snapshot-interval" ] ~docv:"SECONDS"
             ~doc:"Seconds between --metrics stats snapshots (default \
                   1).")
  in
  let slow_ms =
    Arg.(value & opt float 0.
         & info [ "slow-ms" ] ~docv:"MS"
             ~doc:"Slow-document threshold in milliseconds (default 0: \
                   every document lands in the slow log, making the \
                   slow-log gate deterministic).")
  in
  let flight_sample =
    Arg.(value & opt int Service.Soak.default_config.flight_sample
         & info [ "flight-sample" ] ~docv:"N"
             ~doc:"Flight-recorder sampling grid: every $(docv)th \
                   document keeps its recording (slow and faulted \
                   documents always keep); 0 disables the recorder and \
                   its gate.")
  in
  let flight_dir =
    Arg.(value & opt (some string) None
         & info [ "flight-dir" ] ~docv:"DIR"
             ~doc:"Write kept flight recordings to $(docv) as Chrome \
                   trace-event JSON (loads in Perfetto).")
  in
  let quiet = flag [ "quiet" ] "Suppress progress messages." in
  Cmd.v
    (Cmd.info "soak"
       ~doc:"Run the chaos soak: an in-process service under fault \
             injection, differentially checked; exit 1 unless healthy")
    Term.(const soak_cmd $ docs $ subs $ rate $ seed $ socket $ report
          $ event_log $ slow_ms $ flight_sample $ flight_dir $ metrics
          $ snapshot_interval $ quiet)

let () =
  let info =
    Cmd.info "xaos" ~version:"1.0"
      ~doc:"Streaming XPath with forward and backward axes (χαος, ICDE 2003)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ eval_command; explain_command; trace_command; why_command;
            filter_command; generate_command; report_command;
            serve_command; publish_command; subscribe_command;
            service_stats_command; metrics_command; profile_command;
            slowlog_command; top_command; soak_command ]))
