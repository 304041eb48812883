(* The resilient pub/sub service (PR 6): quarantine policy, admission
   control, broker supervision, wire protocol, and the chaos soak.

   The soak is the acceptance test of the whole subsystem: a real server
   on a real Unix-domain socket, thousands of documents with chaos
   faults against a hundred live subscriptions, differential checks
   against a clean oracle, and a gate on zero crashes. *)

module Json = Xaos_obs.Json
module Sax = Xaos_xml.Sax
open Xaos_service

(* ------------------------------------------------------------------ *)
(* Quarantine                                                          *)
(* ------------------------------------------------------------------ *)

let test_quarantine_threshold_and_backoff () =
  let q =
    Quarantine.create
      ~config:{ Quarantine.threshold = 2; base_penalty = 4; max_penalty = 16 }
      ()
  in
  let fail now =
    Quarantine.record_failure q ~now ~name:"s" ~reason:"budget-exceeded"
  in
  Alcotest.(check bool) "below threshold" true (fail 1 = `Counted);
  Alcotest.(check bool) "not yet quarantined" false (Quarantine.is_quarantined q "s");
  Alcotest.(check bool) "threshold crossed" true (fail 2 = `Quarantined);
  Alcotest.(check bool) "now quarantined" true (Quarantine.is_quarantined q "s");
  Alcotest.(check (option string))
    "reason kept" (Some "budget-exceeded") (Quarantine.reason q "s");
  (* release at tick 2 + 4 = 6 *)
  Alcotest.(check (list string)) "not due early" [] (Quarantine.due q ~now:5);
  Alcotest.(check (list string)) "due at release" [ "s" ] (Quarantine.due q ~now:6);
  Quarantine.readmit q "s";
  Alcotest.(check bool) "readmitted" false (Quarantine.is_quarantined q "s");
  Alcotest.(check int) "transitions" 1 (Quarantine.times_quarantined q);
  Alcotest.(check int) "readmissions" 1 (Quarantine.times_readmitted q);
  (* probation: failing again re-quarantines with a doubled penalty *)
  ignore (fail 10);
  Alcotest.(check bool) "re-quarantined" true (fail 11 = `Quarantined);
  Alcotest.(check (list string)) "doubled penalty" [] (Quarantine.due q ~now:18);
  Alcotest.(check (list string))
    "release at 11+8" [ "s" ] (Quarantine.due q ~now:19)

let test_quarantine_success_resets_and_decays () =
  let q =
    Quarantine.create
      ~config:{ Quarantine.threshold = 2; base_penalty = 4; max_penalty = 64 }
      ()
  in
  let fail now =
    Quarantine.record_failure q ~now ~name:"s" ~reason:"raised: x"
  in
  (* consecutive counting: a success between failures resets the count *)
  ignore (fail 1);
  Quarantine.record_success q ~name:"s";
  Alcotest.(check bool) "count reset" true (fail 2 = `Counted);
  Alcotest.(check bool) "then quarantined" true (fail 3 = `Quarantined);
  Quarantine.readmit q "s";
  (* penalty after one quarantine is 8; clean documents halve it back *)
  Quarantine.record_success q ~name:"s";
  ignore (fail 20);
  Alcotest.(check bool) "quarantined again" true (fail 21 = `Quarantined);
  (* decayed back to base 4: release at 21 + 4 *)
  Alcotest.(check (list string)) "decayed penalty" [ "s" ] (Quarantine.due q ~now:25);
  Quarantine.forget q "s";
  Alcotest.(check (list (triple string string int)))
    "forgotten" [] (Quarantine.quarantined q)

(* ------------------------------------------------------------------ *)
(* Ingress                                                             *)
(* ------------------------------------------------------------------ *)

let test_ingress_watermarks_and_shedding () =
  let q = Ingress.create ~low:1 ~high:4 () in
  for i = 1 to 4 do
    Alcotest.(check bool)
      (Printf.sprintf "accept %d" i)
      true
      (Ingress.offer q ~priority:0 i = Ingress.Accepted)
  done;
  Alcotest.(check bool) "overloaded at high" true (Ingress.overloaded q);
  Alcotest.(check bool)
    "equal priority shed" true
    (Ingress.offer q ~priority:0 99 = Ingress.Shed_incoming);
  (* higher priority displaces the youngest lowest-priority item (4) *)
  (match Ingress.offer q ~priority:5 100 with
  | Ingress.Displaced v -> Alcotest.(check int) "victim is youngest" 4 v
  | _ -> Alcotest.fail "expected displacement");
  Alcotest.(check int) "length unchanged" 4 (Ingress.length q);
  (* take order: priority first, FIFO within priority *)
  Alcotest.(check (option int)) "priority first" (Some 100) (Ingress.take q);
  Alcotest.(check (option int)) "then FIFO" (Some 1) (Ingress.take q);
  Alcotest.(check bool) "still overloaded above low" true (Ingress.overloaded q);
  ignore (Ingress.take q);
  (* hysteresis: len 1 = low clears the overload *)
  Alcotest.(check bool) "cleared at low" false (Ingress.overloaded q);
  Alcotest.(check bool)
    "accepting again" true
    (Ingress.offer q ~priority:0 7 = Ingress.Accepted);
  Alcotest.(check int) "sheds counted" 1 (Ingress.shed_count q);
  Alcotest.(check int) "displacements counted" 1 (Ingress.displaced_count q);
  Alcotest.(check int) "one overload entry" 1 (Ingress.overload_entries q)

let test_ingress_close_drains () =
  let q = Ingress.create ~high:4 () in
  ignore (Ingress.offer q ~priority:0 1);
  ignore (Ingress.offer q ~priority:0 2);
  Ingress.close q;
  Alcotest.(check bool)
    "closed sheds" true
    (Ingress.offer q ~priority:9 3 = Ingress.Shed_incoming);
  Alcotest.(check (option int)) "drains 1" (Some 1) (Ingress.take q);
  Alcotest.(check (option int)) "drains 2" (Some 2) (Ingress.take q);
  Alcotest.(check (option int)) "then None" None (Ingress.take q)

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let test_protocol_roundtrip () =
  let reqs =
    [ Protocol.Subscribe { name = "q1"; query = "//a//b"; earliest = false };
      Protocol.Subscribe { name = "q2"; query = "//a"; earliest = true };
      Protocol.Unsubscribe { name = "q1" };
      Protocol.Publish { doc_id = "d-1"; priority = 3; doc = "<a>\"x\"</a>" };
      Protocol.Stats; Protocol.Report; Protocol.Shutdown ]
  in
  List.iter
    (fun r ->
      let line = Protocol.to_line (Protocol.request_to_json r) in
      Alcotest.(check bool)
        ("single line: " ^ Protocol.op_name r)
        true
        (String.index line '\n' = String.length line - 1);
      match Protocol.request_of_line (String.trim line) with
      | Ok r' ->
        Alcotest.(check bool) ("roundtrip " ^ Protocol.op_name r) true (r = r')
      | Error e -> Alcotest.failf "roundtrip %s: %s" (Protocol.op_name r) e)
    reqs;
  (* defaulted priority *)
  (match Protocol.request_of_line {|{"op":"publish","id":"d","doc":"<a/>"}|} with
  | Ok (Protocol.Publish { priority = 0; _ }) -> ()
  | _ -> Alcotest.fail "priority should default to 0");
  List.iter
    (fun bad ->
      match Protocol.request_of_line bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "should reject: %s" bad)
    [ "nonsense"; "{}"; {|{"op":"launch"}|}; {|{"op":"subscribe","name":"x"}|} ]

(* qcheck: every request survives encode, framing and decode unchanged,
   and its line holds no newline before the terminator, whatever its
   strings carry: quotes, backslashes, control characters, bytes from
   0x80 up. *)
let qcheck_protocol_roundtrip =
  let open QCheck.Gen in
  let hostile_char =
    frequency
      [ (3, printable);
        (1, oneofl [ '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\000'; '\127' ]);
        (1, map Char.chr (int_range 0 31));
        (1, map Char.chr (int_range 0x80 0xff)) ]
  in
  let str = string_size ~gen:hostile_char (int_range 0 24) in
  let request =
    oneof
      [ map3
          (fun name query earliest ->
            Protocol.Subscribe { name; query; earliest })
          str str bool;
        map (fun name -> Protocol.Unsubscribe { name }) str;
        map3
          (fun doc_id priority doc ->
            Protocol.Publish { doc_id; priority; doc })
          str (int_range (-1000) 1000) str;
        map2
          (fun interval_s count -> Protocol.Stats_stream { interval_s; count })
          (float_range 1e-3 1e3) (opt (int_range 0 1000));
        map2 (fun top_n by -> Protocol.Profile { top_n; by })
          (int_range 1 1000) str;
        map (fun max -> Protocol.Slowlog { max }) (int_range 1 1000);
        oneofl
          [ Protocol.Stats; Protocol.Metrics; Protocol.Report;
            Protocol.Shutdown ] ]
  in
  let line r = Protocol.to_line (Protocol.request_to_json r) in
  QCheck.Test.make ~name:"qcheck: protocol request round trip" ~count:500
    (QCheck.make ~print:(fun r -> String.escaped (line r)) request)
    (fun r ->
      let l = line r in
      String.index l '\n' = String.length l - 1
      && Protocol.request_of_line l = Ok r)

(* ------------------------------------------------------------------ *)
(* Broker supervision (no socket)                                      *)
(* ------------------------------------------------------------------ *)

let broker_config =
  { Broker.budget = Some 40; deadline_s = None;
    limits = { Sax.default_limits with max_text_bytes = 4096 };
    quarantine = { Quarantine.threshold = 2; base_penalty = 3; max_penalty = 24 };
    reset_symbols_every = 5; earliest = false; prefix_gate = true; slow_ms = None }

let heavy_doc =
  (* enough nesting that //*[*]//* exceeds the 40-structure budget while
     the selective queries stay tiny *)
  "<r>" ^ String.concat "" (List.init 12 (fun i ->
      Printf.sprintf "<a><b><c>x%d</c></b></a>" i)) ^ "</r>"

let test_broker_quarantine_lifecycle () =
  let b = Broker.create ~config:broker_config () in
  Alcotest.(check bool) "healthy sub" true
    (Broker.subscribe b ~name:"c" ~query:"//b/c" = Ok ());
  Alcotest.(check bool) "poison sub" true
    (Broker.subscribe b ~name:"poison" ~query:"//*[*]//*" = Ok ());
  Alcotest.(check bool) "dup refused" true
    (Result.is_error (Broker.subscribe b ~name:"c" ~query:"//a"));
  (* doc 1: poison aborts (counted), healthy matches *)
  let o1 = Broker.publish b ~doc_id:"d1" heavy_doc in
  Alcotest.(check (list string)) "poison aborted" [ "poison" ] o1.aborted;
  Alcotest.(check (option int)) "healthy matches" (Some 12)
    (List.assoc_opt "c" o1.matches);
  Alcotest.(check (list (pair string string))) "not yet quarantined" []
    o1.quarantined_now;
  (* doc 2: threshold 2 crossed *)
  let o2 = Broker.publish b ~doc_id:"d2" heavy_doc in
  Alcotest.(check (list string)) "quarantined now" [ "poison" ]
    (List.map fst o2.quarantined_now);
  Alcotest.(check bool) "status shows it" true
    (List.exists
       (fun (n, st) -> n = "poison" && st <> Broker.Live)
       (Broker.subscriptions b));
  (* docs 3-4: poison absent from outcomes *)
  let o3 = Broker.publish b ~doc_id:"d3" heavy_doc in
  Alcotest.(check (list string)) "no aborts while quarantined" [] o3.aborted;
  ignore (Broker.publish b ~doc_id:"d4" heavy_doc);
  (* doc 5: quarantined at tick 2 with penalty 3 -> due at tick 5 *)
  let o5 = Broker.publish b ~doc_id:"d5" heavy_doc in
  Alcotest.(check (list string)) "readmitted" [ "poison" ] o5.readmitted;
  Alcotest.(check (list string)) "and failing again" [ "poison" ] o5.aborted;
  (* healthy subscription was never disturbed *)
  Alcotest.(check int) "docs seen" 5 (Broker.docs_seen b);
  let stats = Broker.stats b in
  Alcotest.(check (option (float 0.0))) "quarantine stat" (Some 1.0)
    (List.assoc_opt "service/quarantined" stats);
  Alcotest.(check (option (float 0.0))) "readmit stat" (Some 1.0)
    (List.assoc_opt "service/readmitted" stats);
  (* the symbol table was reset at tick 5 (reset_symbols_every = 5):
     the next document must still evaluate correctly *)
  let o6 = Broker.publish b ~doc_id:"d6" heavy_doc in
  Alcotest.(check (option int)) "healthy after symbol reset" (Some 12)
    (List.assoc_opt "c" o6.matches)

let test_broker_malformed_and_limits () =
  let b = Broker.create ~config:broker_config () in
  Alcotest.(check bool) "sub" true
    (Broker.subscribe b ~name:"a" ~query:"//a" = Ok ());
  (* malformed input: lenient recovery, faults accounted, no raise *)
  let o = Broker.publish b ~doc_id:"bad" "<r><a><<<>junk</r>" in
  Alcotest.(check bool) "faults counted" true (o.faults > 0);
  Alcotest.(check bool) "doc still evaluated" true (o.events > 0);
  (* a resource limit ends the document partially instead of raising *)
  let o2 =
    Broker.publish b ~doc_id:"huge"
      ("<r><a>" ^ String.make 100_000 'x' ^ "</a></r>")
  in
  Alcotest.(check (option string)) "limit recorded" (Some "max-text-bytes")
    o2.limit_hit;
  (* the limit end is not blamed on the subscription *)
  let o3 = Broker.publish b ~doc_id:"ok" "<r><a/></r>" in
  Alcotest.(check (list (pair string string))) "no quarantine" []
    o3.quarantined_now;
  Alcotest.(check (option int)) "still live and matching" (Some 1)
    (List.assoc_opt "a" o3.matches);
  Alcotest.(check bool) "unsubscribe" true (Broker.unsubscribe b ~name:"a");
  Alcotest.(check bool) "gone" false (Broker.unsubscribe b ~name:"a")

let test_broker_report_schema () =
  let b = Broker.create ~config:broker_config () in
  ignore (Broker.subscribe b ~name:"a" ~query:"//a");
  ignore (Broker.publish b ~doc_id:"d" "<r><a/></r>");
  let r = Broker.report ~extra_stats:[ ("ingress/shed", 3.0) ] b in
  match Xaos_obs.Report.validate (Xaos_obs.Report.to_json r) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "broker report invalid: %s" e

(* The timing claim of earliest emission (Gienieczko et al.): with every
   subscription in earliest mode, the median result leaves the engine
   within 1 KiB of document bytes of the event that decided it. Deferred
   mode holds results to the end of the document, so on the same stream
   its median is far above the bound, which keeps the check falsifiable.
   The engine/emission histogram counts bytes, so both medians are
   deterministic. *)
let test_earliest_emission_p50 () =
  let module Histogram = Xaos_obs.Histogram in
  let module Prng = Xaos_workloads.Prng in
  let hist = Option.get (Histogram.find "engine/emission") in
  let saved =
    List.map
      (fun h ->
        let copy = Histogram.make (Histogram.name h) in
        Histogram.merge ~into:copy h;
        (h, copy))
      (Histogram.registered ())
  in
  let was_enabled = Xaos_obs.Telemetry.enabled () in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (h, copy) ->
          Histogram.reset h;
          Histogram.merge ~into:h copy)
        saved;
      if not was_enabled then Xaos_obs.Telemetry.disable ())
  @@ fun () ->
  Xaos_obs.Telemetry.enable ();
  let topic rng = Printf.sprintf "topic%02d" (Prng.int rng 40) in
  let emission_p50 ~earliest =
    Histogram.reset hist;
    let b =
      Broker.create ~config:{ Broker.default_config with earliest } ()
    in
    let sub_rng = Prng.create 911 in
    for i = 1 to 200 do
      let t = topic sub_rng in
      let query =
        match Prng.int sub_rng 3 with
        | 0 -> Printf.sprintf "//%s/item" t
        | 1 -> Printf.sprintf "/feed/channel/%s//name" t
        | _ -> Printf.sprintf "//%s//name" t
      in
      match Broker.subscribe b ~name:(Printf.sprintf "s%d" i) ~query with
      | Ok () -> ()
      | Error e -> Alcotest.fail e
    done;
    let doc_rng = Prng.create 907 in
    for d = 1 to 20 do
      let topics =
        List.init 6 (fun _ ->
            let t = topic doc_rng in
            Printf.sprintf "<%s>%s</%s>" t
              (String.concat ""
                 (List.init 60
                    (Printf.sprintf "<item><name>n%d</name></item>")))
              t)
      in
      ignore
        (Broker.publish b ~doc_id:(string_of_int d)
           ("<feed><channel>" ^ String.concat "" topics
          ^ "</channel></feed>"))
    done;
    Alcotest.(check bool) "results were emitted" true
      (Histogram.count hist > 0);
    Histogram.p50 hist
  in
  let earliest = emission_p50 ~earliest:true in
  let deferred = emission_p50 ~earliest:false in
  if earliest > 1024. then
    Alcotest.failf "earliest emission p50 %g B exceeds 1 KiB" earliest;
  if deferred <= 1024. then
    Alcotest.failf "deferred emission p50 %g B is within 1 KiB" deferred

(* ------------------------------------------------------------------ *)
(* Server over a real socket: framing and earliest-mode item pushes    *)
(* ------------------------------------------------------------------ *)

let soak_socket name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "xaos-test-%s-%d.sock" name (Unix.getpid ()))

let with_server ~name ~config_f f =
  let socket_path = soak_socket name in
  let config = config_f (Server.default_config socket_path) in
  let server = Server.start config in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f socket_path)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path) with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e);
  (* a wedged test fails in seconds instead of hanging the suite *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  fd

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then go (off + Unix.write fd b off (len - off))
  in
  go 0

let send_req fd req = write_all fd (Protocol.to_line (Protocol.request_to_json req))

(* Read response lines (reassembled across reads) until [enough] holds on
   everything parsed so far, EOF, or the receive timeout. Returns the
   parsed responses in arrival order and whether EOF was reached. *)
let read_until fd enough =
  let chunk = Bytes.create 4096 in
  let acc = Buffer.create 256 in
  let seen = ref [] in
  let eof = ref false in
  let split () =
    let s = Buffer.contents acc in
    let len = String.length s in
    let rec go start =
      match String.index_from_opt s start '\n' with
      | None ->
        Buffer.clear acc;
        Buffer.add_substring acc s start (len - start)
      | Some nl ->
        (match Json.parse (String.sub s start (nl - start)) with
        | Ok j -> seen := j :: !seen
        | Error _ -> ());
        go (nl + 1)
    in
    go 0
  in
  let rec loop () =
    if not (enough (List.rev !seen)) then
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> eof := true
      | n ->
        Buffer.add_subbytes acc chunk 0 n;
        split ();
        loop ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
      | exception Unix.Unix_error _ -> eof := true
  in
  loop ();
  (List.rev !seen, !eof)

let jstr name j = Option.bind (Json.member name j) Json.to_str

let is_event kind j = jstr "event" j = Some kind

(* a complete request split into 1-byte writes must be reassembled into
   exactly one request — the frame cap must not misfire on small frames
   that merely arrive slowly *)
let test_server_split_frame_one_byte_writes () =
  with_server ~name:"split"
    ~config_f:(fun c -> { c with max_line_bytes = 4096 })
  @@ fun path ->
  let fd = connect path in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  send_req fd (Protocol.Subscribe { name = "q"; query = "//a"; earliest = false });
  let acks, _ =
    read_until fd (fun seen ->
        List.exists (fun j -> jstr "op" j = Some "subscribe") seen)
  in
  Alcotest.(check bool) "subscribe acked" true
    (List.exists (fun j -> Json.member "ok" j = Some (Json.Bool true)) acks);
  let line =
    Protocol.to_line
      (Protocol.request_to_json
         (Protocol.Publish { doc_id = "d1"; priority = 0; doc = "<r><a/></r>" }))
  in
  String.iter (fun ch -> write_all fd (String.make 1 ch)) line;
  let seen, eof =
    read_until fd (fun seen -> List.exists (is_event "processed") seen)
  in
  Alcotest.(check bool) "connection survived" false eof;
  let processed = List.find (is_event "processed") seen in
  Alcotest.(check (option string)) "the one request parsed" (Some "d1")
    (jstr "id" processed);
  match Option.bind (Json.member "matches" processed) Json.to_obj with
  | Some [ ("q", Json.Int 1) ] -> ()
  | _ -> Alcotest.fail "expected exactly q=1 in matches"

(* an unterminated line past the frame cap fails closed: a typed event
   log record, one parse error response, then disconnect — never a
   truncated parse, never unbounded buffering *)
let test_server_oversized_line_fails_closed () =
  let log_was = Xaos_obs.Eventlog.enabled () in
  Xaos_obs.Eventlog.enable ();
  Xaos_obs.Eventlog.clear ();
  Fun.protect
    ~finally:(fun () -> if not log_was then Xaos_obs.Eventlog.disable ())
  @@ fun () ->
  with_server ~name:"oversize"
    ~config_f:(fun c -> { c with max_line_bytes = 256 })
  @@ fun path ->
  let fd = connect path in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* dribble 600 bytes with no newline, in small writes so the frame
     must accumulate across reads before tripping the cap *)
  for _ = 1 to 60 do
    write_all fd (String.make 10 'x')
  done;
  let seen, eof =
    read_until fd (fun seen ->
        List.exists (fun j -> jstr "op" j = Some "parse") seen)
  in
  (match List.find_opt (fun j -> jstr "op" j = Some "parse") seen with
  | Some err ->
    Alcotest.(check bool) "refusal is an error" true
      (Json.member "ok" err = Some (Json.Bool false));
    let msg = Option.value ~default:"" (jstr "error" err) in
    Alcotest.(check bool) "typed message" true
      (String.length msg >= 12 && String.sub msg 0 12 = "line exceeds")
  | None -> Alcotest.fail "no parse error response before close");
  (* the server must now hang up on us *)
  let _, eof =
    if eof then ([], true) else read_until fd (fun _ -> false)
  in
  Alcotest.(check bool) "connection closed" true eof;
  let typed =
    List.exists
      (fun (e : Xaos_obs.Eventlog.event) ->
        e.reason = Some Xaos_obs.Eventlog.Line_too_long)
      (Xaos_obs.Eventlog.events ())
  in
  Alcotest.(check bool) "Line_too_long in the event log" true typed

(* earliest-mode subscription over the wire: one [item] event per result,
   pushed before the document's [processed] summary, ids in document
   order, and the final match count agreeing with the pushes *)
let test_server_earliest_item_events () =
  with_server ~name:"earliest" ~config_f:(fun c -> c)
  @@ fun path ->
  let fd = connect path in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  send_req fd (Protocol.Subscribe { name = "e"; query = "//a//b"; earliest = true });
  let _ =
    read_until fd (fun seen ->
        List.exists (fun j -> jstr "op" j = Some "subscribe") seen)
  in
  send_req fd
    (Protocol.Publish
       { doc_id = "d"; priority = 0; doc = "<r><a><b/><c/><b/></a></r>" });
  let seen, _ =
    read_until fd (fun seen -> List.exists (is_event "processed") seen)
  in
  let items = List.filter (is_event "item") seen in
  Alcotest.(check int) "one item event per result" 2 (List.length items);
  let ids =
    List.filter_map (fun j -> Option.bind (Json.member "item_id" j) Json.to_int)
      items
  in
  Alcotest.(check bool) "document order" true (List.sort compare ids = ids);
  List.iter
    (fun j ->
      Alcotest.(check (option string)) "tag" (Some "b") (jstr "tag" j);
      Alcotest.(check (option string)) "owner name" (Some "e") (jstr "name" j))
    items;
  (* every item event precedes the processed summary *)
  let rec before l =
    match l with
    | [] -> true
    | j :: tl -> if is_event "processed" j then not (List.exists (is_event "item") tl)
      else before tl
  in
  Alcotest.(check bool) "items pushed before processed" true (before seen);
  let processed = List.find (is_event "processed") seen in
  match Option.bind (Json.member "matches" processed) Json.to_obj with
  | Some [ ("e", Json.Int 2) ] -> ()
  | _ -> Alcotest.fail "summary must agree with the item pushes"

(* the publish acknowledgement is queued before the evaluator can see
   the document, so on the publisher's connection it always arrives
   before that document's [processed] event *)
let test_server_ack_before_processed () =
  with_server ~name:"ack" ~config_f:(fun c -> c) @@ fun path ->
  let fd = connect path in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* one publish at a time, so every document races its own
     acknowledgement on an idle evaluator *)
  let n = 50 in
  let seen =
    List.concat_map
      (fun i ->
        send_req fd
          (Protocol.Publish
             { doc_id = Printf.sprintf "d%d" i; priority = 0; doc = "<a/>" });
        fst
          (read_until fd (fun seen ->
               List.exists (is_event "processed") seen
               && List.exists (fun j -> jstr "op" j = Some "publish") seen)))
      (List.init n (fun i -> i + 1))
  in
  let index_of pred =
    let rec go i = function
      | [] -> None
      | j :: tl -> if pred j then Some i else go (i + 1) tl
    in
    go 0 seen
  in
  for i = 1 to n do
    let id = Some (Printf.sprintf "d%d" i) in
    let ack =
      index_of (fun j -> jstr "op" j = Some "publish" && jstr "id" j = id)
    and processed = index_of (fun j -> is_event "processed" j && jstr "id" j = id) in
    match ack, processed with
    | Some a, Some p ->
      if a > p then Alcotest.failf "d%d: processed arrived before its ack" i
    | None, _ -> Alcotest.failf "d%d: no acknowledgement" i
    | _, None -> Alcotest.failf "d%d: no processed event" i
  done

(* a mistyped optional field is an error naming the field, never its
   default *)
let test_protocol_rejects_mistyped_fields () =
  List.iter
    (fun (field, line) ->
      match Protocol.request_of_line line with
      | Error e ->
        let quoted = Printf.sprintf "%S" field in
        let n = String.length quoted in
        let rec mentions i =
          i + n <= String.length e && (String.sub e i n = quoted || mentions (i + 1))
        in
        if not (mentions 0) then
          Alcotest.failf "%s: error %S does not name the field" field e
      | Ok _ -> Alcotest.failf "%s: mistyped value accepted: %s" field line)
    [ ("priority", {|{"op":"publish","id":"d","doc":"<a/>","priority":"high"}|});
      ("interval_s", {|{"op":"stats-stream","interval_s":"fast","count":1}|});
      ("count", {|{"op":"stats-stream","interval_s":1.0,"count":"one"}|});
      ("n", {|{"op":"profile","n":"ten"}|});
      ("by", {|{"op":"profile","by":7}|});
      ("max", {|{"op":"slowlog","max":"all"}|}) ]

(* ------------------------------------------------------------------ *)
(* The soak: the acceptance test                                       *)
(* ------------------------------------------------------------------ *)

let check_soak name cfg =
  let s = Soak.run cfg in
  (match Soak.healthy s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s unhealthy: %s" name e);
  s

let test_soak_smoke () =
  let cfg =
    { Soak.default_config with docs = 300; subs = 40;
      socket_path = soak_socket "smoke" }
  in
  let s = check_soak "smoke" cfg in
  Alcotest.(check bool) "faults recovered" true (s.sax_faults > 0);
  Alcotest.(check bool) "client aborts survived" true (s.client_aborts > 0)

let test_soak_acceptance () =
  (* the ISSUE gate: >= 2000 documents, >= 100 live subscriptions *)
  let cfg = { Soak.default_config with socket_path = soak_socket "full" } in
  Alcotest.(check bool) "scale: docs" true (cfg.docs >= 2000);
  Alcotest.(check bool) "scale: subs" true (cfg.subs >= 100);
  let s = check_soak "acceptance" cfg in
  Alcotest.(check int) "zero crashes" 0 s.crashes;
  Alcotest.(check int) "zero mismatches" 0 s.mismatches;
  Alcotest.(check bool) "hundreds of differential checks" true
    (s.checked > 500);
  Alcotest.(check bool) "overload responses" true (s.shed > 0 && s.displaced > 0);
  Alcotest.(check bool) "quarantine cycles" true (s.quarantined_total >= 2);
  Alcotest.(check bool) "re-admissions" true (s.readmitted_total >= 1);
  Alcotest.(check bool) "report schema-valid" true s.report_valid

let suite =
  [
    Alcotest.test_case "quarantine threshold and backoff" `Quick
      test_quarantine_threshold_and_backoff;
    Alcotest.test_case "quarantine success resets and decays" `Quick
      test_quarantine_success_resets_and_decays;
    Alcotest.test_case "ingress watermarks and shedding" `Quick
      test_ingress_watermarks_and_shedding;
    Alcotest.test_case "ingress close drains" `Quick test_ingress_close_drains;
    Alcotest.test_case "protocol roundtrip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "broker quarantine lifecycle" `Quick
      test_broker_quarantine_lifecycle;
    Alcotest.test_case "broker malformed and limits" `Quick
      test_broker_malformed_and_limits;
    Alcotest.test_case "broker report schema" `Quick test_broker_report_schema;
    Alcotest.test_case "server reassembles 1-byte-write frames" `Quick
      test_server_split_frame_one_byte_writes;
    Alcotest.test_case "server fails closed on oversized lines" `Quick
      test_server_oversized_line_fails_closed;
    Alcotest.test_case "server pushes earliest item events" `Quick
      test_server_earliest_item_events;
    Alcotest.test_case "soak smoke" `Quick test_soak_smoke;
    Alcotest.test_case "soak acceptance (2000 docs, 100 subs)" `Slow
      test_soak_acceptance;
    QCheck_alcotest.to_alcotest qcheck_protocol_roundtrip;
    Alcotest.test_case "earliest emission p50 within 1 KiB" `Quick
      test_earliest_emission_p50;
    Alcotest.test_case "protocol rejects mistyped fields" `Quick
      test_protocol_rejects_mistyped_fields;
    Alcotest.test_case "server ack precedes processed"
      `Quick test_server_ack_before_processed;
  ]
