(* The traced run: per-layer numbers, taken from outside the program.

   It replays a workload's generated inputs in-process through each
   layer's public functions, in the order the broker calls them, and
   records one span per call: name, start, end, parent and document id,
   with the Gc minor-word delta taken at the same boundaries. Spans stay
   in memory and are written out at the end as a Chrome trace. Layer
   self times and the per-layer counts come from these spans; nothing
   under lib/ is instrumented for it. *)

open Xaos_core
module Sax = Xaos_xml.Sax
module Json = Xaos_obs.Json
module Broker = Xaos_service.Broker
module Protocol = Xaos_service.Protocol

(* {1 Spans} *)

type span = {
  id : int;
  parent : int;  (** 0: a root *)
  name : string;
  doc : int;
  t0 : int64;  (** ns, monotonic *)
  t1 : int64;
  words : float;  (** minor words allocated inside *)
}

let spans : span Queue.t = Queue.create ()
let next_id = ref 0
let stack = ref []

let span ~doc name f =
  incr next_id;
  let id = !next_id in
  let parent = match !stack with p :: _ -> p | [] -> 0 in
  stack := id :: !stack;
  let w0 = Gc.minor_words () in
  let t0 = Mono.now_ns () in
  let r = f () in
  let t1 = Mono.now_ns () in
  let words = Gc.minor_words () -. w0 in
  stack := List.tl !stack;
  Queue.push { id; parent; name; doc; t0; t1; words } spans;
  r

let dur_ms s = Int64.to_float (Int64.sub s.t1 s.t0) *. 1e-6

(* self time: duration minus the part covered by child spans *)
let self_ms () =
  let covered = Hashtbl.create 1024 in
  Queue.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace covered s.parent
          (dur_ms s +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    spans;
  fun s -> dur_ms s -. Option.value ~default:0. (Hashtbl.find_opt covered s.id)

(* per document: span name -> (self ms, minor words), summed over the
   document's spans of that name *)
let per_doc () =
  let self = self_ms () in
  let docs = Hashtbl.create 256 in
  Queue.iter
    (fun s ->
      let tbl =
        match Hashtbl.find_opt docs s.doc with
        | Some t -> t
        | None ->
          let t = Hashtbl.create 16 in
          Hashtbl.add docs s.doc t;
          t
      in
      let ms, w = Option.value ~default:(0., 0.) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (ms +. self s, w +. s.words))
    spans;
  docs

let write_chrome path =
  let origin = match Queue.peek_opt spans with Some s -> s.t0 | None -> 0L in
  let origin = Queue.fold (fun o s -> if s.t0 < o then s.t0 else o) origin spans in
  let us t = Int64.to_float (Int64.sub t origin) /. 1e3 in
  let events =
    Queue.fold
      (fun acc s ->
        Json.Obj
          [ ("name", Json.String s.name); ("cat", Json.String "perfbench");
            ("ph", Json.String "X"); ("ts", Json.Float (us s.t0));
            ("dur", Json.Float (us s.t1 -. us s.t0)); ("pid", Json.Int 1);
            ("tid", Json.Int 1);
            ( "args",
              Json.Obj
                [ ("doc", Json.Int s.doc); ("id", Json.Int s.id);
                  ("parent", Json.Int s.parent);
                  ("minor_words", Json.Float s.words) ] ) ]
        :: acc)
      [] spans
  in
  let oc = open_out path in
  output_string oc
    (Json.to_string ~indent:false
       (Json.Obj
          [ ("traceEvents", Json.List (List.rev events));
            ("displayTimeUnit", Json.String "ms") ]));
  close_out oc

(* {1 Helpers} *)

let parse_events doc =
  let p = Sax.of_string ~mode:Sax.Lenient doc in
  let acc = ref [] in
  Sax.iter (fun e -> acc := e :: !acc) p;
  Array.of_list (List.rev !acc)

let chunk = 128
let filler = Xaos_xml.Event.Text ""

(* record an already-timed span under the current parent *)
let emit ~doc name ~t0 ~t1 ~words =
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> 0 in
  Queue.push { id = !next_id; parent; name; doc; t0; t1; words } spans

(* The broker's interleaving of parse and feed, timed a chunk of events at
   a time: pull up to [chunk] events, then feed them. Four clock reads
   per chunk instead of four per event; the chunk buffer is small enough
   to live in the minor heap, so no event outlives its chunk and the
   replay allocates and retains what the real loop does. The chunks'
   times are merged into one "sax" and one [feed_name] span per call,
   laid end to end from the replay's start. Returns the event count. *)
let replay ~doc ~feed_name text feed =
  let p = Sax.of_string ~mode:Sax.Lenient text in
  let sax_ns = ref 0L and feed_ns = ref 0L in
  let sax_w = ref 0. and feed_w = ref 0. in
  let start = Mono.now_ns () in
  let rec loop total =
    let buf = Array.make chunk filler in
    let w0 = Gc.minor_words () in
    let t0 = Mono.now_ns () in
    let rec fill i =
      if i = chunk then i
      else
        match Sax.next p with
        | None -> i
        | Some e ->
          buf.(i) <- e;
          fill (i + 1)
    in
    let n = fill 0 in
    let t1 = Mono.now_ns () in
    let w1 = Gc.minor_words () in
    for i = 0 to n - 1 do
      feed buf.(i)
    done;
    let t2 = Mono.now_ns () in
    sax_ns := Int64.add !sax_ns (Int64.sub t1 t0);
    feed_ns := Int64.add !feed_ns (Int64.sub t2 t1);
    sax_w := !sax_w +. (w1 -. w0);
    feed_w := !feed_w +. (Gc.minor_words () -. w1);
    if n = chunk then loop (total + n) else total + n
  in
  let n = loop 0 in
  let mid = Int64.add start !sax_ns in
  emit ~doc "sax" ~t0:start ~t1:mid ~words:!sax_w;
  emit ~doc feed_name ~t0:mid ~t1:(Int64.add mid !feed_ns) ~words:!feed_w;
  n

let ratio a b = if b > 0. then a /. b else 0.

type layer_sample = {
  values : (string, Mono.samples) Hashtbl.t;  (** per-document values *)
  totals : (string, float ref) Hashtbl.t;  (** summed over documents *)
}

let layer_sample () = { values = Hashtbl.create 32; totals = Hashtbl.create 32 }

let record ls name v =
  let s =
    match Hashtbl.find_opt ls.values name with
    | Some s -> s
    | None ->
      let s = Mono.samples () in
      Hashtbl.add ls.values name s;
      s
  in
  Mono.add s v;
  match Hashtbl.find_opt ls.totals name with
  | Some r -> r := !r +. v
  | None -> Hashtbl.add ls.totals name (ref v)

let med ls name =
  match Hashtbl.find_opt ls.values name with
  | Some s -> Mono.median s
  | None -> 0.

let tot ls name =
  match Hashtbl.find_opt ls.totals name with Some r -> !r | None -> 0.

(* {1 The wire workloads' replay} *)

(* what the server writes back for one publish: the queued ack, one item
   event per streamed result, the processed event and the match events *)
let reply_lines ~doc_id ~items (outcomes : Query_set.outcome list) =
  let matches =
    List.filter_map
      (fun (o : Query_set.outcome) ->
        match o.items with
        | [] -> None
        | l -> Some (o.query_name, List.length l))
      outcomes
  in
  let id = Json.String doc_id in
  Protocol.to_line
    (Protocol.ok ~op:"publish" [ ("id", id); ("queued", Json.Bool true) ])
  :: List.map
       (fun (name, (item : Item.t)) ->
         Protocol.to_line
           (Protocol.event ~kind:"item"
              [ ("id", id); ("name", Json.String name);
                ("item_id", Json.Int item.id);
                ("tag", Json.String (Item.tag item));
                ("level", Json.Int item.level) ]))
       items
  @ Protocol.to_line
      (Protocol.event ~kind:"processed"
         [ ("id", id);
           ("matches",
            Json.Obj (List.map (fun (n, k) -> (n, Json.Int k)) matches)) ])
    :: List.map
         (fun (name, count) ->
           Protocol.to_line
             (Protocol.event ~kind:"match"
                [ ("id", id); ("name", Json.String name);
                  ("count", Json.Int count) ]))
         matches

(* A Broker.stats call issued 1 ms into [publish]: how long, in ms, the
   reader waits for the evaluator. *)
let stats_wait b publish =
  let due = Mono.now () +. 0.001 in
  let waited = ref 0. in
  let th =
    Thread.create
      (fun () ->
        Mono.sleep_until due;
        ignore (Broker.stats b);
        waited := (Mono.now () -. due) *. 1e3)
      ()
  in
  ignore (publish ());
  Thread.join th;
  !waited

let budget = Option.value ~default:50_000 Broker.default_config.budget

(* Replay [w]'s documents for [seconds]; returns the per-layer samples. *)
let wire (w : Gen.wire) ~seconds =
  let ls = layer_sample () in
  let compiled =
    Array.map
      (fun (s : Gen.sub) ->
        let t0 = Mono.now () in
        let q = Query.compile_exn ~config:(Gen.compile_config s.earliest) s.query in
        record ls "xpath.compile_ms" ((Mono.now () -. t0) *. 1e3);
        (s.name, q))
      w.subs
  in
  let set = Query_set.of_queries (Array.to_list compiled) in
  let class_of = Hashtbl.create 1024 in
  let reps = Hashtbl.create 256 in
  Array.iter
    (fun (name, q) ->
      let key = Query.class_key q in
      Hashtbl.replace class_of name key;
      if not (Hashtbl.mem reps key) then Hashtbl.add reps key q)
    compiled;
  let reps = Hashtbl.fold (fun _ q acc -> q :: acc) reps [] in
  (* the engines alone are expensive to replay for big sets: sample *)
  let engine_every = 1 + (List.length reps / 64) in
  let b = Broker.create () in
  Array.iter
    (fun (s : Gen.sub) ->
      match Broker.subscribe ~earliest:s.earliest b ~name:s.name ~query:s.query with
      | Ok () -> ()
      | Error e -> failwith e)
    w.subs;
  let lines = Wire.publish_lines w in
  let fed = ref 0 and emitted = ref 0 and mismatches = ref 0 in
  let start = Mono.now () in
  let i = ref 0 in
  while Mono.now () -. start < seconds do
    let d = !i in
    incr i;
    let idx = d mod Array.length w.docs in
    let doc_id = "d" ^ string_of_int d in
    let line = lines.(idx) d in
    let doc_text = w.docs.(idx) in
    let items = ref [] in
    let on_item ~name item = items := (name, item) :: !items in
    (* 1-4: the broker's order, span by span *)
    span ~doc:d "doc" (fun () ->
        let doc =
          span ~doc:d "protocol.decode" (fun () ->
              match Protocol.request_of_line line with
              | Ok (Protocol.Publish { doc; _ }) -> doc
              | _ -> failwith "publish line did not decode")
        in
        let session =
          span ~doc:d "queryset.start" (fun () ->
              Query_set.start ~budget ~gate:true ~on_item set)
        in
        let n =
          replay ~doc:d ~feed_name:"queryset.feed" doc (Query_set.feed session)
        in
        let dispatched, suppressed = Query_set.dispatch_stats session in
        let classes, members, dormant = Query_set.session_stats session in
        let outcomes =
          span ~doc:d "queryset.finish" (fun () -> Query_set.finish session)
        in
        span ~doc:d "protocol.encode" (fun () ->
            ignore
              (Protocol.to_line
                 (Protocol.request_to_json
                    (Protocol.Publish { doc_id; priority = 0; doc = doc_text })));
            ignore (reply_lines ~doc_id ~items:(List.rev !items) outcomes));
        record ls "sax.events" (float_of_int n);
        record ls "queryset.dispatched" (float_of_int dispatched);
        record ls "queryset.suppressed" (float_of_int suppressed);
        record ls "queryset.classes" (float_of_int classes);
        record ls "queryset.members" (float_of_int members);
        record ls "queryset.dormant" (float_of_int dormant);
        let structures = ref 0. and live = ref 0 and retained = ref 0 in
        let fed_k = Hashtbl.create 64 and emitted_k = Hashtbl.create 64 in
        List.iter
          (fun (o : Query_set.outcome) ->
            structures :=
              !structures
              +. float_of_int o.stats.structures_created
                 /. float_of_int (max 1 o.fanout);
            live := max !live o.stats.live_peak;
            retained := max !retained o.stats.retained_peak_bytes;
            let key = Hashtbl.find class_of o.query_name in
            if o.delivered > 0 then Hashtbl.replace fed_k key ();
            if o.items <> [] then Hashtbl.replace emitted_k key ())
          outcomes;
        fed := !fed + Hashtbl.length fed_k;
        emitted := !emitted + Hashtbl.length emitted_k;
        record ls "engine.structures" !structures;
        record ls "engine.live_peak" (float_of_int !live);
        record ls "engine.retained_peak_bytes" (float_of_int !retained));
    let events = parse_events doc_text in
    (* the same session with the gate off, and the class engines alone;
       both before the publishes below, which may reset the symbol table
       these parsed events refer to *)
    span ~doc:d "queryset.ungated" (fun () ->
        let s = Query_set.start ~budget ~gate:false set in
        Array.iter (Query_set.feed s) events;
        ignore (Query_set.finish s));
    if d mod engine_every = 0 then
      span ~doc:d "engine" (fun () ->
          let runs = span ~doc:d "query.start" (fun () -> List.map (Query.start ~budget) reps) in
          span ~doc:d "query.feed" (fun () ->
              Array.iter (fun e -> List.iter (fun r -> Query.feed r e) runs) events);
          span ~doc:d "query.finish" (fun () -> List.iter (fun r -> ignore (Query.finish r)) runs));
    (* 5: the real thing, untraced inside, then with each observer on *)
    let on_item ~name:_ _ = () in
    let o =
      span ~doc:d "broker.publish" (fun () -> Broker.publish ~on_item b ~doc_id doc_text)
    in
    let expected = w.expected.(idx) in
    let stable = List.filter (fun (n, _) -> Hashtbl.mem class_of n) o.matches in
    if
      List.length stable <> Hashtbl.length expected
      || List.exists (fun (n, c) -> Hashtbl.find_opt expected n <> Some c) stable
    then incr mismatches;
    Xaos_obs.Telemetry.enable ();
    ignore
      (span ~doc:d "broker.publish.telemetry" (fun () ->
           Broker.publish ~on_item b ~doc_id doc_text));
    Xaos_obs.Telemetry.disable ();
    Xaos_obs.Attrib.enable ();
    ignore
      (span ~doc:d "broker.publish.attrib" (fun () ->
           Broker.publish ~on_item b ~doc_id doc_text));
    Xaos_obs.Attrib.disable ();
    record ls "broker.stats_wait_ms"
      (stats_wait b (fun () -> Broker.publish ~on_item b ~doc_id doc_text))
  done;
  Xaos_obs.Attrib.reset ();
  (ls, !fed, !emitted, !mismatches)

(* {1 xmark-stream's replay} *)

let stream (s : Gen.stream) ~seconds =
  let ls = layer_sample () in
  let queries =
    Array.map
      (fun q ->
        let t0 = Mono.now () in
        let c = Stream.compile q in
        record ls "xpath.compile_ms" ((Mono.now () -. t0) *. 1e3);
        c)
      s.queries
  in
  let nq = Array.length queries in
  let mismatches = ref 0 in
  let start = Mono.now () in
  let d = ref 0 in
  while Mono.now () -. start < seconds do
    let q = queries.(!d mod nq) in
    let doc = !d in
    incr d;
    let run =
      span ~doc "pass" @@ fun () ->
      (* Query.start counts as feeding: it is the run's first step *)
      let run = span ~doc "query.feed" (fun () -> Query.start q) in
      let n = replay ~doc ~feed_name:"query.feed" s.doc (Query.feed run) in
      span ~doc "query.finish" (fun () -> ignore (Query.finish run));
      record ls "sax.events" (float_of_int n);
      run
    in
    let st = Query.run_stats run in
    record ls "engine.structures" (float_of_int st.structures_created);
    record ls "engine.live_peak" (float_of_int st.live_peak);
    record ls "engine.retained_peak_bytes" (float_of_int st.retained_peak_bytes);
    let rs, _ = span ~doc "pass.untraced" (fun () -> Stream.pass q s.doc) in
    if Stream.ids rs <> s.expected_ids.(doc mod nq) then incr mismatches
  done;
  (ls, !mismatches)
