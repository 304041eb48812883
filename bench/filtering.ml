(* Extension benchmark: publish/subscribe filtering throughput.

   YFilter's proposition (and the reason the paper compares against that
   family) is that a shared automaton filters large subscription sets
   cheaply — but only for forward-only linear paths. χαος runs one engine
   per subscription with the full language (backward axes, predicates);
   PR 3 adds the shared dispatch index, which recovers the sharing on the
   event-routing side: each element event reaches only the runs whose
   looking-for frontier can match it.

   The workload is the selective case pub/sub lives on: a few hundred
   topic tags, each subscription pinned to one topic, each document
   covering a handful of topics — so at any moment almost every
   subscription is waiting for a tag the document is not producing. The
   sweep measures per-document filtering time against subscription-set
   size for yfilter, the naive feed-everyone loop, and the shared index;
   shared and naive outcomes are compared as a differential oracle, and
   all three systems must agree on match counts. *)

open Xaos_core
module Prng = Xaos_workloads.Prng

let topic_count = 400

let topics_per_doc = 6

let items_per_topic = 160

let topic i = Printf.sprintf "topic%03d" i

(* forward-only linear subscriptions (YFilter's class), one topic each *)
let subscription rng =
  let t = topic (Prng.int rng topic_count) in
  match Prng.int rng 3 with
  | 0 -> Printf.sprintf "//%s/item" t
  | 1 -> Printf.sprintf "/feed/channel/%s//name" t
  | _ -> Printf.sprintf "//%s//name" t

let document rng =
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf "<feed><channel>";
  for _ = 1 to topics_per_doc do
    let t = topic (Prng.int rng topic_count) in
    Buffer.add_string buf "<";
    Buffer.add_string buf t;
    Buffer.add_string buf ">";
    for i = 1 to items_per_topic do
      Buffer.add_string buf (Printf.sprintf "<item><name>n%d</name></item>" i)
    done;
    Buffer.add_string buf "</";
    Buffer.add_string buf t;
    Buffer.add_string buf ">"
  done;
  Buffer.add_string buf "</channel></feed>";
  Buffer.contents buf

(* mixed workload: linear plus predicates and backward axes *)
let tags =
  [| "site"; "regions"; "item"; "name"; "description"; "parlist"; "listitem";
     "text"; "category"; "person"; "open_auction"; "bidder"; "seller" |]

let linear_subscription rng =
  let buf = Buffer.create 32 in
  for _ = 1 to 1 + Prng.int rng 3 do
    Buffer.add_string buf (if Prng.bool rng then "/" else "//");
    Buffer.add_string buf
      (if Prng.int rng 8 = 0 then "*" else Prng.pick rng tags)
  done;
  Buffer.contents buf

let mixed_subscription rng =
  match Prng.int rng 4 with
  | 0 -> linear_subscription rng
  | 1 ->
    Printf.sprintf "//%s[%s]" (Prng.pick rng tags) (Prng.pick rng tags)
  | 2 ->
    Printf.sprintf "//%s/ancestor::%s" (Prng.pick rng tags)
      (Prng.pick rng tags)
  | _ ->
    Printf.sprintf "//%s/parent::%s//%s" (Prng.pick rng tags)
      (Prng.pick rng tags) (Prng.pick rng tags)

(* one document's outcomes reduced to a comparable key *)
let outcome_key (o : Query_set.outcome) =
  (o.Query_set.query_name, List.map (fun i -> i.Item.id) o.items, o.aborted)

(* Run the whole document list through one dispatch mode; returns the
   per-document outcome keys (the differential oracle input), the total
   match count, the dispatch stats and the wall-clock time. *)
let run_mode set dispatch docs_events =
  let keys = ref [] in
  let matches = ref 0 in
  let dispatched = ref 0 in
  let suppressed = ref 0 in
  let (), time =
    Util.time (fun () ->
        List.iter
          (fun events ->
            let s = Query_set.start ~dispatch set in
            List.iter (Query_set.feed s) events;
            let outcomes = Query_set.finish s in
            let d, sup = Query_set.dispatch_stats s in
            dispatched := !dispatched + d;
            suppressed := !suppressed + sup;
            matches :=
              !matches + List.length (Query_set.matching_names outcomes);
            keys := List.map outcome_key outcomes :: !keys)
          docs_events)
  in
  (List.rev !keys, !matches, !dispatched, !suppressed, time)

let run ~subscription_counts ~docs () =
  Util.print_header
    "Filtering (extension): yfilter vs naive loop vs shared dispatch index";
  let doc_rng = Prng.create 501 in
  let documents = List.init docs (fun _ -> document doc_rng) in
  let docs_events =
    List.map (fun d -> Xaos_xml.Sax.events_of_string d) documents
  in
  let elements =
    List.fold_left
      (fun acc evs ->
        acc
        + List.length
            (List.filter
               (function
                 | Xaos_xml.Event.Start_element _ -> true | _ -> false)
               evs))
      0 docs_events
  in
  Printf.printf
    "%d documents, %d elements total, %d topic tags (%d per document)\n"
    docs elements topic_count topics_per_doc;
  let rows =
    List.map
      (fun n ->
        let rng = Prng.create (n * 13) in
        let subs = List.init n (fun _ -> subscription rng) in
        let paths = List.map Xaos_xpath.Parser.parse subs in
        let nfa =
          match Xaos_baseline.Yfilter.build paths with
          | Ok nfa -> nfa
          | Error e -> failwith e
        in
        let set =
          match
            Query_set.compile
              (List.mapi (fun i q -> (string_of_int i, q)) subs)
          with
          | Ok s -> s
          | Error e -> failwith e
        in
        let yf_matches = ref 0 in
        let (), yf_time =
          Util.time (fun () ->
              List.iter
                (fun events ->
                  let r = Xaos_baseline.Yfilter.start nfa in
                  List.iter (Xaos_baseline.Yfilter.feed r) events;
                  yf_matches :=
                    !yf_matches
                    + List.length (Xaos_baseline.Yfilter.matches r))
                docs_events)
        in
        let naive_keys, naive_matches, _, _, naive_time =
          run_mode set Query_set.Naive docs_events
        in
        let shared_keys, shared_matches, dispatched, suppressed, shared_time =
          run_mode set Query_set.Shared docs_events
        in
        (* the differential oracle: byte-identical outcomes, not just
           equal match counts *)
        if naive_keys <> shared_keys then
          failwith "filtering bench: shared dispatch diverged from naive";
        if !yf_matches <> naive_matches || naive_matches <> shared_matches
        then failwith "filtering bench: systems disagree on match count";
        let speedup = naive_time /. shared_time in
        let suppression =
          float_of_int suppressed /. float_of_int (dispatched + suppressed)
        in
        Util.record (Printf.sprintf "filtering/%d/yfilter_s" n) yf_time;
        Util.record (Printf.sprintf "filtering/%d/naive_s" n) naive_time;
        Util.record (Printf.sprintf "filtering/%d/shared_s" n) shared_time;
        Util.record (Printf.sprintf "filtering/%d/shared_speedup" n) speedup;
        Util.record
          (Printf.sprintf "filtering/%d/suppressed_frac" n)
          suppression;
        (n, yf_time, naive_time, shared_time, speedup, suppression,
         naive_matches))
      subscription_counts
  in
  Util.print_table
    ~columns:
      [ "subscriptions"; "yfilter s"; "naive s"; "shared s"; "speedup";
        "suppressed"; "matches" ]
    (List.map
       (fun (n, yf, naive, shared, speedup, suppression, matches) ->
         [ string_of_int n; Util.fsec yf; Util.fsec naive; Util.fsec shared;
           Printf.sprintf "%.1fx" speedup; Util.fpct suppression;
           string_of_int matches ])
       rows);
  (* capability coverage on a mixed workload *)
  let rng = Prng.create 99 in
  let mixed = List.init 200 (fun _ -> mixed_subscription rng) in
  let yfilter_ok =
    List.length
      (List.filter
         (fun q -> Xaos_baseline.Yfilter.supported (Xaos_xpath.Parser.parse q))
         mixed)
  in
  let xaos_ok =
    List.length (List.filter (fun q -> Result.is_ok (Query.compile q)) mixed)
  in
  Util.note
    "language coverage on a mixed 200-subscription workload: yfilter %d/200, \
     xaos %d/200"
    yfilter_ok xaos_ok;
  Util.note "the shared index routes events instead of sharing states, so";
  Util.note "it keeps the full language the automaton class excludes."
