(* Workload inputs and their oracles, all derived from the run seed and
   built before any timer starts. The server only ever sees the protocol
   lines made from these. *)

open Xaos_core
module Prng = Xaos_workloads.Prng
module Xmark = Xaos_workloads.Xmark

type sub = { name : string; query : string; earliest : bool }

type wire = {
  subs : sub array;  (** stable subscriptions, alive for the whole run *)
  churn : string array;
      (** queries the control pool subscribes and drops during the
          open loop (empty: stats reads only) *)
  docs : string array;  (** distinct documents, cycled by the sender *)
  expected : (string, int) Hashtbl.t array;
      (** per document: stable subscriptions with >= 1 result -> count *)
}

let compile_config earliest =
  if earliest then { Engine.default_config with emission = Engine.Earliest }
  else Engine.default_config

(* Per-document, per-subscription match counts from the naive loop (every
   event to every run, no compaction, no gate) over the stable set. *)
let oracle subs docs =
  let set =
    match
      Query_set.compile
        (Array.to_list (Array.map (fun s -> (s.name, s.query)) subs))
    with
    | Ok s -> s
    | Error e -> failwith ("oracle: " ^ e)
  in
  Array.map
    (fun doc ->
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun (o : Query_set.outcome) ->
          match o.items with
          | [] -> ()
          | items -> Hashtbl.replace tbl o.query_name (List.length items))
        (Query_set.run_string ~dispatch:Query_set.Naive set doc);
      tbl)
    docs

(* {1 topics-wire}

   The bench/filtering.ml shape: forward-only subscriptions pinned to one
   of 400 topic tags, documents covering 6 topics with 160 items each
   (~28 KB), so almost every subscription waits for a tag the document
   never produces. *)

let topic_count = 400
let topics_per_doc = 6
let items_per_topic = 160
let topic_subs = 1000
let topic_docs = 16

let topic i = Printf.sprintf "topic%03d" i

let topic_query rng =
  let t = topic (Prng.int rng topic_count) in
  match Prng.int rng 3 with
  | 0 -> Printf.sprintf "//%s/item" t
  | 1 -> Printf.sprintf "/feed/channel/%s//name" t
  | _ -> Printf.sprintf "//%s//name" t

let topic_doc rng =
  let buf = Buffer.create (1 lsl 15) in
  Buffer.add_string buf "<feed><channel>";
  for _ = 1 to topics_per_doc do
    let t = topic (Prng.int rng topic_count) in
    Printf.bprintf buf "<%s>" t;
    for i = 1 to items_per_topic do
      Printf.bprintf buf "<item><name>n%d</name></item>" i
    done;
    Printf.bprintf buf "</%s>" t
  done;
  Buffer.add_string buf "</channel></feed>";
  Buffer.contents buf

let topics ~seed =
  let rng = Prng.create seed in
  let subs =
    Array.init topic_subs (fun i ->
        { name = Printf.sprintf "s%04d" i; query = topic_query rng;
          earliest = false })
  in
  let docs = Array.init topic_docs (fun _ -> topic_doc rng) in
  { subs; churn = [||]; docs; expected = oracle subs docs }

(* {1 mixed-wire}

   500 subscriptions drawn with duplicates from a pool of 100 queries over
   XMark tags. Every pool query has a backward step or a predicate that
   defeats the prefix gate, so the pool compacts to ~100 engine classes
   and the gate is bypassed. Emission mode is a property of the pool
   entry (even entries stream items), so compaction classes stay ~100
   while half the subscriptions run in earliest mode. *)

let mixed_subs = 500
let pool_size = 100
let churn_pool = 16
let mixed_docs = 24

(* root-to-leaf element paths the XMark generator produces *)
let xmark_paths =
  Array.map (fun p -> Array.of_list (String.split_on_char '/' p))
    [| "site/regions/europe/item/description/parlist/listitem/text";
       "site/regions/asia/item/mailbox/mail/text";
       "site/regions/namerica/item/mailbox/mail/from";
       "site/regions/africa/item/incategory";
       "site/regions/samerica/item/location";
       "site/regions/australia/item/payment";
       "site/categories/category/description/parlist/listitem/parlist/listitem/text";
       "site/categories/category/name";
       "site/people/person/address/city";
       "site/people/person/watches/watch";
       "site/people/person/name";
       "site/open_auctions/open_auction/bidder/increase";
       "site/open_auctions/open_auction/bidder/personref";
       "site/open_auctions/open_auction/annotation/description/text";
       "site/open_auctions/open_auction/interval/start";
       "site/closed_auctions/closed_auction/annotation/author";
       "site/closed_auctions/closed_auction/price" |]

(* Half the candidates follow one real path (child [c] at depth [i], its
   parent [p], a proper ancestor [a] of [p]); the other half combine tags
   from unrelated paths, which XMark rarely nests that way. *)
let mixed_query rng =
  let pick_path () = Prng.pick rng xmark_paths in
  let path = pick_path () in
  let i = Prng.range rng 2 (Array.length path - 1) in
  let c = path.(i) and p = path.(i - 1) and a = path.(Prng.int rng (i - 1)) in
  let c, p, a =
    if Prng.bool rng then (c, p, a)
    else
      let other () =
        let q = pick_path () in
        q.(Prng.range rng 1 (Array.length q - 1))
      in
      (c, other (), other ())
  in
  match Prng.int rng 5 with
  | 0 -> Printf.sprintf "//%s/ancestor::%s" c a
  | 1 -> Printf.sprintf "//%s/parent::%s/ancestor::%s" c p a
  | 2 -> Printf.sprintf "//%s[%s]/ancestor::%s" p c a
  | 3 -> Printf.sprintf "//%s[ancestor::%s]" c a
  | _ -> Printf.sprintf "//%s[parent::%s][ancestor::%s]" c p a

(* Pool entries that match the sample document, each with at most this
   many results, and how many of the pool's entries may do so. Pub/sub
   subscriptions are mostly selective; the bounds also keep one
   document's match and item events (~95 and ~85 per document) well
   inside the server's per-client out-queue (1024 lines), so the run
   measures delivery rather than drops. *)
let max_results = 3
let matching_entries = 15

(* [n] queries with distinct engine classes, none of them gateable, of
   which [matching_entries] match [sample] *)
let pool rng sample n =
  let keys = Hashtbl.create n in
  let rec fill acc k matching tries =
    if k = n then Array.of_list (List.rev acc)
    else if tries > 1000 * n then failwith "mixed pool: too few distinct queries"
    else
      let q = mixed_query rng in
      match Query.compile q with
      | Ok c
        when Query.gate_prefixes c = None
             && not (Hashtbl.mem keys (Query.class_key c)) ->
        let results = List.length (Query.run_string c sample).Result_set.items in
        let fits =
          if results = 0 then k - matching < n - matching_entries
          else results <= max_results && matching < matching_entries
        in
        if fits then begin
          Hashtbl.add keys (Query.class_key c) ();
          fill (q :: acc) (k + 1)
            (if results > 0 then matching + 1 else matching)
            (tries + 1)
        end
        else fill acc k matching (tries + 1)
      | _ -> fill acc k matching (tries + 1)
  in
  fill [] 0 0 0

(* oracle means per document: (match events, item events) *)
let expected_events (w : wire) =
  let earliest = Hashtbl.create 64 in
  Array.iter (fun s -> if s.earliest then Hashtbl.replace earliest s.name ()) w.subs;
  let m = ref 0 and i = ref 0 in
  Array.iter
    (Hashtbl.iter (fun name count ->
         incr m;
         if Hashtbl.mem earliest name then i := !i + count))
    w.expected;
  let n = float_of_int (Array.length w.docs) in
  (float_of_int !m /. n, float_of_int !i /. n)

(* small XMark documents, ~40-90 KB, each from its own seed *)
let mixed_doc rng =
  let scale = 0.001 +. Prng.float rng 0.0012 in
  Xmark.to_string (Xmark.config ~seed:(Prng.int rng 1_000_000_000) scale)

let mixed ~seed =
  let rng = Prng.create seed in
  let docs = Array.init mixed_docs (fun _ -> mixed_doc rng) in
  let pool = pool rng docs.(0) pool_size in
  let subs =
    Array.init mixed_subs (fun i ->
        let k = Prng.int rng pool_size in
        { name = Printf.sprintf "m%03d" i; query = pool.(k);
          earliest = k mod 2 = 0 })
  in
  let churn = Array.init churn_pool (fun _ -> pool.(Prng.int rng pool_size)) in
  { subs; churn; docs; expected = oracle subs docs }

(* {1 xmark-stream}

   The paper's experiment: one XMark document held in memory, a fixed
   list of paper-style queries evaluated one streaming pass at a time.
   Odd entries run in earliest mode so results stream mid-document. *)

let stream_scale = 0.1

let stream_queries =
  [| Xmark.paper_query;  (* Figure 5: backward axis, few results *)
     "//name/parent::category";  (* parent step *)
     "//person[address]/name";  (* predicate *)
     "//text";  (* low selectivity: a result per text element *)
     "//listitem[parlist]//text/ancestor::description" |]

type stream = {
  doc : string;
  queries : (string * bool) array;  (** expression, earliest *)
  expected_ids : int list array;  (** DOM baseline result ids per query *)
}

let stream ~seed =
  let rng = Prng.create seed in
  let doc =
    Xmark.to_string
      (Xmark.config ~seed:(Prng.int rng 1_000_000_000) stream_scale)
  in
  let dom = Xaos_xml.Dom.of_string doc in
  let expected_ids =
    Array.map
      (fun q ->
        List.map
          (fun (i : Item.t) -> i.id)
          (Xaos_baseline.Dom_engine.eval ~dedup:true dom
             (Xaos_xpath.Parser.parse q)))
      stream_queries
  in
  { doc; queries = Array.mapi (fun i q -> (q, i mod 2 = 1)) stream_queries;
    expected_ids }
