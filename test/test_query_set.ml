(* The Query_set shared dispatch index (PR 3).

   The load-bearing property is differential: on any document and any
   query set, Shared dispatch must produce outcomes identical to the
   Naive feed-everyone loop. Exercised on hand-picked cases covering
   wildcards, backward axes and predicates, on randomized Randgen
   query/document pairs, on lenient-parsed mutated documents, and on
   truncated streams finished with [finish_partial].

   Also here: the satellite correctness fixes — id-based [Item.equal]
   agreeing with [Item.compare], monomorphic tuple merging in
   [Result_set.union], accumulated compile errors, and per-run budget
   abort isolation. *)

module Sax = Xaos_xml.Sax
module Event = Xaos_xml.Event
module Ast = Xaos_xpath.Ast
module Prng = Xaos_workloads.Prng
module Randgen = Xaos_workloads.Randgen
open Xaos_core

let item = Alcotest.testable Item.pp Item.equal

let it id tag level = Item.make ~id ~tag ~level

let outcome_str (o : Query_set.outcome) =
  Printf.sprintf "%s%s: [%s]" o.query_name
    (if o.aborted then " (aborted)" else "")
    (String.concat "; "
       (List.map (fun i -> Format.asprintf "%a" Item.pp i) o.items))

let check_outcomes msg expected actual =
  Alcotest.(check (list string))
    msg
    (List.map outcome_str expected)
    (List.map outcome_str actual)

let compile_exn pairs =
  match Query_set.compile pairs with
  | Ok t -> t
  | Error msg -> Alcotest.failf "Query_set.compile: %s" msg

(* ------------------------------------------------------------------ *)
(* Satellite fixes                                                     *)
(* ------------------------------------------------------------------ *)

let test_item_equal_is_id_based () =
  (* ids are unique document-order identifiers; equal must agree with
     compare (which orders by id) or dedup in Result_set.union is
     inconsistent *)
  let a = it 7 "a" 2 and b = it 7 "b" 5 in
  Alcotest.(check bool) "same id equal" true (Item.equal a b);
  Alcotest.(check int) "same id compare" 0 (Item.compare a b);
  Alcotest.(check bool) "diff id" false (Item.equal a (it 8 "a" 2))

let test_union_dedup_regression () =
  (* regression: with field-sensitive equal, two results for the same
     element id coming from different disjuncts survived the union *)
  let x =
    { Result_set.items = [ it 3 "a" 1 ]; tuples = None; matching_count = None }
  in
  let y =
    {
      Result_set.items = [ it 3 "a" 1; it 5 "b" 2 ];
      tuples = None;
      matching_count = None;
    }
  in
  let u = Result_set.union x y in
  Alcotest.(check (list item)) "deduped" [ it 3 "a" 1; it 5 "b" 2 ] u.items

let test_union_tuples_monomorphic () =
  (* tuple merge must not use polymorphic compare on Item.t arrays *)
  let t1 = [| it 1 "a" 1; it 2 "b" 2 |] in
  let t2 = [| it 1 "a" 1; it 3 "c" 2 |] in
  let x =
    {
      Result_set.items = [ it 1 "a" 1 ];
      tuples = Some [ t1 ];
      matching_count = None;
    }
  in
  let y =
    {
      Result_set.items = [ it 1 "a" 1 ];
      tuples = Some [ t1; t2 ];
      matching_count = None;
    }
  in
  let u = Result_set.union x y in
  match u.tuples with
  | None -> Alcotest.fail "expected tuples"
  | Some ts ->
    Alcotest.(check int) "tuple count" 2 (List.length ts);
    (* same-id-different-metadata duplicates also merge *)
    let t1' = [| it 1 "a" 9; it 2 "z" 9 |] in
    let z =
      { Result_set.items = []; tuples = Some [ t1' ]; matching_count = None }
    in
    let u2 = Result_set.union x z in
    Alcotest.(check int)
      "id-based tuple dedup" 1
      (List.length (Option.get u2.tuples))

let test_compile_errors_accumulate () =
  match
    Query_set.compile
      [ ("ok", "//a"); ("first-bad", "//["); ("second-bad", "///") ]
  with
  | Ok _ -> Alcotest.fail "expected compile failure"
  | Error msg ->
    let contains needle =
      let n = String.length needle and m = String.length msg in
      let rec go i = i + n <= m && (String.sub msg i n = needle || go (i + 1)) in
      Alcotest.(check bool) (needle ^ " mentioned") true (go 0)
    in
    contains "2 queries failed";
    contains "first-bad";
    contains "second-bad"

(* ------------------------------------------------------------------ *)
(* Shared dispatch: unit tests                                         *)
(* ------------------------------------------------------------------ *)

let events_of s = Sax.events_of_string s

(* The PR 8 extension of the oracle: the same (name, expression) pairs
   compiled in earliest-decision mode must produce outcomes identical to
   the deferred reference, and every run's mid-document [on_item] stream
   must be exactly its outcome's item list (same ids, same order, no
   duplicates, nothing missing) — including aborted/partial runs, whose
   certain items are flushed through the callback at the cut. *)
let check_earliest ?budget ?gate ~partial msg pairs events reference =
  let earliest_set =
    match
      Query_set.compile
        ~config:{ Engine.default_config with emission = Engine.Earliest }
        pairs
    with
    | Ok t -> t
    | Error e -> Alcotest.failf "earliest compile: %s" e
  in
  let streamed : (string, int list) Hashtbl.t = Hashtbl.create 8 in
  let on_item ~name (i : Item.t) =
    let sofar = Option.value ~default:[] (Hashtbl.find_opt streamed name) in
    Hashtbl.replace streamed name (i.Item.id :: sofar)
  in
  let s = Query_set.start ?budget ?gate ~on_item earliest_set in
  List.iter (Query_set.feed s) events;
  let outcomes =
    if partial then Query_set.finish_partial s else Query_set.finish s
  in
  check_outcomes (msg ^ ": earliest = deferred") reference outcomes;
  List.iter
    (fun (o : Query_set.outcome) ->
      let got =
        List.rev
          (Option.value ~default:[] (Hashtbl.find_opt streamed o.query_name))
      in
      Alcotest.(check (list int))
        (Printf.sprintf "%s: %s streamed = outcome" msg o.query_name)
        (List.map (fun (i : Item.t) -> i.Item.id) o.items)
        got)
    outcomes

let run_both ?budget t events =
  let shared = Query_set.run_events ?budget ~dispatch:Shared t events in
  let naive = Query_set.run_events ?budget ~dispatch:Naive t events in
  check_outcomes "shared = naive" naive shared;
  shared

let test_looking_for_update_path () =
  (* //a//b: before any <a> opens, only "a" is interesting; the top-level
     <b>s must be suppressed, the one under <a> delivered *)
  let t = compile_exn [ ("q", "//a//b") ] in
  let events = events_of "<r><b/><a><b/></a><b/></r>" in
  let s = Query_set.start t in
  List.iter (Query_set.feed s) events;
  let outcomes = Query_set.finish s in
  let dispatched, suppressed = Query_set.dispatch_stats s in
  (* starts: r,b,a,b,b -> only a and the inner b delivered (2 starts +
     2 ends); r and the outer b's suppressed *)
  Alcotest.(check int) "dispatched" 4 dispatched;
  Alcotest.(check int) "suppressed" 3 suppressed;
  (match outcomes with
  | [ o ] ->
    Alcotest.(check (list item)) "items" [ it 4 "b" 3 ] o.items;
    Alcotest.(check bool) "not aborted" false o.aborted
  | _ -> Alcotest.fail "one outcome expected");
  ignore (run_both t events)

let test_wildcard_bucket () =
  (* a wildcard frontier must receive every element event *)
  let t = compile_exn [ ("all", "//*"); ("b", "//b") ] in
  let events = events_of "<a><b/><z/></a>" in
  let s = Query_set.start t in
  List.iter (Query_set.feed s) events;
  let outcomes = Query_set.finish s in
  let _, suppressed = Query_set.dispatch_stats s in
  (* only "b" skips things: <a> and <z> starts *)
  Alcotest.(check int) "suppressed" 2 suppressed;
  (match outcomes with
  | [ all; b ] ->
    Alcotest.(check (list item))
      "wildcard items"
      [ it 1 "a" 1; it 2 "b" 2; it 3 "z" 2 ]
      all.items;
    Alcotest.(check (list item)) "named items" [ it 2 "b" 2 ] b.items
  | _ -> Alcotest.fail "two outcomes expected");
  ignore (run_both t events)

let test_engine_interest_transitions () =
  (* the raw engine-level notification protocol behind the index *)
  let dag =
    match Query.compile "//a/b" with
    | Ok q -> (match Query.disjuncts q with [ d ] -> d | _ -> assert false)
    | Error msg -> Alcotest.failf "compile: %s" msg
  in
  let log = ref [] in
  let e = Engine.create dag in
  Engine.subscribe_interest e
    {
      Engine.on_sym =
        (fun sym on -> log := (Xaos_xml.Symbol.name sym, on) :: !log);
      on_wildcard = (fun _ -> Alcotest.fail "no wildcard in //a/b");
    };
  Alcotest.(check (list (pair string bool)))
    "initial frontier"
    [ ("a", true) ]
    (List.rev !log);
  Engine.start_element e ~sym:(Xaos_xml.Symbol.intern "a") ~level:1 ();
  Engine.start_element e ~sym:(Xaos_xml.Symbol.intern "b") ~level:2 ();
  Engine.end_element e;
  Engine.end_element e;
  ignore (Engine.finish e);
  Alcotest.(check (list (pair string bool)))
    "transitions"
    [ ("a", true); ("b", true); ("b", false); ("a", false) ]
    (List.rev !log)

let test_budget_abort_isolation () =
  (* one run tripping its budget must not take the others down *)
  let t = compile_exn [ ("heavy", "//a"); ("light", "//r") ] in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "<r>";
  for _ = 1 to 100 do
    Buffer.add_string buf "<a/>"
  done;
  Buffer.add_string buf "</r>";
  let events = events_of (Buffer.contents buf) in
  let check_mode dispatch =
    let outcomes = Query_set.run_events ~budget:50 ~dispatch t events in
    match outcomes with
    | [ heavy; light ] ->
      Alcotest.(check bool) "heavy aborted" true heavy.aborted;
      Alcotest.(check bool) "heavy partial nonempty" true (heavy.items <> []);
      Alcotest.(check bool)
        "heavy partial strict subset" true
        (List.length heavy.items < 100);
      Alcotest.(check bool) "light completed" false light.aborted;
      Alcotest.(check (list item)) "light items" [ it 1 "r" 1 ] light.items
    | _ -> Alcotest.fail "two outcomes expected"
  in
  check_mode Query_set.Shared;
  check_mode Query_set.Naive;
  ignore (run_both ~budget:50 t events)

(* ------------------------------------------------------------------ *)
(* Runtime registration (PR 6)                                         *)
(* ------------------------------------------------------------------ *)

let test_register_between_documents () =
  (* the registry mutates at runtime; live sessions keep their snapshot *)
  let t = compile_exn [ ("a", "//a") ] in
  let doc = "<r><a/><b/></r>" in
  let events = events_of doc in
  let s1 = Query_set.start t in
  Query_set.register t "b" (Query.compile_exn "//b");
  Alcotest.(check (list string)) "names" [ "a"; "b" ] (Query_set.names t);
  List.iter (Query_set.feed s1) events;
  Alcotest.(check int)
    "s1 snapshot predates register" 1
    (List.length (Query_set.finish s1));
  let s2 = Query_set.start t in
  Alcotest.(check bool) "unregister known" true (Query_set.unregister t "a");
  Alcotest.(check bool) "unregister unknown" false (Query_set.unregister t "a");
  List.iter (Query_set.feed s2) events;
  (match Query_set.finish s2 with
  | [ a; b ] ->
    Alcotest.(check (list item)) "a" [ it 2 "a" 2 ] a.items;
    Alcotest.(check (list item)) "b" [ it 3 "b" 2 ] b.items
  | _ -> Alcotest.fail "s2 keeps its two-query snapshot");
  let s3 = Query_set.start t in
  List.iter (Query_set.feed s3) events;
  match Query_set.finish s3 with
  | [ b ] -> Alcotest.(check string) "only b left" "b" b.query_name
  | _ -> Alcotest.fail "s3 sees the shrunk registry"

let test_add_run_mid_document () =
  (* ids: r=1 x=2 b=3 y=4 b=5 b=6 *)
  let doc = "<r><x><b/></x><y><b/><b/></y></r>" in
  let events = events_of doc in
  let check_mode dispatch =
    let t = compile_exn [ ("x", "//x") ] in
    let s = Query_set.start ~dispatch t in
    (* feed through </x> (events: start r, start x, start b, end b, end x) *)
    let prefix, rest =
      (List.filteri (fun i _ -> i < 5) events,
       List.filteri (fun i _ -> i >= 5) events)
    in
    List.iter (Query_set.feed s) prefix;
    (* a late subscription: sees elements from here on, with original ids *)
    Query_set.add_run s "late-b" (Query.compile_exn "//b");
    (* and one matching an open ancestor: the replayed chain must emit r *)
    Query_set.add_run s "late-r" (Query.compile_exn "//r");
    List.iter (Query_set.feed s) rest;
    (match Query_set.finish s with
    | [ x; late_b; late_r ] ->
      Alcotest.(check (list item)) "x" [ it 2 "x" 2 ] x.items;
      Alcotest.(check (list item))
        "late-b: only starts not yet seen"
        [ it 5 "b" 3; it 6 "b" 3 ]
        late_b.items;
      Alcotest.(check (list item))
        "late-r: open ancestor replayed"
        [ it 1 "r" 1 ]
        late_r.items
    | _ -> Alcotest.fail "three outcomes expected");
    (* duplicate live names are refused *)
    let s2 = Query_set.start ~dispatch t in
    Alcotest.check_raises "duplicate name"
      (Invalid_argument "Query_set.add_run: duplicate name x") (fun () ->
        Query_set.add_run s2 "x" (Query.compile_exn "//b"))
  in
  check_mode Query_set.Shared;
  check_mode Query_set.Naive

let test_remove_run_mid_document () =
  let doc = "<r><a/><a/><a/></r>" in
  let events = events_of doc in
  let check_mode dispatch =
    let t = compile_exn [ ("keep", "//r"); ("gone", "//a") ] in
    let s = Query_set.start ~dispatch t in
    let prefix, rest =
      (List.filteri (fun i _ -> i < 3) events,
       List.filteri (fun i _ -> i >= 3) events)
    in
    List.iter (Query_set.feed s) prefix;
    Alcotest.(check bool) "removed" true (Query_set.remove_run s "gone");
    Alcotest.(check bool) "already gone" false (Query_set.remove_run s "gone");
    List.iter (Query_set.feed s) rest;
    match Query_set.finish s with
    | [ keep ] ->
      Alcotest.(check string) "survivor" "keep" keep.query_name;
      Alcotest.(check (list item)) "survivor items" [ it 1 "r" 1 ] keep.items
    | _ -> Alcotest.fail "removed run must not appear in outcomes"
  in
  check_mode Query_set.Shared;
  check_mode Query_set.Naive

let test_registration_interleaved_with_streaming () =
  (* the satellite scenario: registration churn while documents stream,
     differential between dispatch modes at every step *)
  let rng = Prng.create 0xadd in
  let queries =
    [| "//a"; "//b"; "//a/b"; "//b/ancestor::a"; "//*"; "//a[b]" |]
  in
  let docs =
    [| "<r><a><b/></a><b/></r>"; "<r><b><a/></b><a><b/><b/></a></r>";
       "<a><b/><a><b/></a></a>" |]
  in
  let t = compile_exn [ ("q0", "//a") ] in
  let next = ref 1 in
  for step = 1 to 20 do
    (if Prng.bool rng then begin
       let name = Printf.sprintf "q%d" !next in
       incr next;
       Query_set.register t name (Query.compile_exn (Prng.pick rng queries))
     end
     else
       match Query_set.names t with
       | name :: _ when Query_set.size t > 1 ->
         ignore (Query_set.unregister t name)
       | _ -> ());
    let doc = docs.(step mod Array.length docs) in
    ignore (run_both t (events_of doc))
  done

(* ------------------------------------------------------------------ *)
(* Symbol.reset lifecycle (PR 6): long-lived registries must survive   *)
(* interning resets between documents                                  *)
(* ------------------------------------------------------------------ *)

let test_symbol_reset_between_documents () =
  let t =
    compile_exn
      [ ("q", "//person/name"); ("anc", "//name/ancestor::person");
        ("wild", "//*") ]
  in
  let doc =
    "<people><person><name>a</name></person><person><name>b</name>\
     </person></people>"
  in
  let expected =
    List.map outcome_str (Query_set.run_string ~dispatch:Shared t doc)
  in
  for round = 1 to 6 do
    Xaos_xml.Symbol.reset ();
    (* shift the fresh generation's symbol ids so a stale compiled-in id
       would resolve to the wrong tag, not just a missing one *)
    for i = 1 to round * 3 do
      ignore (Xaos_xml.Symbol.intern (Printf.sprintf "noise%d" i))
    done;
    List.iter
      (fun dispatch ->
        Alcotest.(check (list string))
          (Printf.sprintf "round %d" round)
          expected
          (List.map outcome_str (Query_set.run_string ~dispatch t doc)))
      [ Query_set.Shared; Query_set.Naive ]
  done

(* ------------------------------------------------------------------ *)
(* Budget_exceeded partial results (PR 6)                              *)
(* ------------------------------------------------------------------ *)

let test_budget_partial_results_reported () =
  (* the aborted run's items must be exactly what a lone Query.run with
     the same budget reports via finish_partial; the other run must be
     byte-identical to its unbudgeted result *)
  (* the budget caps retained (non-refuted) structures, so the light
     query must match few elements to stay under it while the heavy one
     blows past: 80 a's against 3 c's *)
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "<r>";
  for _ = 1 to 80 do
    Buffer.add_string buf "<a/>"
  done;
  for _ = 1 to 3 do
    Buffer.add_string buf "<c/>"
  done;
  Buffer.add_string buf "</r>";
  let doc = Buffer.contents buf in
  let events = events_of doc in
  let budget = 30 in
  (* oracle: the heavy query alone, same budget *)
  let heavy_q = Query.compile_exn "//a" in
  let oracle =
    let run = Query.start ~budget heavy_q in
    try
      List.iter (Query.feed run) events;
      Alcotest.fail "oracle run should trip its budget"
    with Engine.Budget_exceeded _ -> (Query.finish_partial run).items
  in
  Alcotest.(check bool) "oracle nonempty" true (oracle <> []);
  let light_full =
    match Query_set.run_events (compile_exn [ ("light", "//c") ]) events with
    | [ o ] -> o.items
    | _ -> assert false
  in
  let t = compile_exn [ ("heavy", "//a"); ("light", "//c") ] in
  List.iter
    (fun dispatch ->
      match Query_set.run_events ~budget ~dispatch t events with
      | [ heavy; light ] ->
        Alcotest.(check bool) "heavy aborted" true heavy.aborted;
        Alcotest.(check bool) "heavy not failed" true (heavy.failed = None);
        Alcotest.(check (list item))
          "heavy partial = lone-run oracle" oracle heavy.items;
        Alcotest.(check bool) "light untouched flag" false light.aborted;
        Alcotest.(check (list item))
          "light untouched items" light_full light.items
      | _ -> Alcotest.fail "two outcomes expected")
    [ Query_set.Shared; Query_set.Naive ]

let test_fixed_differential_cases () =
  let doc =
    "<site><people><person><name>alice</name><age>30</age></person>\
     <person><name>bob</name></person></people>\
     <items><item><name>rock</name></item></items></site>"
  in
  let events = events_of doc in
  let sets =
    [
      [ ("q1", "//person/name"); ("q2", "//item//name"); ("q3", "/site/items") ];
      [ ("w", "//*"); ("deep", "//person/*"); ("none", "//missing") ];
      [
        ("anc", "//name/ancestor::person");
        ("par", "//name/parent::item");
        ("pred", "//person[age]");
      ];
      [
        ("text", "//name[text()='bob']");
        ("contains", "//name[contains(text(),'oc')]");
        ("attr", "//person[@id]");
      ];
    ]
  in
  List.iter
    (fun pairs ->
      let reference = run_both (compile_exn pairs) events in
      check_earliest ~partial:false "fixed" pairs events reference)
    sets

let test_partial_differential () =
  (* truncated streams: feed a prefix, finish_partial, compare modes *)
  let doc =
    "<site><a><b><c/></b><b/></a><a><b><d/><c/></b></a><e><b/></e></site>"
  in
  let events = events_of doc in
  let pairs = [ ("q1", "//a//c"); ("q2", "//b/ancestor::a"); ("q3", "//e") ] in
  let t = compile_exn pairs in
  let n = List.length events in
  List.iter
    (fun k ->
      let prefix = List.filteri (fun i _ -> i < k) events in
      let run dispatch =
        let s = Query_set.start ~dispatch t in
        List.iter (Query_set.feed s) prefix;
        Query_set.finish_partial s
      in
      let reference = run Query_set.Naive in
      check_outcomes
        (Printf.sprintf "partial at %d" k)
        reference (run Query_set.Shared);
      (* earliest + finish_partial: items certain at the truncation point
         come through on_item and agree with the partial outcomes *)
      check_earliest ~partial:true
        (Printf.sprintf "partial at %d" k)
        pairs prefix reference)
    [ n / 4; n / 2; (3 * n) / 4; n ]

let test_randomized_differential () =
  (* randomized query sets over Randgen documents; also replays each
     document through lenient parses of mutated bytes (PR-1 fuzz
     generators) so recovery streams hit the index too *)
  let rng = Prng.create 0x5e7 in
  for seed = 1 to 8 do
    let specs =
      List.init 3 (fun i ->
          Randgen.generate_spec ~size:4 ~seed:((seed * 13) + i) ())
    in
    let pairs =
      ("wild", "//*")
      :: List.mapi
           (fun i spec ->
             (Printf.sprintf "q%d" i, Ast.to_string spec.Randgen.query))
           specs
    in
    let t = compile_exn pairs in
    let doc =
      Randgen.document_string (List.hd specs) ~seed:(seed * 31) ~elements:150
    in
    let reference = run_both t (events_of doc) in
    check_earliest ~partial:false
      (Printf.sprintf "clean seed %d" seed)
      pairs (events_of doc) reference;
    (* mutated + lenient-recovered variant *)
    let mutated = Test_fuzz.mutate rng doc in
    match Sax.events_of_string ~mode:Sax.Lenient mutated with
    | events ->
      let reference = run_both t events in
      check_earliest ~partial:false
        (Printf.sprintf "mutated seed %d" seed)
        pairs events reference
    | exception Sax.Limit_exceeded _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* Query-set compaction (PR 10)                                        *)
(* ------------------------------------------------------------------ *)

let test_class_key_equivalence () =
  let key s = Query.class_key (Query.compile_exn s) in
  Alcotest.(check string) "same text same class" (key "//a/b") (key "//a/b");
  Alcotest.(check string)
    "disjunct order irrelevant"
    (key "//a[b or c]")
    (key "//a[c or b]");
  Alcotest.(check bool) "different query" true (key "//a" <> key "//b");
  (* the key is structural, not symbol-id based: it must survive an
     interning reset (the broker resets every N documents) *)
  let before = key "//person/name" in
  Xaos_xml.Symbol.reset ();
  ignore (Xaos_xml.Symbol.intern "shift1");
  ignore (Xaos_xml.Symbol.intern "shift2");
  Alcotest.(check string) "survives Symbol.reset" before (key "//person/name");
  (* engine configuration is part of the class: an earliest-mode copy
     of a query must not share an engine with a deferred one *)
  let earliest =
    match
      Query.compile
        ~config:{ Engine.default_config with emission = Engine.Earliest }
        "//a/b"
    with
    | Ok q -> Query.class_key q
    | Error e -> Alcotest.failf "compile: %s" e
  in
  Alcotest.(check bool) "emission mode splits classes" true
    (earliest <> key "//a/b")

let test_gate_prefix_analysis () =
  let prefixes s = Query.gate_prefixes (Query.compile_exn s) in
  let gateable s = prefixes s <> None in
  (* predicate-free forward prefixes are gateable *)
  Alcotest.(check bool) "//a/b" true (gateable "//a/b");
  Alcotest.(check bool) "/site//item" true (gateable "/site//item");
  (match prefixes "//a/b" with
  | Some [ p ] -> Alcotest.(check int) "full path is the prefix" 2 (List.length p)
  | _ -> Alcotest.fail "//a/b: one disjunct prefix expected");
  (* a predicate on the first step empties the prefix *)
  Alcotest.(check bool) "//a[b] not gateable" false (gateable "//a[b]");
  (* subtree-zone remainders are safe behind the prefix *)
  Alcotest.(check bool) "//a/b[text()='x']" true (gateable "//a/b[text()='x']");
  Alcotest.(check bool) "//a/b[@id]" true (gateable "//a/b[@id]");
  (* a pure backward remainder stays on the open ancestor chain, which
     replay re-delivers *)
  Alcotest.(check bool) "//a/ancestor::b" true (gateable "//a/ancestor::b");
  (* ...but a forward axis OUT of the up zone may target elements that
     closed before the prefix fired: unsafe, must stay ungated *)
  Alcotest.(check bool)
    "//c/ancestor::d//e not gateable" false
    (gateable "//c/ancestor::d//e");
  (* text tests on up-zone elements need string value accumulated
     before activation: unsafe *)
  Alcotest.(check bool)
    "//a/ancestor::b[text()='x'] not gateable" false
    (gateable "//a/ancestor::b[text()='x']");
  (* disjuncts gate independently behind the shared predicate-free
     prefix... *)
  (match prefixes "//p/a[b or c]" with
  | Some [ p1; p2 ] ->
    Alcotest.(check int) "disjunct 1 prefix" 1 (List.length p1);
    Alcotest.(check int) "disjunct 2 prefix" 1 (List.length p2)
  | _ -> Alcotest.fail "//p/a[b or c]: two disjunct prefixes expected");
  (* ...but one unsafe disjunct poisons the whole query *)
  Alcotest.(check bool)
    "safe-or-unsafe not gateable" false
    (gateable "//p/a[b or ancestor::d//e]")

let test_compaction_duplicates_differential () =
  (* duplicate-heavy registry: 6 subscriptions, 3 equivalence classes *)
  let pairs =
    [
      ("a1", "//a"); ("a2", "//a"); ("b", "//b"); ("a3", "//a");
      ("or1", "//a[x or b]"); ("or2", "//a[b or x]");
    ]
  in
  let t = compile_exn pairs in
  Alcotest.(check int) "class count" 3 (Query_set.class_count t);
  let events = events_of "<r><a><b/><x/></a><b/><a/></r>" in
  let naive = Query_set.run_events ~dispatch:Naive t events in
  let compacted = Query_set.run_events t events in
  check_outcomes "compacted = naive" naive compacted;
  (* the naive loop stays the uncompacted oracle: one engine per
     subscription, so nothing fans out *)
  List.iter
    (fun (o : Query_set.outcome) ->
      Alcotest.(check int) (o.query_name ^ " naive fanout") 1 o.fanout)
    naive;
  (* fan-out bookkeeping: every duplicate reports its class's sharing
     degree, singletons report 1 *)
  List.iter
    (fun (o : Query_set.outcome) ->
      let want =
        match o.query_name with
        | "a1" | "a2" | "a3" -> 3
        | "or1" | "or2" -> 2
        | _ -> 1
      in
      Alcotest.(check int) (o.query_name ^ " fanout") want o.fanout)
    compacted;
  (* session_stats exposes the compaction ratio's numerator/denominator *)
  let s = Query_set.start t in
  List.iter (Query_set.feed s) events;
  let classes, members, dormant = Query_set.session_stats s in
  Alcotest.(check int) "session classes" 3 classes;
  Alcotest.(check int) "session members" 6 members;
  Alcotest.(check int) "no gate, no dormant" 0 dormant;
  ignore (Query_set.finish s);
  (* earliest mode fans out through the same shared engines *)
  check_earliest ~partial:false "compaction" pairs events naive

(* The duplicate-heavy pub/sub shape: topic subscriptions drawn with
   repetition from a small pool, over feed documents that each cover a
   few of the topics. The compacted session, with and without the prefix
   gate, must agree with the naive loop outcome for outcome on every
   document; the set must actually compact and the stream must match. *)
let test_compaction_sweep_differential () =
  let topic rng = Printf.sprintf "topic%02d" (Prng.int rng 40) in
  let pool_rng = Prng.create 47 in
  let pool =
    Array.init 25 (fun _ ->
        let t = topic pool_rng in
        match Prng.int pool_rng 3 with
        | 0 -> Printf.sprintf "//%s/item" t
        | 1 -> Printf.sprintf "/feed/channel/%s//name" t
        | _ -> Printf.sprintf "//%s//name" t)
  in
  let pick_rng = Prng.create 53 in
  let t =
    compile_exn
      (List.init 300 (fun i ->
           (string_of_int i, pool.(Prng.int pick_rng (Array.length pool)))))
  in
  Alcotest.(check bool) "duplicates fold into classes" true
    (Query_set.class_count t <= Array.length pool);
  let doc_rng = Prng.create 501 in
  let document () =
    let topics =
      List.init 10 (fun _ ->
          let t = topic doc_rng in
          Printf.sprintf "<%s>%s</%s>" t
            (String.concat ""
               (List.init 8 (Printf.sprintf "<item><name>n%d</name></item>")))
            t)
    in
    "<feed><channel>" ^ String.concat "" topics ^ "</channel></feed>"
  in
  let matched = ref 0 in
  for _ = 1 to 6 do
    let events = events_of (document ()) in
    let naive = Query_set.run_events ~dispatch:Naive t events in
    check_outcomes "compacted = naive" naive (Query_set.run_events t events);
    check_outcomes "gated = naive" naive
      (Query_set.run_events ~gate:true t events);
    matched := !matched + List.length (Query_set.matching_names naive)
  done;
  Alcotest.(check bool) "the stream matches" true (!matched > 0)

let test_shared_class_remove_run_mid_document () =
  (* the satellite-2 regression: two subscribers share one class engine;
     removing one mid-document must not tear the engine down under the
     survivor *)
  let doc = "<r><a/><a/><a/></r>" in
  let events = events_of doc in
  let t = compile_exn [ ("keep", "//a"); ("drop", "//a") ] in
  Alcotest.(check int) "one shared class" 1 (Query_set.class_count t);
  let solo =
    match Query_set.run_events (compile_exn [ ("keep", "//a") ]) events with
    | [ o ] -> o.items
    | _ -> assert false
  in
  let s = Query_set.start t in
  let prefix, rest =
    (List.filteri (fun i _ -> i < 3) events,
     List.filteri (fun i _ -> i >= 3) events)
  in
  List.iter (Query_set.feed s) prefix;
  Alcotest.(check bool) "removed" true (Query_set.remove_run s "drop");
  List.iter (Query_set.feed s) rest;
  (match Query_set.finish s with
  | [ keep ] ->
    Alcotest.(check string) "survivor" "keep" keep.query_name;
    Alcotest.(check (list item)) "survivor sees the whole document" solo
      keep.items;
    Alcotest.(check int) "fanout back to 1" 1 keep.fanout
  | _ -> Alcotest.fail "exactly the survivor expected");
  (* removing the LAST member must still abort the engine (dispatch
     buckets drained), and a same-document re-add starts fresh *)
  let s2 = Query_set.start t in
  List.iter (Query_set.feed s2) prefix;
  Alcotest.(check bool) "first out" true (Query_set.remove_run s2 "keep");
  Alcotest.(check bool) "last out" true (Query_set.remove_run s2 "drop");
  List.iter (Query_set.feed s2) rest;
  Alcotest.(check (list string)) "all detached" []
    (List.map (fun (o : Query_set.outcome) -> o.query_name)
       (Query_set.finish s2))

let test_gate_differential () =
  (* the prefix gate must be invisible in results on every pattern mix,
     including the unsafe shapes it refuses to gate *)
  let docs =
    [
      "<r><b/><a><b/></a><b/></r>";
      (* e closes before c opens: the //c/ancestor::d//e trap document *)
      "<d><e/><f><c/></f></d>";
      "<site><people><person><name>x</name></person></people></site>";
      "<r><x><y><a><b/></a></y></x><a/></r>";
    ]
  in
  let pairs =
    [
      ("fwd", "//a/b"); ("deep", "//x//b"); ("trap", "//c/ancestor::d//e");
      ("anc", "//b/ancestor::a"); ("text", "//person/name[text()='x']");
      ("wild", "//*"); ("dup", "//a/b");
    ]
  in
  let t = compile_exn pairs in
  List.iter
    (fun doc ->
      let events = events_of doc in
      let naive = Query_set.run_events ~dispatch:Naive t events in
      check_outcomes ("gated = naive: " ^ doc) naive
        (Query_set.run_events ~gate:true t events);
      check_earliest ~gate:true ~partial:false ("gated earliest: " ^ doc)
        pairs events naive)
    docs;
  (* the trap query must genuinely match on the trap document — proving
     the gate would lose results if it gated it *)
  let trap_outcomes =
    Query_set.run_events ~dispatch:Naive t (events_of (List.nth docs 1))
  in
  let trap = List.find (fun (o : Query_set.outcome) -> o.query_name = "trap")
      trap_outcomes in
  Alcotest.(check bool) "trap query matches its document" true
    (trap.items <> [])

(* qcheck: earliest-vs-deferred over random query sets × chaos-faulted
   documents. Each seed draws three Randgen queries (backward axes and
   predicates included), builds a document, pushes it through a
   byte-level chaos fault and a lenient re-parse, and requires the
   earliest-mode outcomes — and every run's on_item stream — to agree
   with the deferred oracle. *)
let qcheck_earliest_chaos =
  QCheck.Test.make ~name:"qcheck: earliest = deferred under chaos faults"
    ~count:40
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 1_000_000))
    (fun seed ->
      let specs =
        List.init 3 (fun i ->
            Randgen.generate_spec ~size:4 ~seed:(seed + (i * 7919)) ())
      in
      let pairs =
        ("wild", "//*")
        :: List.mapi
             (fun i spec ->
               (Printf.sprintf "q%d" i, Ast.to_string spec.Randgen.query))
             specs
      in
      let t = compile_exn pairs in
      let doc =
        Randgen.document_string (List.hd specs) ~seed:(seed * 31)
          ~elements:120
      in
      let p = Xaos_xml.Chaos.plan ~seed ~rate:0.8 0 in
      let corrupted = Xaos_xml.Chaos.corrupt p doc in
      (match Sax.events_of_string ~mode:Sax.Lenient corrupted with
      | exception Sax.Limit_exceeded _ -> ()
      | events ->
        let reference = run_both t events in
        check_earliest ~partial:false
          (Printf.sprintf "chaos seed %d" seed)
          pairs events reference);
      true)

(* qcheck: compacted (and gated) engines vs independent ones. Each seed
   draws a few Randgen queries, then deliberately builds a duplicate- and
   shared-prefix-heavy subscription set from them (literal duplicates,
   reordered disjunctions, //-prefixed variants of the same steps), pushes
   a chaos-faulted document through, and requires the compacted session —
   with and without the prefix gate, in deferred and earliest modes — to
   agree with the uncompacted naive oracle outcome for outcome. *)
let qcheck_compaction_chaos =
  QCheck.Test.make
    ~name:"qcheck: compacted+gated = independent engines under chaos"
    ~count:30
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 1_000_000))
    (fun seed ->
      let specs =
        List.init 3 (fun i ->
            Randgen.generate_spec ~size:4 ~seed:(seed + (i * 104729)) ())
      in
      let base =
        List.map (fun spec -> Ast.to_string spec.Randgen.query) specs
      in
      let pairs =
        List.concat
          (List.mapi
             (fun i q ->
               [
                 (Printf.sprintf "q%d" i, q);
                 (* literal duplicate: same class, distinct subscriber *)
                 (Printf.sprintf "q%d-dup" i, q);
                 (* reordered disjunction: same class by sorted keys *)
                 (Printf.sprintf "q%d-or" i,
                  Printf.sprintf "%s[@k1 or @k2]" q);
                 (Printf.sprintf "q%d-ro" i,
                  Printf.sprintf "%s[@k2 or @k1]" q);
               ])
             base)
        @ [ ("wild", "//*"); ("wild-dup", "//*") ]
      in
      let t = compile_exn pairs in
      (* the construction guarantees sharing: at most one class per base
         query + one for the or-variants + one for //* *)
      Alcotest.(check bool)
        "sets actually compact" true
        (Query_set.class_count t < List.length pairs);
      let doc =
        Randgen.document_string (List.hd specs) ~seed:(seed * 37)
          ~elements:100
      in
      let p = Xaos_xml.Chaos.plan ~seed ~rate:0.7 0 in
      (match Sax.events_of_string ~mode:Sax.Lenient
               (Xaos_xml.Chaos.corrupt p doc) with
      | exception Sax.Limit_exceeded _ -> ()
      | events ->
        let naive = Query_set.run_events ~dispatch:Naive t events in
        check_outcomes "compacted = naive" naive
          (Query_set.run_events t events);
        check_outcomes "gated = naive" naive
          (Query_set.run_events ~gate:true t events);
        check_earliest ~partial:false
          (Printf.sprintf "compacted earliest seed %d" seed)
          pairs events naive;
        check_earliest ~gate:true ~partial:false
          (Printf.sprintf "gated earliest seed %d" seed)
          pairs events naive);
      true)

let suite =
  [
    Alcotest.test_case "item equal is id-based" `Quick
      test_item_equal_is_id_based;
    Alcotest.test_case "union dedup regression" `Quick
      test_union_dedup_regression;
    Alcotest.test_case "union tuples monomorphic" `Quick
      test_union_tuples_monomorphic;
    Alcotest.test_case "compile errors accumulate" `Quick
      test_compile_errors_accumulate;
    Alcotest.test_case "looking-for update path" `Quick
      test_looking_for_update_path;
    Alcotest.test_case "wildcard bucket" `Quick test_wildcard_bucket;
    Alcotest.test_case "engine interest transitions" `Quick
      test_engine_interest_transitions;
    Alcotest.test_case "budget abort isolation" `Quick
      test_budget_abort_isolation;
    Alcotest.test_case "register between documents" `Quick
      test_register_between_documents;
    Alcotest.test_case "add_run mid-document" `Quick test_add_run_mid_document;
    Alcotest.test_case "remove_run mid-document" `Quick
      test_remove_run_mid_document;
    Alcotest.test_case "registration interleaved with streaming" `Quick
      test_registration_interleaved_with_streaming;
    Alcotest.test_case "symbol reset between documents" `Quick
      test_symbol_reset_between_documents;
    Alcotest.test_case "budget partial results reported" `Quick
      test_budget_partial_results_reported;
    Alcotest.test_case "class key equivalence" `Quick
      test_class_key_equivalence;
    Alcotest.test_case "gate prefix analysis" `Quick test_gate_prefix_analysis;
    Alcotest.test_case "compaction duplicates differential" `Quick
      test_compaction_duplicates_differential;
    Alcotest.test_case "compaction sweep differential" `Quick
      test_compaction_sweep_differential;
    Alcotest.test_case "shared class remove_run mid-document" `Quick
      test_shared_class_remove_run_mid_document;
    Alcotest.test_case "gate differential" `Quick test_gate_differential;
    Alcotest.test_case "fixed differential cases" `Quick
      test_fixed_differential_cases;
    Alcotest.test_case "partial differential" `Quick test_partial_differential;
    Alcotest.test_case "randomized differential" `Slow
      test_randomized_differential;
    QCheck_alcotest.to_alcotest qcheck_earliest_chaos;
    QCheck_alcotest.to_alcotest qcheck_compaction_chaos;
  ]
