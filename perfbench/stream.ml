(* xmark-stream: the paper's own experiment, in-process. One XMark
   document held in memory, the query list evaluated one streaming pass
   at a time (parse interleaved with feed, as Query.run_sax does). No
   query set, broker, protocol or socket is involved, so this workload is
   the no-change control for every service-side change. *)

open Xaos_core
module Sax = Xaos_xml.Sax

let compile (q, earliest) = Query.compile_exn ~config:(Gen.compile_config earliest) q

(* one streaming pass; [on_match] only for earliest queries, whose
   results are then timed as they stream out *)
let pass ?on_match q doc =
  let run = Query.start ?on_match q in
  Sax.iter (Query.feed run) (Sax.of_string doc);
  (Query.finish run, run)

let ids (rs : Result_set.t) = List.map (fun (i : Item.t) -> i.id) rs.items

type measured = {
  setup : Mono.samples;
      (** s to compile the query list, each sample the mean over a batch
          of [setup_batch] compilations: one list compiles in tens of
          microseconds, too short to time alone *)
  passes : Mono.samples;  (** ms per pass *)
  items : Mono.samples;  (** ms from pass start to each streamed result *)
  pass_marks : int list;  (** sample counts at the segment boundaries *)
  item_marks : int list;
  control : Mono.samples;
      (** ms from a control operation's scheduled time to its completion *)
  control_marks : int list;
  rates : Mono.samples;  (** passes per second, one per time segment *)
  doc_bytes : int;
  peak_heap_mb : float;
  mismatches : int;
}

let setup_batches = 21
let setup_batch = 200
let segments = 5

(* The in-process counterpart of the wire workloads' control requests: a
   second thread compiles, registers and unregisters a query every
   [control_period] seconds while the passes run, and each operation is
   timed from its scheduled start, so the wait for the evaluating thread
   counts, as it does for a subscribe that reaches the server mid-document. *)
let control_period = 0.02

let control_thread (s : Gen.stream) samples stop =
  let set = Query_set.of_queries [] in
  let nq = Array.length s.queries in
  let next = ref (Mono.now () +. control_period) in
  let j = ref 0 in
  while not (Atomic.get stop) do
    Mono.sleep_until !next;
    let q = compile s.queries.(!j mod nq) in
    Query_set.register set "c" q;
    ignore (Query_set.unregister set "c");
    Mono.add samples ((Mono.now () -. !next) *. 1e3);
    incr j;
    next := !next +. control_period
  done

let measured (s : Gen.stream) ~seconds =
  (* collect the generator's and the oracle's garbage first, or the major
     GC sweeps it during the microsecond timings below *)
  Gc.compact ();
  let setup = Mono.samples () in
  let queries = ref [||] in
  for _ = 1 to setup_batches do
    let t0 = Mono.now () in
    for _ = 1 to setup_batch do
      queries := Array.map compile s.queries
    done;
    Mono.add setup ((Mono.now () -. t0) /. float_of_int setup_batch)
  done;
  let queries = !queries in
  let nq = Array.length queries in
  (* warm-up pass per query, not measured *)
  Array.iter (fun q -> ignore (pass q s.doc)) queries;
  Gc.compact ();
  let peak = ref (Gc.quick_stat ()).Gc.heap_words in
  let note_heap () =
    let w = (Gc.quick_stat ()).Gc.heap_words in
    if w > !peak then peak := w
  in
  let alarm = Gc.create_alarm note_heap in
  let passes = Mono.samples () and items = Mono.samples () in
  let control = Mono.samples () in
  let stop = Atomic.make false in
  let controller = Thread.create (control_thread s control) stop in
  let mismatches = ref 0 in
  let rates = Mono.samples () in
  let pass_marks = ref [ 0 ] and item_marks = ref [ 0 ] in
  let control_marks = ref [ 0 ] in
  let k = ref 0 in
  for _ = 1 to segments do
    let start = Mono.now () in
    let stop_at = start +. (seconds /. float_of_int segments) in
    let k0 = !k in
    while Mono.now () < stop_at do
      let i = !k mod nq in
      incr k;
      let t0 = Mono.now () in
      let on_match =
        if snd s.queries.(i) then
          Some (fun (_ : Item.t) -> Mono.add items ((Mono.now () -. t0) *. 1e3))
        else None
      in
      let rs, _ = pass ?on_match queries.(i) s.doc in
      Mono.add passes ((Mono.now () -. t0) *. 1e3);
      if ids rs <> s.expected_ids.(i) then incr mismatches
    done;
    Mono.add rates (float_of_int (!k - k0) /. (Mono.now () -. start));
    pass_marks := Mono.count passes :: !pass_marks;
    item_marks := Mono.count items :: !item_marks;
    control_marks := Mono.count control :: !control_marks
  done;
  Atomic.set stop true;
  Thread.join controller;
  note_heap ();
  Gc.delete_alarm alarm;
  { setup; passes; items; control; rates;
    pass_marks = List.rev !pass_marks; item_marks = List.rev !item_marks;
    control_marks = List.rev !control_marks;
    doc_bytes = String.length s.doc;
    peak_heap_mb = float_of_int (!peak * (Sys.word_size / 8)) /. 1048576.;
    mismatches = !mismatches }
