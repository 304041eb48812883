(* The update path is deliberately branch-and-store only: [on] is the
   single sink flag every operation checks before touching its cell. *)

let on = ref false

let clock = ref Unix.gettimeofday

let now () = !clock ()

let set_clock f = clock := f

let enable () = on := true

let disable () = on := false

let enabled () = !on

(* ------------------------------------------------------------------ *)
(* Metric cells                                                        *)
(* ------------------------------------------------------------------ *)

type counter = { c_name : string; c_help : string; mutable c_value : int }

(* Float-backed so ratio gauges (e.g. queryset compaction) expose real
   values; the int API truncates on read. *)
type gauge = {
  g_name : string;
  g_help : string;
  mutable g_value : float;
  mutable g_max : float;
}

type span = {
  sp_name : string;
  sp_help : string;
  mutable sp_count : int;
  mutable sp_total : float;
  mutable sp_min : float;
  mutable sp_max : float;
  mutable sp_t0 : float;  (* negative = no open occurrence *)
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Span of span

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

(* registration order, for stable exposition and reports *)
let order : metric list ref = ref []

let register name m =
  Hashtbl.add registry name m;
  order := m :: !order;
  m

let find_or_register name make expect =
  match Hashtbl.find_opt registry name with
  | Some m -> (
    match expect m with
    | Some cell -> cell
    | None -> invalid_arg ("Telemetry: metric kind mismatch for " ^ name))
  | None -> (
    match expect (register name (make ())) with
    | Some cell -> cell
    | None -> assert false)

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let counter ?(help = "") name =
  find_or_register name
    (fun () -> Counter { c_name = name; c_help = help; c_value = 0 })
    (function Counter c -> Some c | _ -> None)

let incr c = if !on then c.c_value <- c.c_value + 1

let add c n = if !on then c.c_value <- c.c_value + n

let counter_value c = c.c_value

(* ------------------------------------------------------------------ *)
(* Gauges                                                              *)
(* ------------------------------------------------------------------ *)

let gauge ?(help = "") name =
  find_or_register name
    (fun () -> Gauge { g_name = name; g_help = help; g_value = 0.; g_max = 0. })
    (function Gauge g -> Some g | _ -> None)

let set_gauge_float g v =
  if !on then begin
    g.g_value <- v;
    if v > g.g_max then g.g_max <- v
  end

let set_gauge g v = set_gauge_float g (float_of_int v)

let gauge_value g = int_of_float g.g_value

let gauge_max g = int_of_float g.g_max

let gauge_value_float g = g.g_value

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let span ?(help = "") name =
  find_or_register name
    (fun () ->
      Span
        {
          sp_name = name;
          sp_help = help;
          sp_count = 0;
          sp_total = 0.;
          sp_min = infinity;
          sp_max = neg_infinity;
          sp_t0 = -1.;
        })
    (function Span s -> Some s | _ -> None)

let enter s = if !on then s.sp_t0 <- !clock ()

let leave s =
  if !on && s.sp_t0 >= 0. then begin
    let d = !clock () -. s.sp_t0 in
    let d = if d < 0. then 0. else d in
    s.sp_t0 <- -1.;
    s.sp_count <- s.sp_count + 1;
    s.sp_total <- s.sp_total +. d;
    if d < s.sp_min then s.sp_min <- d;
    if d > s.sp_max then s.sp_max <- d
  end

let time s f =
  enter s;
  match f () with
  | result ->
    leave s;
    result
  | exception e ->
    leave s;
    raise e

type span_summary = {
  span_name : string;
  count : int;
  total_s : float;
  min_s : float;
  max_s : float;
}

let span_summary s =
  {
    span_name = s.sp_name;
    count = s.sp_count;
    total_s = s.sp_total;
    min_s = (if s.sp_count = 0 then 0. else s.sp_min);
    max_s = (if s.sp_count = 0 then 0. else s.sp_max);
  }

(* ------------------------------------------------------------------ *)
(* Registry-wide operations                                            *)
(* ------------------------------------------------------------------ *)

let reset () =
  List.iter
    (function
      | Counter c -> c.c_value <- 0
      | Gauge g ->
        g.g_value <- 0.;
        g.g_max <- 0.
      | Span s ->
        s.sp_count <- 0;
        s.sp_total <- 0.;
        s.sp_min <- infinity;
        s.sp_max <- neg_infinity;
        s.sp_t0 <- -1.)
    !order

let in_order () = List.rev !order

let counters () =
  List.filter_map
    (function
      | Counter c when c.c_value <> 0 -> Some (c.c_name, c.c_value)
      | _ -> None)
    (in_order ())

let gauges () =
  List.filter_map
    (function
      | Gauge g when g.g_value <> 0. || g.g_max <> 0. ->
        Some (g.g_name, int_of_float g.g_value)
      | _ -> None)
    (in_order ())

let span_summaries () =
  List.filter_map
    (function
      | Span s when s.sp_count > 0 -> Some (span_summary s)
      | _ -> None)
    (in_order ())

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)
(* ------------------------------------------------------------------ *)

let preamble buf name help kind =
  if help <> "" then begin
    Buffer.add_string buf "# HELP ";
    Buffer.add_string buf name;
    Buffer.add_char buf ' ';
    Buffer.add_string buf help;
    Buffer.add_char buf '\n'
  end;
  Buffer.add_string buf "# TYPE ";
  Buffer.add_string buf name;
  Buffer.add_char buf ' ';
  Buffer.add_string buf kind;
  Buffer.add_char buf '\n'

let sample buf name value =
  Buffer.add_string buf name;
  Buffer.add_char buf ' ';
  Buffer.add_string buf value;
  Buffer.add_char buf '\n'

let fnum x =
  if Float.is_integer x && Float.abs x < 1e15 then
    string_of_int (int_of_float x)
  else Printf.sprintf "%.9g" x

(* Cell names are free-form stat-convention strings (the GC gauges are
   [gc/minor_collections] and so on); the text format only allows
   [[a-zA-Z0-9_:]], so names are mapped at this emit boundary. Mirrors
   {!Expose.sanitize_name} — which lives downstream of this module and
   cannot be called from here. *)
let prom_name name =
  if name = "" then "_"
  else begin
    let mapped =
      String.map
        (fun c ->
          match c with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
          | _ -> '_')
        name
    in
    match mapped.[0] with '0' .. '9' -> "_" ^ mapped | _ -> mapped
  end

let expose buf =
  List.iter
    (function
      | Counter c ->
        let n = prom_name c.c_name in
        preamble buf n c.c_help "counter";
        sample buf n (string_of_int c.c_value)
      | Gauge g ->
        let n = prom_name g.g_name in
        preamble buf n g.g_help "gauge";
        sample buf n (fnum g.g_value);
        sample buf (n ^ "_max") (fnum g.g_max)
      | Span s ->
        let n = prom_name s.sp_name in
        preamble buf n s.sp_help "summary";
        sample buf (n ^ "_count") (string_of_int s.sp_count);
        sample buf (n ^ "_sum") (fnum s.sp_total))
    (in_order ())

(* ------------------------------------------------------------------ *)
(* GC probes                                                           *)
(* ------------------------------------------------------------------ *)

(* GC gauges, sampled by the broker once per document: the direct
   measure for the arena-pooling roadmap item. Registered eagerly so
   they appear in the exposition (at zero) even before the first
   sample. *)
let gc_minor_collections =
  gauge ~help:"OCaml GC minor collections (Gc.quick_stat)"
    "xaos_gc_minor_collections"

let gc_major_collections =
  gauge ~help:"OCaml GC major collections (Gc.quick_stat)"
    "xaos_gc_major_collections"

let gc_promoted_words =
  gauge ~help:"Words promoted from the minor heap (Gc.quick_stat)"
    "xaos_gc_promoted_words"

let gc_heap_words =
  gauge ~help:"Major heap size in words (Gc.quick_stat)" "xaos_gc_heap_words"

let sample_gc () =
  if !on then begin
    let s = Gc.quick_stat () in
    set_gauge gc_minor_collections s.Gc.minor_collections;
    set_gauge gc_major_collections s.Gc.major_collections;
    set_gauge gc_promoted_words (int_of_float s.Gc.promoted_words);
    set_gauge gc_heap_words s.Gc.heap_words
  end

let with_peak_heap f =
  Gc.compact ();
  let peak = ref (Gc.quick_stat ()).Gc.heap_words in
  let alarm =
    Gc.create_alarm (fun () ->
        let w = (Gc.quick_stat ()).Gc.heap_words in
        if w > !peak then peak := w)
  in
  let finish () = Gc.delete_alarm alarm in
  let result =
    try f ()
    with e ->
      finish ();
      raise e
  in
  finish ();
  let w = (Gc.quick_stat ()).Gc.heap_words in
  if w > !peak then peak := w;
  (result, !peak)
