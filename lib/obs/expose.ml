(* Prometheus-style text exposition of the whole observability state:
   the {!Telemetry} registry (counters, gauges, spans, its own
   histograms), every registered {!Histogram}, and — when attribution is
   on — per-subscription cost samples from {!Attrib}.

   Telemetry cells already carry Prometheus-convention names
   ([xaos_<subsystem>_<what>_total]); {!Histogram}s carry stat-convention
   names ([stage/parse]) and are mapped here: '/' becomes '_', the
   [xaos_] prefix is added, and the reported unit is appended in long
   form ([stage/parse] with unit "s" -> [xaos_stage_parse_seconds]).

   Attribution samples are the first place arbitrary user-chosen strings
   (subscription ids) reach the exposition, as label values — so names
   are sanitized and label values escaped here, at the boundary, rather
   than trusting every producer. *)

let fnum x =
  if Float.is_integer x && Float.abs x < 1e15 then
    string_of_int (int_of_float x)
  else Printf.sprintf "%.9g" x

(* Map anything outside the Prometheus metric-name alphabet to '_', and
   guard the leading character (names cannot start with a digit). *)
let sanitize_name name =
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

(* Label values may contain anything; the text format requires escaping
   backslash, double quote and newline. *)
let escape_label_value v =
  let buf = Buffer.create (String.length v + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let metric_name (h : Histogram.t) =
  let slug =
    String.map
      (fun c -> if c = '/' || c = '-' then '_' else c)
      (Histogram.name h)
  in
  let unit_suffix =
    match Histogram.unit_of h with
    | "s" -> "_seconds"
    | "" -> ""
    | u -> "_" ^ u
  in
  sanitize_name ("xaos_" ^ slug ^ unit_suffix)

let add_histogram buf h =
  let name = metric_name h in
  if Histogram.help h <> "" then
    Buffer.add_string buf ("# HELP " ^ name ^ " " ^ Histogram.help h ^ "\n");
  Buffer.add_string buf ("# TYPE " ^ name ^ " histogram\n");
  let s = Histogram.summary h in
  List.iter
    (fun (bound, cumulative) ->
      let le = if bound = infinity then "+Inf" else fnum bound in
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name le cumulative))
    s.Histogram.s_buckets;
  Buffer.add_string buf
    (Printf.sprintf "%s_sum %s\n" name (fnum s.Histogram.s_sum));
  Buffer.add_string buf
    (Printf.sprintf "%s_count %d\n" name s.Histogram.s_count)

(* One family per account measure, every account as one labeled sample:
   the subscription id travels as a label value, escaped. *)
let add_attribution buf =
  match Attrib.accounts () with
  | [] -> ()
  | accounts ->
    let family name help value =
      Buffer.add_string buf
        (Printf.sprintf "# HELP %s %s\n# TYPE %s counter\n" name help name);
      List.iter
        (fun (a : Attrib.snapshot) ->
          Buffer.add_string buf
            (Printf.sprintf "%s{sub=\"%s\"} %s\n" name
               (escape_label_value a.Attrib.sn_key)
               (value a)))
        accounts
    in
    family "xaos_attrib_match_seconds_total"
      "Match time charged to the subscription" (fun a ->
        fnum a.Attrib.sn_match_s);
    family "xaos_attrib_events_total"
      "Parse events delivered to the subscription" (fun a ->
        string_of_int a.Attrib.sn_events);
    family "xaos_attrib_emissions_total"
      "Result items emitted for the subscription" (fun a ->
        string_of_int a.Attrib.sn_emissions);
    family "xaos_attrib_faults_total"
      "Budget/deadline/engine faults charged to the subscription" (fun a ->
        string_of_int a.Attrib.sn_faults)

let render () =
  let buf = Buffer.create 8192 in
  Telemetry.expose buf;
  List.iter (add_histogram buf) (Histogram.registered ());
  if Attrib.enabled () then add_attribution buf;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Format validation                                                   *)
(* ------------------------------------------------------------------ *)

(* A structural check of the text format, strong enough for the CLI
   smoke tests and CI scrape gate: every line is a [# HELP]/[# TYPE]
   comment or a [name{labels} value] sample, names are legal, label
   values are properly quoted and escaped, values parse, and every
   family declared [histogram] ends with its [_count] sample. Not a
   full Prometheus parser. *)

let name_ok name =
  name <> ""
  && (match name.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
     | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       name

let value_ok v =
  match v with
  | "+Inf" | "-Inf" | "NaN" -> true
  | _ -> ( match float_of_string_opt v with Some _ -> true | None -> false)

(* Parse a sample line into (bare name, value), walking the optional
   label block with escape-aware scanning — a label value may contain
   spaces and escaped quotes, so splitting at the first space is not
   enough. *)
let parse_sample line =
  let n = String.length line in
  let is_name_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
    | _ -> false
  in
  let rec scan_name i = if i < n && is_name_char line.[i] then scan_name (i + 1) else i in
  let name_end = scan_name 0 in
  let name = String.sub line 0 name_end in
  if not (name_ok name) then Error "bad metric name"
  else if name_end < n && line.[name_end] = '{' then begin
    (* labels: label_name="value"(,label_name="value")* *)
    let rec labels i =
      let le = scan_name i in
      if le = i then Error "bad label name"
      else if le >= n || line.[le] <> '=' then Error "missing '=' after label"
      else if le + 1 >= n || line.[le + 1] <> '"' then
        Error "label value not quoted"
      else begin
        let rec value j =
          if j >= n then Error "unterminated label value"
          else
            match line.[j] with
            | '"' -> Ok (j + 1)
            | '\\' ->
              if j + 1 >= n then Error "dangling escape in label value"
              else (
                match line.[j + 1] with
                | '\\' | '"' | 'n' -> value (j + 2)
                | _ -> Error "bad escape in label value")
            | _ -> value (j + 1)
        in
        match value (le + 2) with
        | Error _ as e -> e
        | Ok j ->
          if j < n && line.[j] = ',' then labels (j + 1)
          else if j < n && line.[j] = '}' then Ok (j + 1)
          else Error "bad label separator"
      end
    in
    match labels (name_end + 1) with
    | Error _ as e -> e
    | Ok close ->
      if close < n && line.[close] = ' ' then
        Ok (name, String.sub line (close + 1) (n - close - 1))
      else Error "missing value after labels"
  end
  else
    match String.index_opt line ' ' with
    | Some i when i = name_end ->
      Ok (name, String.sub line (i + 1) (n - i - 1))
    | _ -> Error "missing value"

let check text =
  let err lineno msg line =
    Error (Printf.sprintf "line %d: %s: %s" lineno msg line)
  in
  let lines = String.split_on_char '\n' text in
  let histograms = Hashtbl.create 16 in (* name -> has _count sample *)
  let rec go lineno = function
    | [] -> Ok ()
    | "" :: rest -> go (lineno + 1) rest
    | line :: rest when String.length line > 0 && line.[0] = '#' -> (
      match String.split_on_char ' ' line with
      | "#" :: ("HELP" | "TYPE") :: name :: more
        when name_ok name && more <> [] ->
        if List.nth (String.split_on_char ' ' line) 1 = "TYPE" then begin
          match more with
          | [ ("counter" | "gauge" | "summary") ] -> go (lineno + 1) rest
          | [ "histogram" ] ->
            Hashtbl.replace histograms name false;
            go (lineno + 1) rest
          | _ -> err lineno "bad TYPE kind" line
        end
        else go (lineno + 1) rest
      | _ -> err lineno "malformed comment" line)
    | line :: rest -> (
      match parse_sample line with
      | Error msg -> err lineno msg line
      | Ok (bare_name, value_part) ->
        if not (value_ok (String.trim value_part)) then
          err lineno "bad sample value" line
        else begin
          let suffix = "_count" in
          let bl = String.length bare_name and sl = String.length suffix in
          if bl > sl && String.sub bare_name (bl - sl) sl = suffix then begin
            let family = String.sub bare_name 0 (bl - sl) in
            if Hashtbl.mem histograms family then
              Hashtbl.replace histograms family true
          end;
          go (lineno + 1) rest
        end)
  in
  match go 1 lines with
  | Error _ as e -> e
  | Ok () -> (
    match
      Hashtbl.fold
        (fun name seen acc -> if seen then acc else name :: acc)
        histograms []
    with
    | [] -> Ok ()
    | name :: _ ->
      Error (Printf.sprintf "histogram %s has no _count sample" name))
