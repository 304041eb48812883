(* Shared benchmark plumbing: wall-clock timing, memory probes, run
   statistics, fixed-width table rendering — and, since the telemetry
   layer landed, report accumulation: everything printed as a table or
   recorded as a scalar also lands in a versioned JSON run report
   ({!default_report} unless a subcommand names another) via
   {!write_report}. *)

module Report = Xaos_obs.Report
module Json = Xaos_obs.Json

let time f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let mean samples =
  match samples with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. samples /. float_of_int (List.length samples)

let stddev samples =
  match samples with
  | [] | [ _ ] -> 0.
  | _ ->
    let m = mean samples in
    let var =
      List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. samples
      /. float_of_int (List.length samples - 1)
    in
    sqrt var

(* Live heap bytes after a full collection. *)
let live_bytes () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)

(* Run [f] while sampling the major-heap size at the end of every major
   collection cycle; returns (result, peak heap bytes seen). This is what
   "memory use" means for a streaming engine: retention between
   collections, not final live data. The probe itself lives in the
   telemetry layer (which reports words); benches keep talking bytes. *)
let with_peak_heap f =
  let result, peak_words = Xaos_obs.Telemetry.with_peak_heap f in
  (result, peak_words * (Sys.word_size / 8))

let mb bytes = float_of_int bytes /. 1048576.

(* ------------------------------------------------------------------ *)
(* Report accumulation                                                 *)
(* ------------------------------------------------------------------ *)

(* Tables and scalars accumulate here as the experiments print them; a
   single [write_report] at the end of the run emits them through the
   same schema the CLI's [--report] uses. *)

let section = ref "bench"
let tables : Report.table list ref = ref []
let scalars : (string * float) list ref = ref []
(* git-ignored, so a bench run never rewrites a tracked file *)
let default_report = "bench-report.json"

let report_path = ref default_report

let set_report_path path = report_path := path

let record name value = scalars := (name, value) :: !scalars

let write_report () =
  let config =
    [
      ("argv", Json.List (Array.to_list (Array.map (fun s -> Json.String s) Sys.argv)));
      ("word_size", Json.Int Sys.word_size);
      ("ocaml_version", Json.String Sys.ocaml_version);
    ]
  in
  let report =
    Report.make ~kind:"bench" ~config
      ~stats:(List.rev !scalars) ~tables:(List.rev !tables)
      ~gc:(Report.gc_now ()) ()
  in
  Report.write !report_path report;
  Printf.printf "\nreport: %s\n" !report_path

(* ------------------------------------------------------------------ *)
(* Table rendering                                                     *)
(* ------------------------------------------------------------------ *)

let print_header title =
  section := title;
  Printf.printf "\n=== %s ===\n" title

let print_table ~columns rows =
  tables := { Report.title = !section; columns; rows } :: !tables;
  let widths =
    List.mapi
      (fun i col ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          (String.length col) rows)
      columns
  in
  let print_row cells =
    List.iteri
      (fun i cell -> Printf.printf "%-*s  " (List.nth widths i) cell)
      cells;
    print_newline ()
  in
  print_row columns;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let fsec t = Printf.sprintf "%.3f" t

let fsec_pm m s = Printf.sprintf "%.3f ± %.3f" m s

let fpct x = Printf.sprintf "%.2f%%" (100. *. x)

let fint n =
  (* thousands separators for readability *)
  let s = string_of_int n in
  let len = String.length s in
  let buf = Buffer.create (len + (len / 3)) in
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let note fmt = Printf.printf ("  note: " ^^ fmt ^^ "\n")
