(* Figure 5: total time versus XMark document size, χαος versus the
   DOM baseline, for //listitem/ancestor::category//name.

   The paper ran scale factors 0.03125..4 (3.5 MB .. 446 MB) on a 256 MB
   Pentium III: Xalan spikes once the tree no longer fits in memory and
   fails beyond ~200 MB, while χαος stays linear. We reproduce the shape
   at laptop scale by giving the baseline an explicit heap budget (the
   256 MB machine, scaled); the baseline "fails to complete" when the
   materialized tree exceeds it. χαος streams from the file and its
   retained heap stays flat regardless of document size. *)

open Xaos_core

type row = {
  scale : float;
  size_mb : float;
  elements : int;
  xaos_time : float;
  xaos_live_mb : float;
  xaos_results : int;
  baseline : (float * float) option;  (* time, live MB; None = over budget *)
}

let default_scales = [ 0.004; 0.008; 0.016; 0.032; 0.064; 0.128; 0.256; 0.512 ]

let paper_scales = [ 0.03125; 0.0625; 0.125; 0.25; 0.5; 1.0; 2.0; 4.0 ]

let run_one ~budget_bytes scale =
  let cfg = Xaos_workloads.Xmark.config scale in
  let file = Filename.temp_file "xaos_fig5" ".xml" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let elements = Xaos_workloads.Xmark.to_file cfg file in
      let size_mb = Util.mb (Unix.stat file).Unix.st_size in
      let q = Query.compile_exn Xaos_workloads.Xmark.paper_query in
      let baseline_floor = Util.live_bytes () in
      (* χαος: single streaming pass over the file; memory is the peak
         major-heap size during the run *)
      let (result, xaos_time), xaos_peak =
        Util.with_peak_heap (fun () ->
            Util.time (fun () -> Query.run_file q file))
      in
      let xaos_results = List.length result.Result_set.items in
      (* baseline: materialize the tree, then evaluate; refuses to run
         past its memory budget, as the 256 MB machine did *)
      let baseline =
        let t0 = Unix.gettimeofday () in
        let ic = open_in_bin file in
        let build () =
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> Xaos_xml.Dom.of_sax (Xaos_xml.Sax.of_channel ic))
        in
        match build () with
        | doc ->
          let live = Util.live_bytes () - baseline_floor in
          if live > budget_bytes then None
          else begin
            let path =
              Xaos_xpath.Parser.parse Xaos_workloads.Xmark.paper_query
            in
            let _items = Xaos_baseline.Dom_engine.eval doc path in
            Some (Unix.gettimeofday () -. t0, Util.mb live)
          end
        | exception Out_of_memory -> None
      in
      {
        scale;
        size_mb;
        elements;
        xaos_time;
        xaos_live_mb = Util.mb xaos_peak;
        xaos_results;
        baseline;
      })

(* time per MB over the documents of at least 1 MB; smaller ones are
   timer-noise dominated *)
let per_mb rows =
  List.filter_map
    (fun r -> if r.size_mb >= 1.0 then Some (r.xaos_time /. r.size_mb) else None)
    rows

let spread xs = (List.fold_left min infinity xs, List.fold_left max 0. xs)

let baseline_failed rows = List.exists (fun r -> r.baseline = None) rows

let run ~scales ~budget_mb () =
  Util.print_header
    "Figure 5: time vs XMark document size (//listitem/ancestor::category//name)";
  let budget_bytes = budget_mb * 1048576 in
  Printf.printf "baseline heap budget: %d MB (models the paper's 256 MB machine)\n"
    budget_mb;
  let rows = List.map (run_one ~budget_bytes) scales in
  (* per-scale stats in the run report, for `xaos report diff` *)
  List.iter
    (fun r ->
      let stat fmt = Printf.sprintf fmt r.scale in
      Util.record (stat "fig5/%.4g/xaos_s") r.xaos_time;
      Util.record (stat "fig5/%.4g/xaos_peak_mb") r.xaos_live_mb;
      match r.baseline with
      | Some (t, _) -> Util.record (stat "fig5/%.4g/baseline_s") t
      | None -> ())
    rows;
  Util.print_table
    ~columns:
      [ "scale"; "size MB"; "elements"; "xaos s"; "xaos peak MB"; "results";
        "baseline s"; "baseline heap MB" ]
    (List.map
       (fun r ->
         [ Printf.sprintf "%.4g" r.scale;
           Printf.sprintf "%.2f" r.size_mb;
           Util.fint r.elements;
           Util.fsec r.xaos_time;
           Printf.sprintf "%.1f" r.xaos_live_mb;
           string_of_int r.xaos_results;
           (match r.baseline with
           | Some (t, _) -> Util.fsec t
           | None -> "FAIL (memory)");
           (match r.baseline with
           | Some (_, m) -> Printf.sprintf "%.1f" m
           | None -> "> budget");
         ])
       rows);
  (match per_mb rows with
  | [] -> ()
  | per_mb ->
    let lo, hi = spread per_mb in
    Util.note "xaos time per MB across scales: %.1f-%.1f ms (flat = linear)"
      (1000. *. lo) (1000. *. hi));
  Util.note "baseline failure past budget reproduced: %b"
    (baseline_failed rows);
  rows

(* The paper's two Figure 5 claims, as checks: time per MB stays flat
   (the slowest document of at least 1 MB within 2x of the fastest) and
   the baseline fails once its tree outgrows the heap budget. Returns
   the claims that no longer hold. *)
let violations rows =
  let flat =
    match per_mb rows with
    | [] -> []
    | per_mb ->
      let lo, hi = spread per_mb in
      if hi <= 2. *. lo then []
      else
        [ Printf.sprintf
            "time per MB is not flat: %.1f-%.1f ms/MB (%.2fx, bound 2x)"
            (1000. *. lo) (1000. *. hi) (hi /. lo) ]
  in
  let budget =
    if baseline_failed rows then []
    else [ "the DOM baseline completed within its heap budget at every scale" ]
  in
  flat @ budget
