(* Benchmark harness entry point. Every table and figure of the paper's
   evaluation (Section 6) has a subcommand that regenerates it, plus the
   ablations and Bechamel micro-benchmarks:

     dune exec bench/main.exe              # everything, laptop scale
     dune exec bench/main.exe -- fig5      # Figure 5 only
     dune exec bench/main.exe -- fig5 --full --budget-mb 256
     dune exec bench/main.exe -- fig6 --runs 10 --sizes 20000,640000
     dune exec bench/main.exe -- table3 ablation micro

   Absolute numbers differ from the paper's 550 MHz Pentium III; the
   shapes (linearity, who wins, failure modes) are what EXPERIMENTS.md
   records, and Figure 5's two shape claims fail the run when they no
   longer hold. Each subcommand writes its run report to the git-ignored
   bench-report.json unless --report names another file. The service's
   end-to-end numbers come from the repository benchmark,
   `python3 perfbench/run.py`. *)

open Cmdliner

let scales_of ~full scales_opt =
  match scales_opt with
  | Some scales -> scales
  | None -> if full then Fig5.paper_scales else Fig5.default_scales

(* Every subcommand accumulates its tables and scalars through Util and
   flushes them into one JSON run report at the end. *)
let reporting report f =
  Util.set_report_path report;
  let result = f () in
  Util.write_report ();
  result

(* Figure 5's shape claims are checked after the report is written, so a
   failing run still leaves its numbers behind. *)
let check_fig5 rows =
  match Fig5.violations rows with
  | [] -> ()
  | violations ->
    List.iter (Printf.eprintf "fig5: claim violated: %s\n") violations;
    exit 1

let run_fig5 report full budget_mb scales_opt =
  check_fig5
    (reporting report (fun () ->
         Fig5.run ~scales:(scales_of ~full scales_opt) ~budget_mb ()))

let run_table3 report full scales_opt =
  reporting report (fun () ->
      ignore (Table3.run ~scales:(scales_of ~full scales_opt) ()))

let run_fig67 report full runs sizes_opt =
  let sizes =
    match sizes_opt with
    | Some sizes -> sizes
    | None -> if full then Fig67.paper_sizes else Fig67.default_sizes
  in
  reporting report (fun () -> ignore (Fig67.run ~sizes ~runs ()))

let run_ablation report scale =
  reporting report (fun () -> Ablation.run ~scale ())

let filtering_counts ~full counts_opt =
  match counts_opt with
  | Some counts -> counts
  | None -> if full then [ 10; 100; 1000; 10000 ] else [ 10; 100; 1000 ]

let run_filtering report full counts_opt =
  reporting report (fun () ->
      Filtering.run
        ~subscription_counts:(filtering_counts ~full counts_opt)
        ~docs:(if full then 12 else 8) ())

let run_micro report = reporting report (fun () -> Micro.run ())

let run_relevance report full scales_opt =
  let scales =
    match scales_opt with
    | Some scales -> scales
    | None -> if full then [ 0.005; 0.01; 0.02; 0.05 ] else [ 0.005; 0.01; 0.02 ]
  in
  reporting report (fun () -> Relevance.run ~scales ())

let run_all report full =
  check_fig5
    (reporting report (fun () ->
         let fig5 = Fig5.run ~scales:(scales_of ~full None) ~budget_mb:48 () in
         ignore (Table3.run ~scales:(scales_of ~full None) ());
         let sizes = if full then Fig67.paper_sizes else Fig67.default_sizes in
         ignore (Fig67.run ~sizes ~runs:(if full then 10 else 5) ());
         Ablation.run ~scale:(if full then 0.05 else 0.02) ();
         Filtering.run
           ~subscription_counts:(filtering_counts ~full None)
           ~docs:(if full then 12 else 8) ();
         Relevance.run ();
         Micro.run ();
         fig5))

(* ---------------- cmdliner plumbing ---------------- *)

let full_t =
  let doc = "Use the paper's full parameter ranges (slow)." in
  Arg.(value & flag & info [ "full" ] ~doc)

let budget_t =
  let doc =
    "Baseline heap budget in MB, modelling the paper's 256 MB machine."
  in
  Arg.(value & opt int 48 & info [ "budget-mb" ] ~doc)

let runs_t =
  let doc = "Runs per document size (the paper used 10)." in
  Arg.(value & opt int 5 & info [ "runs" ] ~doc)

let scales_t =
  let doc = "Comma-separated XMark scale factors." in
  Arg.(
    value
    & opt (some (list ~sep:',' float)) None
    & info [ "scales" ] ~doc)

let sizes_t =
  let doc = "Comma-separated document sizes in elements." in
  Arg.(value & opt (some (list ~sep:',' int)) None & info [ "sizes" ] ~doc)

let ablation_scale_t =
  let doc = "XMark scale for the ablation document." in
  Arg.(value & opt float 0.02 & info [ "scale" ] ~doc)

let report_t =
  let doc = "Write results as a versioned JSON run report to $(docv)." in
  Arg.(
    value
    & opt string Util.default_report
    & info [ "report" ] ~docv:"FILE" ~doc)

let counts_t =
  let doc = "Comma-separated subscription-set sizes for the filtering sweep." in
  Arg.(value & opt (some (list ~sep:',' int)) None & info [ "counts" ] ~doc)

let fig5_cmd =
  Cmd.v
    (Cmd.info "fig5" ~doc:"Figure 5: time vs document size, xaos vs baseline")
    Term.(const run_fig5 $ report_t $ full_t $ budget_t $ scales_t)

let table3_cmd =
  Cmd.v
    (Cmd.info "table3" ~doc:"Table 3: elements discarded by the filter")
    Term.(const run_table3 $ report_t $ full_t $ scales_t)

let fig6_cmd =
  Cmd.v
    (Cmd.info "fig6" ~doc:"Figures 6 and 7: random expressions, overall and search time")
    Term.(const run_fig67 $ report_t $ full_t $ runs_t $ sizes_t)

let fig7_cmd =
  Cmd.v
    (Cmd.info "fig7" ~doc:"Alias of fig6 (both figures come from the same runs)")
    Term.(const run_fig67 $ report_t $ full_t $ runs_t $ sizes_t)

let ablation_cmd =
  Cmd.v
    (Cmd.info "ablation" ~doc:"Ablations: counters, relevance filter, eager emission")
    Term.(const run_ablation $ report_t $ ablation_scale_t)

let filtering_cmd =
  Cmd.v
    (Cmd.info "filtering"
       ~doc:"Extension: publish/subscribe filtering — yfilter's shared \
             automaton vs the naive per-query loop vs the shared dispatch \
             index")
    Term.(const run_filtering $ report_t $ full_t $ counts_t)

let micro_cmd =
  Cmd.v
    (Cmd.info "micro" ~doc:"Bechamel micro-benchmarks, one per table/figure kernel")
    Term.(const run_micro $ report_t)

let relevance_cmd =
  Cmd.v
    (Cmd.info "relevance"
       ~doc:"Relevance-ratio sweep: peak retained bytes over bytes seen, \
             three selectivities per workload")
    Term.(const run_relevance $ report_t $ full_t $ scales_t)

let all_cmd =
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment")
    Term.(const run_all $ report_t $ full_t)

let default_t = Term.(const run_all $ report_t $ full_t)

let () =
  let info =
    Cmd.info "xaos-bench" ~version:"1.0"
      ~doc:"Regenerates the tables and figures of the XAOS paper (ICDE 2003)"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default:default_t info
          [ fig5_cmd; table3_cmd; fig6_cmd; fig7_cmd; ablation_cmd;
            filtering_cmd; relevance_cmd; micro_cmd; all_cmd ]))
