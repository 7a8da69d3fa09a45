(* siesta — command-line front end.

   Subcommands:
     list                         catalog of workloads and platforms
     run         <workload>       execute a workload on the simulated runtime
     trace       <workload>       execute under the tracer; --dump/--report
     synth       <workload>       full pipeline; write the C proxy-app
     replay      <workload>       synthesize, replay, and score the proxy
     analyze     <workload>       communication matrix, topology, mpiP stats
     report      <workload>       markdown quality report of a full run
     extrapolate <workload>       proxy for an untraced process count
     diff        -w <workload>    proxy-vs-original fidelity report
     sweep       <workload>       fidelity-vs-factor curve over a factor schedule
     check       <workload>       static communication-correctness check
     check-trace <file>           validate a --trace-out / --timeline-out / --dump trace
     store       ls|verify|gc|rm  inspect / maintain the artifact store
     runs        ls|show|compare|gc|html
                                  browse / regress / chart the run ledger
     serve                        synthesis-as-a-service HTTP daemon
     http        METHOD PATH      script the daemon's API (smoke tests)

   Pipeline subcommands (trace, synth, report, diff, sweep, check) take
   --cache / --no-cache to memoize stage outputs in the content-addressed
   store (root: --store DIR, else SIESTA_STORE, else .siesta-store/).

   Every subcommand takes the global observability flags:
     --trace-out FILE.json        Chrome trace_event spans (chrome://tracing)
     --metrics-out FILE[.json]    metrics-registry snapshot
     -v / -vv                     info / debug structured logging to stderr *)

open Cmdliner
module Pipeline = Siesta.Pipeline
module Evaluate = Siesta.Evaluate
module Engine = Siesta_mpi.Engine
module Registry = Siesta_workloads.Registry
module Spec = Siesta_platform.Spec
module Mpi_impl = Siesta_platform.Mpi_impl
module Obs_span = Siesta_obs.Span
module Obs_metrics = Siesta_obs.Metrics
module Clock = Siesta_obs.Clock
module Obs_log = Siesta_obs.Log
module Obs_json = Siesta_obs.Json
module Timeline = Siesta_analysis.Timeline
module Timeline_html = Siesta_analysis.Timeline_html
module Critical_path = Siesta_analysis.Critical_path
module Divergence = Siesta_analysis.Divergence
module Comm_check = Siesta_analysis.Comm_check
module Store = Siesta_store.Store
module Bytes_fmt = Siesta_util.Bytes_fmt
module Run_id = Siesta_obs.Run_id
module Ledger = Siesta_ledger.Ledger
module Regression = Siesta_ledger.Regression
module Trend_html = Siesta_ledger.Trend_html
module Sweep = Siesta_sweep.Sweep
module Sweep_html = Siesta_sweep.Sweep_html

(* ------------------------------------------------------------------ *)
(* Observability flags (shared by every subcommand)                     *)

type obs = { trace_out : string option; metrics_out : string option; verbosity : int }

let obs_term =
  let trace_out_arg =
    let doc =
      "Write a Chrome trace_event JSON of pipeline and merge spans to $(docv) \
       (load it in chrome://tracing or https://ui.perfetto.dev)."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let metrics_out_arg =
    let doc =
      "Write a snapshot of the metrics registry (MPI call counters, histograms, QP \
       iterations) to $(docv); JSON when it ends in .json, aligned text otherwise."
    in
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  let verbose_arg =
    let doc = "Structured logging to stderr: once for info, twice for debug (overrides SIESTA_LOG)." in
    Arg.(value & flag_all & info [ "v"; "verbose" ] ~doc)
  in
  let make trace_out metrics_out verbose =
    { trace_out; metrics_out; verbosity = List.length verbose }
  in
  Term.(const make $ trace_out_arg $ metrics_out_arg $ verbose_arg)

(* Arm the sinks before the command body runs; drain them afterwards —
   also on exit/exception paths, so a failing run still leaves its
   telemetry behind. *)
let with_obs o f =
  (match o.verbosity with
  | 0 -> ()
  | 1 -> Obs_log.set_level Obs_log.Info
  | _ -> Obs_log.set_level Obs_log.Debug);
  if o.trace_out <> None then Obs_span.set_enabled true;
  if o.metrics_out <> None then Obs_metrics.set_enabled true;
  if Obs_metrics.enabled () then Run_id.publish ();
  Fun.protect
    ~finally:(fun () ->
      Option.iter
        (fun path ->
          Obs_span.write ~path;
          Printf.eprintf "trace: %d events -> %s (chrome://tracing / ui.perfetto.dev)\n"
            (Obs_span.event_count ()) path)
        o.trace_out;
      Option.iter
        (fun path ->
          Obs_metrics.write ~path;
          Printf.eprintf "metrics: wrote %s\n" path)
        o.metrics_out;
      Obs_log.flush ())
    f

(* ------------------------------------------------------------------ *)
(* Common arguments                                                     *)

let workload_arg =
  let doc = "Workload name (see `siesta list`)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)

let nranks_arg =
  let doc = "Number of MPI ranks to simulate." in
  Arg.(value & opt int 64 & info [ "n"; "ranks" ] ~docv:"N" ~doc)

let iters_arg =
  let doc = "Override the workload's iteration/timestep count." in
  Arg.(value & opt (some int) None & info [ "iters" ] ~docv:"I" ~doc)

let named_conv by_name name =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (by_name s)),
      fun ppf v -> Format.pp_print_string ppf (name v) )

let platform_conv = named_conv Spec.by_name (fun p -> p.Spec.name)
let impl_conv = named_conv Mpi_impl.by_name (fun i -> i.Mpi_impl.name)

let platform_arg =
  let doc = "Evaluation platform: A (Xeon cluster), B (Xeon Phi cluster) or C (single node)." in
  Arg.(value & opt platform_conv Spec.platform_a & info [ "platform" ] ~docv:"P" ~doc)

let impl_arg =
  let doc = "MPI implementation cost profile." in
  Arg.(value & opt impl_conv Mpi_impl.openmpi & info [ "impl" ] ~docv:"IMPL" ~doc)

let seed_arg =
  let doc = "Random seed (runs are deterministic per seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let factor_arg =
  let doc =
    "Scaling factor for a shrunk proxy (Section 2.7); replayed times are multiplied back."
  in
  Arg.(value & opt float 1.0 & info [ "factor" ] ~docv:"K" ~doc)

let timeline_out_arg =
  let doc =
    "Write a per-rank $(i,simulated-clock) timeline of the original run as Chrome trace_event \
     JSON to $(docv) (one track per rank; otherData.clock = \"simulated\")."
  in
  Arg.(value & opt (some string) None & info [ "timeline-out" ] ~docv:"FILE" ~doc)

let write_timeline ~path tl =
  Timeline.write tl ~path;
  Printf.eprintf "timeline: wrote %s (simulated clock, %d rank tracks)\n" path
    tl.Timeline.nranks

let timeline_html_arg =
  let doc =
    "Write a self-contained HTML rendering of the per-rank $(i,simulated-clock) timeline to \
     $(docv) — embedded JSON plus a small canvas viewer (zoom/pan/hover), shareable without \
     chrome://tracing."
  in
  Arg.(value & opt (some string) None & info [ "timeline-html" ] ~docv:"FILE" ~doc)

let write_timeline_html ~title ~path tl =
  Timeline_html.write ~title tl ~path;
  Printf.eprintf "timeline: wrote %s (self-contained HTML, %d rank tracks)\n" path
    tl.Timeline.nranks

(* Emit both timeline artifacts from one recording, only when asked. *)
let emit_timelines ~title ~timeline_out ~timeline_html record =
  match (timeline_out, timeline_html) with
  | None, None -> ()
  | _ ->
      let tl = record () in
      Option.iter (fun path -> write_timeline ~path tl) timeline_out;
      Option.iter (fun path -> write_timeline_html ~title ~path tl) timeline_html

(* ------------------------------------------------------------------ *)
(* Incremental-cache flags (pipeline subcommands)                       *)

let store_root_arg =
  let doc =
    "Artifact store root directory (default: $(b,SIESTA_STORE) when set, else .siesta-store/)."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

(* --cache / --no-cache / --store as one term: the store when caching is
   on, else [None].  Whenever a pipeline subcommand runs with the cache
   on, it appends its one run-ledger record there ([Ledger.emit store])
   before it renders or exits; metrics are force-enabled so the record's
   snapshot has content ([with_obs] then publishes the run id, tying the
   snapshot to the log/span streams). *)
let cache_term =
  let cache_arg =
    let doc =
      "Memoize pipeline stages in the content-addressed artifact store: a warm run with an \
       unchanged spec skips tracing, grammar construction and merging; changing only \
       $(b,--factor) re-runs just the proxy search.  Inspect with $(b,siesta store ls)."
    in
    Arg.(value & flag & info [ "cache" ] ~doc)
  in
  let no_cache_arg =
    let doc = "Disable stage memoization (overrides $(b,--cache))." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let make cache no_cache root =
    if cache && not no_cache then begin
      let st = Store.open_ ?root () in
      Obs_metrics.set_enabled true;
      Some st
    end
    else None
  in
  Term.(const make $ cache_arg $ no_cache_arg $ store_root_arg)

let print_cache_status (st : Pipeline.cache_status) =
  Option.iter
    (fun root ->
      Printf.printf "cache: trace %s | merge %s | proxy search %s (store %s)\n"
        (Pipeline.outcome_name st.Pipeline.cs_trace)
        (Pipeline.outcome_name st.Pipeline.cs_merge)
        (Pipeline.outcome_name st.Pipeline.cs_proxy)
        root)
    st.Pipeline.cs_root

let spec_of workload nranks iters platform impl seed =
  match
    Pipeline.spec ?iters ~platform ~impl ~seed ~workload ~nranks ()
  with
  | s -> s
  | exception Not_found ->
      Printf.eprintf "unknown workload %S; try `siesta list`\n" workload;
      exit 2
  | exception Invalid_argument m ->
      Printf.eprintf "%s\n" m;
      exit 2

(* The six spec flags as one term; [workload] is the positional WORKLOAD
   everywhere but [diff], which takes -w.  A bad workload or rank count
   exits 2 before the subcommand runs. *)
let spec_term workload =
  Term.(const spec_of $ workload $ nranks_arg $ iters_arg $ platform_arg $ impl_arg $ seed_arg)

let workload_name s = s.Pipeline.workload.Registry.name

(* --perturb tokens are validated by hand rather than with [Arg.enum] so
   an unknown token exits 2 naming itself (the same contract as a bad
   --factors schedule), instead of cmdliner's generic usage error. *)
let divergence_fault_of cmd = function
  | None -> None
  | Some "comm" -> Some `Comm
  | Some "compute" -> Some `Compute
  | Some tok ->
      Printf.eprintf "%s: unknown --perturb token %S (expected comm|compute)\n" cmd tok;
      exit 2

let check_fault_of = function
  | None -> None
  | Some tok -> (
      match Comm_check.fault_of_string tok with
      | Ok f -> Some f
      | Error msg ->
          Printf.eprintf "check: %s\n" msg;
          exit 2)

(* ------------------------------------------------------------------ *)
(* Subcommands                                                          *)

let list_cmd =
  let run obs =
    with_obs obs @@ fun () ->
    Printf.printf "Workloads:\n";
    List.iter
      (fun (w : Registry.t) ->
        Printf.printf "  %-9s %s%s (scales: %s)\n" w.Registry.name w.Registry.describe
          (if w.Registry.extension then " [extension]" else "")
          (String.concat ", " (List.map string_of_int w.Registry.procs)))
      Registry.all;
    Printf.printf "\nPlatforms:\n";
    List.iter
      (fun (p : Spec.t) ->
        Printf.printf "  %-2s %s, %d cores/node, %s\n" p.Spec.name
          p.Spec.cpu.Siesta_platform.Cpu.name p.Spec.cores_per_node
          p.Spec.network.Siesta_platform.Network.name)
      Spec.all;
    Printf.printf "\nMPI implementations: %s\n"
      (String.concat ", " (List.map (fun i -> i.Mpi_impl.name) Mpi_impl.all))
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads, platforms and MPI implementations")
    Term.(const run $ obs_term)

let run_cmd =
  let run obs s =
    with_obs obs @@ fun () ->
    let platform = s.Pipeline.platform and impl = s.Pipeline.impl in
    let res = Pipeline.run_original s ~platform ~impl in
    Printf.printf "%s on %d ranks (platform %s, %s): %.4f s, %d MPI calls\n" (workload_name s)
      s.Pipeline.nranks platform.Spec.name impl.Mpi_impl.name res.Engine.elapsed
      res.Engine.total_calls
  in
  Cmd.v (Cmd.info "run" ~doc:"Execute a workload on the simulated MPI runtime")
    Term.(const run $ obs_term $ spec_term workload_arg)

let trace_cmd =
  let dump_arg =
    let doc =
      "Save the trace to $(docv) as a framed binary trace blob with its run measurements, \
       the bytes a --cache run keeps as its trace object (validate it with `siesta \
       check-trace`, synthesize from it with `siesta synth --from`)."
    in
    Arg.(value & opt (some string) None & info [ "dump" ] ~docv:"FILE" ~doc)
  in
  let report_arg =
    let doc = "Print an mpiP-style aggregate statistics report." in
    Arg.(value & flag & info [ "report" ] ~doc)
  in
  let run obs s dump report timeline_out timeline_html store =
    with_obs obs @@ fun () ->
    let ts = Pipeline.trace_stage ~cache:(Option.is_some store) ?store s in
    Ledger.emit store (fun () -> Pipeline.trace_record ts);
    emit_timelines
      ~title:
        (Printf.sprintf "Siesta timeline — %s @ %d ranks" (workload_name s) s.Pipeline.nranks)
      ~timeline_out ~timeline_html
      (fun () -> fst (Pipeline.record_timeline s));
    let meta = ts.Pipeline.ts_meta in
    Printf.printf "%s on %d ranks: %.4f s original, %.4f s traced (overhead %.2f%%)\n"
      (workload_name s) s.Pipeline.nranks meta.Siesta_store.Codec.tm_original_elapsed
      meta.Siesta_store.Codec.tm_instrumented_elapsed
      (100.0 *. Siesta_store.Codec.meta_overhead meta);
    Printf.printf "events: %d (%s raw), computation clusters: %d\n"
      meta.Siesta_store.Codec.tm_total_events
      (Bytes_fmt.to_string meta.Siesta_store.Codec.tm_raw_bytes)
      (Siesta_trace.Compute_table.cluster_count ts.Pipeline.ts_table);
    Option.iter
      (fun st ->
        Printf.printf "cache: trace %s (store %s)\n"
          (Pipeline.outcome_name ts.Pipeline.ts_outcome)
          (Store.root st))
      store;
    if report then begin
      let t = Siesta_trace.Trace_io.of_packed ts.Pipeline.ts_trace in
      Siesta_trace.Mpip_report.print
        (Siesta_trace.Mpip_report.of_streams ~nranks:t.Siesta_trace.Trace_io.nranks
           t.Siesta_trace.Trace_io.streams)
    end;
    match dump with
    | Some path ->
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc
              (Siesta_store.Codec.encode_trace ~meta ts.Pipeline.ts_trace));
        Printf.printf "trace saved to %s\n" path
    | None -> ()
  in
  Cmd.v (Cmd.info "trace" ~doc:"Execute a workload under the PMPI tracer")
    Term.(
      const run $ obs_term $ spec_term workload_arg $ dump_arg $ report_arg $ timeline_out_arg
      $ timeline_html_arg $ cache_term)

let synth_cmd =
  let output_arg =
    let doc = "Write the generated C proxy-app to $(docv)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let from_arg =
    let doc =
      "Synthesize from a trace blob saved by `siesta trace --dump` (or a store's trace \
       object) instead of re-running the workload; --cache does not apply."
    in
    Arg.(value & opt (some string) None & info [ "from" ] ~docv:"FILE" ~doc)
  in
  let bundle_arg =
    let doc = "Write a ready-to-build bundle (proxy.c, Makefile, README) into $(docv)." in
    Arg.(value & opt (some string) None & info [ "bundle" ] ~docv:"DIR" ~doc)
  in
  let run obs s output factor from bundle store =
    with_obs obs @@ fun () ->
    let sy =
      match from with
      | Some trace_path -> (
          match
            Pipeline.synthesize_blob ~factor s
              (In_channel.with_open_bin trace_path In_channel.input_all)
          with
          | sy -> sy
          | exception Siesta_store.Codec.Corrupt msg ->
              Printf.eprintf "synth: %s: %s\n" trace_path msg;
              exit 1)
      | None ->
          let sy = Pipeline.synthesize_spec ~cache:(Option.is_some store) ?store ~factor s in
          Ledger.emit store (fun () -> Pipeline.ledger_record ~kind:"synth" sy);
          sy
    in
    print_cache_status sy.Pipeline.sy_status;
    let proxy = sy.Pipeline.sy_proxy in
    Printf.printf "merged grammar: %s\n"
      (Siesta_merge.Merged.stats proxy.Siesta_synth.Proxy_ir.merged);
    Printf.printf "size_C: %s | mean computation-proxy error: %.2f%%\n"
      (Siesta_util.Bytes_fmt.to_string (Siesta_synth.Proxy_ir.size_c_bytes proxy))
      (100.0 *. Siesta_synth.Proxy_ir.mean_combo_error proxy);
    let path =
      match (output, from) with
      | Some p, _ -> p
      | None, Some trace_path -> trace_path ^ ".proxy.c"
      | None, None ->
          Printf.sprintf "%s_%d_proxy.c"
            (String.lowercase_ascii (workload_name s))
            s.Pipeline.nranks
    in
    match bundle with
    | Some dir ->
        let name = Filename.remove_extension (Filename.basename path) in
        Siesta_synth.Codegen_c.write_bundle proxy ~dir ~name;
        Printf.printf "wrote %s/{%s.c, Makefile, README}\n" dir name
    | None ->
        Siesta_synth.Codegen_c.write_file proxy ~path;
        Printf.printf "wrote %s\n" path
  in
  Cmd.v (Cmd.info "synth" ~doc:"Synthesize a C proxy-app from a traced execution")
    Term.(
      const run $ obs_term $ spec_term workload_arg $ output_arg $ factor_arg $ from_arg
      $ bundle_arg $ cache_term)

let replay_cmd =
  let target_platform_arg =
    let doc = "Platform to replay the proxy on (default: the generation platform)." in
    Arg.(value & opt (some platform_conv) None & info [ "to-platform" ] ~docv:"P" ~doc)
  in
  let target_impl_arg =
    let doc = "MPI implementation to replay under (default: the generation one)." in
    Arg.(value & opt (some impl_conv) None & info [ "to-impl" ] ~docv:"IMPL" ~doc)
  in
  let run obs s to_platform to_impl factor =
    with_obs obs @@ fun () ->
    let platform = s.Pipeline.platform and impl = s.Pipeline.impl in
    let target_platform = Option.value ~default:platform to_platform in
    let target_impl = Option.value ~default:impl to_impl in
    let traced = Pipeline.trace s in
    let sy = Pipeline.synthesize ~factor traced in
    let original = (Pipeline.run_original s ~platform:target_platform ~impl:target_impl).Engine.elapsed in
    let proxy_run = Pipeline.run_proxy sy ~platform:target_platform ~impl:target_impl in
    let estimate = factor *. proxy_run.Engine.elapsed in
    Printf.printf
      "generated on %s/%s, replayed on %s/%s\noriginal: %.4f s | proxy: %.4f s | estimate: %.4f s | time error: %.2f%%\n"
      platform.Spec.name impl.Mpi_impl.name target_platform.Spec.name target_impl.Mpi_impl.name
      original proxy_run.Engine.elapsed estimate
      (100.0 *. Evaluate.time_error ~estimated:estimate ~original);
    if target_platform.Spec.name = platform.Spec.name && factor = 1.0 then
      Printf.printf "six-counter error: %.2f%%\n"
        (100.0 *. Evaluate.counter_error ~original:traced.Pipeline.original ~proxy:proxy_run)
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Synthesize a proxy and replay it, possibly elsewhere")
    Term.(
      const run $ obs_term $ spec_term workload_arg $ target_platform_arg $ target_impl_arg
      $ factor_arg)

let analyze_cmd =
  let heatmap_arg =
    let doc = "Also print the point-to-point volume heat map." in
    Arg.(value & flag & info [ "heatmap" ] ~doc)
  in
  let run obs s heatmap =
    with_obs obs @@ fun () ->
    let traced = Pipeline.trace s in
    let m = Siesta_analysis.Comm_matrix.of_recorder traced.Pipeline.recorder in
    Printf.printf "%s on %d ranks:\n" (workload_name s) s.Pipeline.nranks;
    Printf.printf "  p2p traffic : %d messages, %s\n"
      (Siesta_analysis.Comm_matrix.total_messages m)
      (Siesta_util.Bytes_fmt.to_string (Siesta_analysis.Comm_matrix.total_bytes m));
    Printf.printf "  topology    : %s\n"
      (Siesta_analysis.Topology.to_string (Siesta_analysis.Topology.classify m));
    let offsets = Siesta_analysis.Comm_matrix.offsets m in
    Printf.printf "  top offsets : %s\n"
      (String.concat ", "
         (List.map
            (fun (off, c) -> Printf.sprintf "%+d (%d msgs)" off c)
            (List.filteri (fun i _ -> i < 6) offsets)));
    if heatmap then print_string (Siesta_analysis.Comm_matrix.render m);
    let merged =
      Siesta_merge.Pipeline.merge_packed (Siesta_trace.Trace_io.pack traced.Pipeline.recorder)
    in
    print_string (Siesta_analysis.Phases.render merged);
    Siesta_trace.Mpip_report.print (Siesta_trace.Mpip_report.build traced.Pipeline.recorder)
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Trace a workload and report its communication structure")
    Term.(const run $ obs_term $ spec_term workload_arg $ heatmap_arg)

let report_cmd =
  let output_arg =
    let doc = "Write the markdown report to $(docv) (default: stdout)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run obs s output factor timeline_out store =
    with_obs obs @@ fun () ->
    let sy = Pipeline.synthesize_spec ~cache:(Option.is_some store) ?store ~factor s in
    (* one recording serves both the report's sections and the file *)
    let timeline = fst (Pipeline.record_timeline s) in
    let fidelity, diff_s = Clock.wall (fun () -> Pipeline.diff_synthesis sy) in
    (* recorded before rendering, so the report's History lists this run *)
    Ledger.emit store (fun () ->
        Pipeline.ledger_record ~kind:"report" ~diff:(fidelity, diff_s) sy);
    Option.iter (fun path -> write_timeline ~path timeline) timeline_out;
    match output with
    | Some path ->
        Siesta.Report.write_file ~timeline ~fidelity sy ~path;
        Printf.printf "wrote %s\n" path
    | None -> print_string (Siesta.Report.generate ~timeline ~fidelity sy)
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Run the full pipeline and produce a markdown quality report")
    Term.(
      const run $ obs_term $ spec_term workload_arg $ output_arg $ factor_arg $ timeline_out_arg
      $ cache_term)

let extrapolate_cmd =
  let scales_arg =
    let doc = "Comma-separated process counts to trace and fit (at least three)." in
    Arg.(value & opt (list int) [ 16; 36; 64 ] & info [ "scales" ] ~docv:"P1,P2,P3" ~doc)
  in
  let target_arg =
    let doc = "Untraced process count to generate the proxy for." in
    Arg.(required & opt (some int) None & info [ "target" ] ~docv:"P" ~doc)
  in
  let output_arg =
    let doc = "Write the generated C proxy-app to $(docv)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run obs workload iters platform impl seed scales target output =
    with_obs obs @@ fun () ->
    let trace_at nranks =
      let s = spec_of workload nranks iters platform impl seed in
      let traced = Pipeline.trace s in
      Siesta_trace.Trace_io.of_recorder traced.Pipeline.recorder
    in
    Printf.printf "tracing %s at %s ranks...\n%!" workload
      (String.concat ", " (List.map string_of_int scales));
    match Siesta_extrapolate.Scale_model.fit (List.map trace_at scales) with
    | exception Siesta_extrapolate.Scale_model.Unsupported msg ->
        Printf.eprintf "not scale-regular: %s\n" msg;
        exit 1
    | model -> begin
        match Siesta_extrapolate.Scale_model.instantiate model ~nranks:target with
        | exception Siesta_extrapolate.Scale_model.Unsupported msg ->
            Printf.eprintf "cannot instantiate at %d ranks: %s\n" target msg;
            exit 1
        | predicted ->
            let merged =
              Siesta_merge.Pipeline.merge_streams ~nranks:target
                predicted.Siesta_trace.Trace_io.streams
            in
            let proxy =
              Siesta_synth.Proxy_ir.synthesize ~platform ~impl ~merged
                ~compute_table:(Siesta_trace.Trace_io.compute_table predicted) ()
            in
            Printf.printf "extrapolated to %d ranks (%d boundary classes): %s\n" target
              (Siesta_extrapolate.Scale_model.classes model)
              (Siesta_merge.Merged.stats merged);
            let path =
              Option.value
                ~default:(Printf.sprintf "%s_%d_extrapolated_proxy.c"
                            (String.lowercase_ascii workload) target)
                output
            in
            Siesta_synth.Codegen_c.write_file proxy ~path;
            Printf.printf "wrote %s\n" path
      end
  in
  Cmd.v
    (Cmd.info "extrapolate"
       ~doc:"Fit a scale model from several traced scales and emit a proxy for an untraced one")
    Term.(
      const run $ obs_term $ workload_arg $ iters_arg $ platform_arg $ impl_arg $ seed_arg
      $ scales_arg $ target_arg $ output_arg)

(* diff: the fidelity observatory's front end.  Synthesizes the proxy,
   replays both the original and the proxy under the simulated-clock
   observer, and reports where they diverge.  Exit status 1 when the
   communication replay is not lossless — the paper's hard claim. *)
let diff_cmd =
  let workload_opt_arg =
    let doc = "Workload name (see `siesta list`)." in
    Arg.(required & opt (some string) None & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc)
  in
  let json_arg =
    let doc = "Print the divergence report as JSON instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let perturb_arg =
    let doc =
      "Deliberately damage the synthesized proxy before diffing ($(b,comm) bumps a send \
       count, $(b,compute) scales the block combinations) — for exercising the detector."
    in
    Arg.(value & opt (some string) None & info [ "perturb" ] ~docv:"WHAT" ~doc)
  in
  let run obs s factor json perturb timeline_out timeline_html store =
    with_obs obs @@ fun () ->
    let perturb = divergence_fault_of "diff" perturb in
    let sy = Pipeline.synthesize_spec ~cache:(Option.is_some store) ?store ~factor s in
    let sy =
      match perturb with
      | None -> sy
      | Some what ->
          { sy with Pipeline.sy_proxy = Divergence.perturb what sy.Pipeline.sy_proxy }
    in
    let fid, diff_s = Clock.wall (fun () -> Pipeline.diff_synthesis sy) in
    Ledger.emit store (fun () -> Pipeline.ledger_record ~kind:"diff" ~diff:(fid, diff_s) sy);
    let r = fid.Pipeline.f_report in
    (* the capture keeps no timeline; the original's is recorded at most
       once, for the timeline files and the critical path *)
    let timeline = lazy (fst (Pipeline.record_timeline s)) in
    emit_timelines
      ~title:
        (Printf.sprintf "Siesta diff — %s @ %d ranks (original)" (workload_name s)
           s.Pipeline.nranks)
      ~timeline_out ~timeline_html
      (fun () -> Lazy.force timeline);
    if json then print_string (Divergence.to_json r)
    else begin
      Printf.printf "%s @ %d ranks (platform %s, %s)%s\n" (workload_name s) s.Pipeline.nranks
        s.Pipeline.platform.Spec.name s.Pipeline.impl.Mpi_impl.name
        (match perturb with
        | None -> ""
        | Some `Comm -> " [perturbed: comm]"
        | Some `Compute -> " [perturbed: compute]");
      print_cache_status sy.Pipeline.sy_status;
      if r.Divergence.r_lossless then
        print_endline "communication replay: lossless"
      else begin
        print_endline "communication replay: NOT lossless:";
        List.iter (fun reason -> Printf.printf "  - %s\n" reason) r.Divergence.r_reasons
      end;
      Printf.printf "comm-matrix distance: %.3e\n" r.Divergence.r_comm_matrix_dist;
      print_endline "computation error (per-event relative):";
      List.iter
        (fun e ->
          Printf.printf "  %-6s mean %7.3f%%  p95 %7.3f%%  max %7.3f%%  (%d events)\n"
            (Siesta_perf.Counters.metric_name e.Divergence.me_metric)
            (100.0 *. e.Divergence.me_mean)
            (100.0 *. e.Divergence.me_p95)
            (100.0 *. e.Divergence.me_max)
            e.Divergence.me_events)
        r.Divergence.r_compute_errors;
      Printf.printf "simulated time: original %.6e s, proxy %.6e s (error %.2f%%)\n"
        r.Divergence.r_time_orig r.Divergence.r_time_proxy
        (100.0 *. r.Divergence.r_time_error);
      Printf.printf "timeline distance: %.3e\n" r.Divergence.r_timeline_distance;
      let cp =
        Critical_path.compute ~merged:sy.Pipeline.sy_proxy.Siesta_synth.Proxy_ir.merged
          (Lazy.force timeline)
      in
      print_string (Critical_path.render cp);
      Printf.printf "verdict: %s\n" (Divergence.verdict_name (Divergence.verdict r))
    end;
    match Divergence.verdict r with Divergence.Comm_divergent _ -> exit 1 | _ -> ()
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Replay the synthesized proxy next to the original and report divergence (exit 1 \
          unless the communication replay is lossless)")
    Term.(
      const run $ obs_term $ spec_term workload_opt_arg $ factor_arg $ json_arg $ perturb_arg
      $ timeline_out_arg $ timeline_html_arg $ cache_term)

(* sweep: the fidelity-vs-factor observatory.  Captures the original
   once, synthesizes a proxy per scheduled factor (with --cache the
   trace and merge stages are shared across the whole schedule), diffs
   each against the shared original with the factor-aware verdict, and
   emits exactly one "sweep" ledger record carrying the whole curve. *)
let sweep_cmd =
  let factors_arg =
    let doc =
      "Comma-separated, strictly increasing factor schedule (each a positive number)."
    in
    Arg.(value & opt string "1,2,4,8,16,32,64" & info [ "factors" ] ~docv:"LIST" ~doc)
  in
  let json_arg =
    let doc = "Print the curve as JSON instead of the table." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let html_arg =
    let doc =
      "Write a self-contained HTML dashboard of the curve (log2-factor axis, embedded \
       $(b,sweep-data) JSON block) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "html" ] ~docv:"FILE" ~doc)
  in
  let perturb_arg =
    let doc =
      "Deliberately damage every per-factor proxy before diffing ($(b,comm) bumps a send \
       count, $(b,compute) scales the block combinations) — for exercising the \
       curve-regression gate."
    in
    Arg.(value & opt (some string) None & info [ "perturb" ] ~docv:"WHAT" ~doc)
  in
  let run obs s factors_s json html perturb store =
    with_obs obs @@ fun () ->
    let perturb = divergence_fault_of "sweep" perturb in
    let factors =
      match Sweep.parse_factors factors_s with
      | Ok l -> l
      | Error msg ->
          Printf.eprintf "sweep: bad --factors: %s\n" msg;
          exit 2
    in
    let t = Sweep.run ~cache:(Option.is_some store) ?store ?perturb ~factors s in
    Ledger.emit store (fun () -> Sweep.record t);
    if json then print_string (Sweep.to_json t) else print_string (Sweep.render t);
    Option.iter
      (fun path ->
        Sweep_html.write
          ~title:
            (Printf.sprintf "Siesta fidelity sweep — %s @ %d ranks" (workload_name s)
               s.Pipeline.nranks)
          t ~path;
        Printf.eprintf "sweep: wrote %s (self-contained HTML, %d factor(s))\n" path
          (List.length t.Sweep.s_points))
      html;
    if Sweep.comm_divergent t <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Sweep the scaling factor and measure per-factor fidelity (exit 1 when any \
          factor's verdict crosses the comm-divergence rank, 2 on a bad schedule)")
    Term.(
      const run $ obs_term $ spec_term workload_arg $ factors_arg $ json_arg $ html_arg
      $ perturb_arg $ cache_term)

(* check: the static correctness observatory.  Synthesizes (or restores
   from cache) the merged grammar and walks it symbolically — no replay —
   verifying send/recv matching completeness, rendezvous-deadlock
   freedom under the implementation's eager threshold, and collective
   sequence consistency.  Exit 1 on a violation; --perturb seeds one. *)
let check_cmd =
  let json_arg =
    let doc = "Print the check report as JSON instead of markdown." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let perturb_arg =
    let doc =
      "Seed a communication fault into the merged program before checking ($(b,mismatch) \
       adds an unmatched send, $(b,deadlock) a blocking rendezvous ring, $(b,collective) \
       a collective-sequence inconsistency) — for exercising the checker."
    in
    Arg.(value & opt (some string) None & info [ "perturb" ] ~docv:"WHAT" ~doc)
  in
  let run obs s json perturb store =
    with_obs obs @@ fun () ->
    let fault = check_fault_of perturb in
    let sy = Pipeline.synthesize_spec ~cache:(Option.is_some store) ?store s in
    let report, check_s = Clock.wall (fun () -> Pipeline.check_synthesis ?fault sy) in
    Ledger.emit store (fun () ->
        Pipeline.ledger_record ~kind:"check" ~check:(report, check_s) sy);
    if json then print_string (Comm_check.to_json report)
    else begin
      Printf.printf "%s @ %d ranks (%s, eager threshold %d B)%s\n" (workload_name s)
        s.Pipeline.nranks s.Pipeline.impl.Mpi_impl.name report.Comm_check.k_eager_threshold
        (match perturb with
        | None -> ""
        | Some what -> Printf.sprintf " [perturbed: %s]" what);
      print_cache_status sy.Pipeline.sy_status;
      print_string (Comm_check.to_markdown report)
    end;
    match Comm_check.verdict report with
    | Comm_check.Violated _ -> exit 1
    | Comm_check.Clean -> ()
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically verify communication correctness of the merged grammar (exit 1 on a \
          violation, 2 on a bad --perturb token)")
    Term.(const run $ obs_term $ spec_term workload_arg $ json_arg $ perturb_arg $ cache_term)

(* store: maintenance front end for the content-addressed artifact
   store.  `ls` lists stage-key bindings, `verify` re-hashes and
   unframes every object (exit 1 on damage), `gc` mark-and-sweeps
   unreferenced blobs, `rm` drops bindings by key/hash prefix. *)
let store_cmd =
  let open_store root = Store.open_ ?root () in
  let ls_cmd =
    let long_arg =
      let doc =
        "Long listing: per-blob size on each line, plus per-kind subtotals, total store \
         footprint, and the count of unreferenced objects awaiting gc."
      in
      Arg.(value & flag & info [ "long"; "l" ] ~doc)
    in
    let run root long =
      let st = open_store root in
      let entries = Store.entries st in
      Printf.printf "store %s: %d binding(s), %s in objects\n" (Store.root st)
        (List.length entries)
        (Bytes_fmt.to_string (Store.size_bytes st));
      if not long then
        List.iter
          (fun (e : Store.entry) ->
            Printf.printf "%s  %s  %-7s %s\n"
              (String.sub e.Store.e_key 0 12)
              (String.sub e.Store.e_hash 0 12)
              e.Store.e_kind e.Store.e_descr)
          entries
      else begin
        let by_kind = Hashtbl.create 8 in
        List.iter
          (fun (e : Store.entry) ->
            let size = Option.value ~default:0 (Store.object_size st e.Store.e_hash) in
            let n, b = Option.value ~default:(0, 0) (Hashtbl.find_opt by_kind e.Store.e_kind) in
            Hashtbl.replace by_kind e.Store.e_kind (n + 1, b + size);
            Printf.printf "%s  %s  %-7s %10s  %s\n"
              (String.sub e.Store.e_key 0 12)
              (String.sub e.Store.e_hash 0 12)
              e.Store.e_kind
              (Bytes_fmt.to_string size)
              e.Store.e_descr)
          entries;
        print_newline ();
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_kind []
        |> List.sort compare
        |> List.iter (fun (kind, (n, b)) ->
               Printf.printf "%-7s %4d blob(s)  %10s\n" kind n (Bytes_fmt.to_string b));
        let objects = Store.objects st in
        let referenced =
          List.fold_left
            (fun acc (e : Store.entry) ->
              if List.mem_assoc e.Store.e_hash acc then acc else (e.Store.e_hash, ()) :: acc)
            [] entries
        in
        let unref =
          List.filter (fun (h, _) -> not (List.mem_assoc h referenced)) objects
        in
        Printf.printf "total   %4d object(s)  %10s" (List.length objects)
          (Bytes_fmt.to_string (List.fold_left (fun a (_, s) -> a + s) 0 objects));
        if unref <> [] then
          Printf.printf "  (%d unreferenced, %s — run `siesta store gc`)"
            (List.length unref)
            (Bytes_fmt.to_string (List.fold_left (fun a (_, s) -> a + s) 0 unref));
        print_newline ()
      end
    in
    Cmd.v
      (Cmd.info "ls" ~doc:"List stage-key bindings and store size")
      Term.(const run $ store_root_arg $ long_arg)
  in
  let verify_cmd =
    let run root =
      let st = open_store root in
      let r = Store.verify st in
      Printf.printf "store %s: %d object(s), %d manifest entr%s checked\n" (Store.root st)
        r.Store.v_objects r.Store.v_entries
        (if r.Store.v_entries = 1 then "y" else "ies");
      match r.Store.v_issues with
      | [] -> print_endline "verify: ok"
      | issues ->
          List.iter (fun i -> Printf.printf "  ISSUE: %s\n" i) issues;
          Printf.eprintf "verify: %d issue(s)\n" (List.length issues);
          exit 1
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:"Re-hash and unframe every object; exit 1 on checksum or schema damage")
      Term.(const run $ store_root_arg)
  in
  let gc_cmd =
    let expect_clean_arg =
      let doc = "Exit 1 if any unreferenced object was swept (leak detector for CI)." in
      Arg.(value & flag & info [ "expect-clean" ] ~doc)
    in
    let run root expect_clean =
      let st = open_store root in
      let g = Store.gc st in
      Printf.printf "gc %s: %d live, %d swept, %s freed\n" (Store.root st) g.Store.live
        g.Store.swept
        (Bytes_fmt.to_string g.Store.freed_bytes);
      if expect_clean && g.Store.swept > 0 then begin
        Printf.eprintf "gc: swept %d unreferenced object(s) but --expect-clean was given\n"
          g.Store.swept;
        exit 1
      end
    in
    Cmd.v
      (Cmd.info "gc" ~doc:"Delete objects not referenced by the manifest (mark-and-sweep)")
      Term.(const run $ store_root_arg $ expect_clean_arg)
  in
  let rm_cmd =
    let prefix_arg =
      let doc = "Hex prefix of a stage key or blob hash." in
      Arg.(required & pos 0 (some string) None & info [] ~docv:"PREFIX" ~doc)
    in
    let run root prefix =
      let st = open_store root in
      let n = Store.rm st prefix in
      Printf.printf "rm: dropped %d binding(s) matching %s (run gc to reclaim blobs)\n" n
        prefix;
      if n = 0 then exit 1
    in
    Cmd.v
      (Cmd.info "rm"
         ~doc:"Drop manifest bindings by key or hash prefix (blobs reclaimed by gc)")
      Term.(const run $ store_root_arg $ prefix_arg)
  in
  Cmd.group
    (Cmd.info "store" ~doc:"Inspect and maintain the content-addressed artifact store")
    [ ls_cmd; verify_cmd; gc_cmd; rm_cmd ]

(* runs: front end for the persistent run ledger.  `ls`/`show` browse
   the records a pipeline subcommand appended under --cache, `compare`
   is the regression radar (exit 1 on regression — CI-gateable),
   `html` renders the trend dashboard and `gc` bounds retention. *)
let runs_cmd =
  let open_store root = Store.open_ ?root () in
  let utc t =
    let tm = Unix.gmtime t in
    Printf.sprintf "%04d-%02d-%02d %02d:%02d:%02d" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
  in
  let total_s (r : Ledger.record) =
    List.fold_left (fun acc (_, s) -> acc +. s) 0.0 r.Ledger.r_timings
  in
  let spec_cell (r : Ledger.record) =
    Printf.sprintf "%s@%s"
      (Option.value ~default:"?" (List.assoc_opt "workload" r.Ledger.r_spec))
      (Option.value ~default:"?" (List.assoc_opt "nranks" r.Ledger.r_spec))
  in
  let resolve st sel =
    match Ledger.find st sel with
    | Some r -> r
    | None ->
        Printf.eprintf "runs: no ledger record matching %S (see `siesta runs ls`)\n" sel;
        exit 2
  in
  let newest st =
    match List.rev (Ledger.runs st) with
    | r :: _ -> r
    | [] ->
        Printf.eprintf "runs: ledger is empty — run a pipeline subcommand with --cache\n";
        exit 2
  in
  let ls_cmd =
    let run root =
      let st = open_store root in
      let rs = Ledger.runs st in
      Printf.printf "ledger %s: %d run record(s)\n" (Store.root st) (List.length rs);
      List.iter
        (fun (r : Ledger.record) ->
          Printf.printf "#%-4d %s  %-6s %-12s id=%s  total %8.4f s  %s\n" r.Ledger.r_seq
            (utc r.Ledger.r_time) r.Ledger.r_kind (spec_cell r)
            (String.sub r.Ledger.r_id 0 (min 8 (String.length r.Ledger.r_id)))
            (total_s r)
            (match (r.Ledger.r_fidelity, r.Ledger.r_sweep) with
            | Some f, _ -> f.Ledger.lf_verdict
            | None, [] -> "-"
            | None, sweep ->
                let worst =
                  List.fold_left
                    (fun acc (sp : Ledger.sweep_point) ->
                      let v = sp.Ledger.sp_fidelity.Ledger.lf_verdict in
                      if Regression.verdict_rank v > Regression.verdict_rank acc then v
                      else acc)
                    "faithful" sweep
                in
                Printf.sprintf "%d-factor sweep, worst %s" (List.length sweep) worst))
        rs
    in
    Cmd.v
      (Cmd.info "ls" ~doc:"List the run records in the ledger")
      Term.(const run $ store_root_arg)
  in
  let show_cmd =
    let sel_arg =
      let doc = "Record selector: a sequence number or a run-id prefix." in
      Arg.(required & pos 0 (some string) None & info [] ~docv:"RUN" ~doc)
    in
    let run root sel =
      let st = open_store root in
      let r = resolve st sel in
      let open Ledger in
      Printf.printf "run #%d  %s  %s\n" r.r_seq r.r_kind (utc r.r_time);
      Printf.printf "id      : %s\n" r.r_id;
      Printf.printf "git     : %s\n" r.r_git;
      Printf.printf "argv    : %s\n" (String.concat " " r.r_argv);
      let kvs name l =
        if l <> [] then
          Printf.printf "%-8s: %s\n" name
            (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) l))
      in
      kvs "env" r.r_env;
      kvs "spec" r.r_spec;
      kvs "cache" r.r_cache;
      if r.r_timings <> [] then begin
        Printf.printf "timings :\n";
        List.iter (fun (n, s) -> Printf.printf "  %-24s %10.4f s\n" n s) r.r_timings;
        Printf.printf "  %-24s %10.4f s\n" "total" (total_s r)
      end;
      kvs "sched" (List.map (fun (k, v) -> (k, Printf.sprintf "%g" v)) r.r_sched);
      kvs "heap" (List.map (fun (k, v) -> (k, Printf.sprintf "%.0f" v)) r.r_heap);
      (match r.r_fidelity with
      | None -> ()
      | Some f ->
          Printf.printf
            "fidelity: verdict=%s lossless=%b time_error=%.4g timeline_distance=%.4g \
             comm_matrix_dist=%.4g max_compute_mean=%.4g\n"
            f.lf_verdict f.lf_lossless f.lf_time_error f.lf_timeline_distance
            f.lf_comm_matrix_dist f.lf_max_compute_mean);
      (match r.r_check with
      | None -> ()
      | Some c ->
          Printf.printf "check   : verdict=%s violations=%d\n" c.lc_verdict c.lc_violations;
          List.iter (fun reason -> Printf.printf "  - %s\n" reason) c.lc_reasons);
      if r.r_sweep <> [] then begin
        Printf.printf "sweep   : %d factor(s)\n" (List.length r.r_sweep);
        Printf.printf "  %-8s %-18s %10s %12s %12s %12s %10s %10s  %s\n" "factor"
          "verdict" "time_err" "timeline" "comm_L1" "compute" "proxy_B" "search_s"
          "cache";
        List.iter
          (fun (sp : Ledger.sweep_point) ->
            Printf.printf "  x%-7g %-18s %10.4f %12.4e %12.4e %12.4f %10.0f %10.4f  %s\n"
              sp.sp_factor sp.sp_fidelity.lf_verdict sp.sp_fidelity.lf_time_error
              sp.sp_fidelity.lf_timeline_distance sp.sp_fidelity.lf_comm_matrix_dist
              sp.sp_fidelity.lf_max_compute_mean sp.sp_proxy_bytes sp.sp_search_s
              (String.concat "/" (List.map snd sp.sp_cache)))
          r.r_sweep
      end
    in
    Cmd.v
      (Cmd.info "show" ~doc:"Print one run record in full")
      Term.(const run $ store_root_arg $ sel_arg)
  in
  let compare_cmd =
    let a_arg =
      let doc = "Baseline record (sequence number or run-id prefix)." in
      Arg.(value & pos 0 (some string) None & info [] ~docv:"BASELINE" ~doc)
    in
    let b_arg =
      let doc = "Current record (default: the newest record)." in
      Arg.(value & pos 1 (some string) None & info [] ~docv:"CURRENT" ~doc)
    in
    let baseline_arg =
      let doc =
        "Baseline when no positional records are given: $(b,last) picks the newest older \
         record with the same kind, workload and rank count as the newest record; anything \
         else is a selector."
      in
      Arg.(value & opt string "last" & info [ "baseline" ] ~docv:"SEL" ~doc)
    in
    let ratio_arg =
      let doc = "Stage-time regression threshold: current >= $(docv) * baseline." in
      Arg.(value & opt float Regression.default.Regression.t_stage_ratio
           & info [ "max-stage-ratio" ] ~docv:"R" ~doc)
    in
    let floor_arg =
      let doc =
        "Absolute stage-time floor in seconds: growth below this never regresses (filters \
         warm-run microsecond noise)."
      in
      Arg.(value & opt float Regression.default.Regression.t_stage_min_s
           & info [ "min-stage-s" ] ~docv:"S" ~doc)
    in
    let fid_arg =
      let doc = "Allowed absolute worsening of each fidelity error measure." in
      Arg.(value & opt float Regression.default.Regression.t_fidelity_delta
           & info [ "max-fidelity-delta" ] ~docv:"D" ~doc)
    in
    let json_arg =
      let doc = "Print the comparison (endpoints, per-dimension verdicts) as JSON." in
      Arg.(value & flag & info [ "json" ] ~doc)
    in
    let run root a b baseline ratio floor fid json =
      let st = open_store root in
      let thresholds =
        { Regression.t_stage_ratio = ratio; t_stage_min_s = floor; t_fidelity_delta = fid }
      in
      let base, cur =
        match (a, b) with
        | Some a, Some b -> (resolve st a, resolve st b)
        | Some a, None -> (resolve st a, newest st)
        | None, _ ->
            let cur = newest st in
            if baseline = "last" then (
              match Regression.baseline_for (Ledger.runs st) cur with
              | Some b -> (b, cur)
              | None ->
                  Printf.eprintf
                    "runs compare: no comparable baseline for #%d (same kind/workload/ranks)\n"
                    cur.Ledger.r_seq;
                  exit 2)
            else (resolve st baseline, cur)
      in
      let c = Regression.compare_runs ~thresholds ~baseline:base cur in
      if json then print_endline (Regression.to_json c)
      else print_string (Regression.render c);
      if c.Regression.c_regressed then exit 1
    in
    Cmd.v
      (Cmd.info "compare"
         ~doc:
           "Compare two run records against regression thresholds.  Exit codes: $(b,0) no \
            regression, $(b,1) at least one dimension regressed (including any \
            $(b,sweep.f<factor>) curve point), $(b,2) a record cannot be resolved or the \
            ledger is empty.")
      Term.(const run $ store_root_arg $ a_arg $ b_arg $ baseline_arg $ ratio_arg $ floor_arg
            $ fid_arg $ json_arg)
  in
  let gc_cmd =
    let keep_arg =
      let doc = "Number of newest run records to retain." in
      Arg.(value & opt int 100 & info [ "keep" ] ~docv:"N" ~doc)
    in
    let run root keep =
      let st = open_store root in
      let dropped = Ledger.gc st ~keep in
      let g = Store.gc st in
      Printf.printf "runs gc: dropped %d record(s), kept %d; swept %d blob(s), %s freed\n"
        dropped
        (List.length (Ledger.runs st))
        g.Store.swept
        (Bytes_fmt.to_string g.Store.freed_bytes)
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:"Prune old run records past the retention bound (stage artifacts untouched)")
      Term.(const run $ store_root_arg $ keep_arg)
  in
  let html_cmd =
    let out_arg =
      let doc = "Write the dashboard to $(docv)." in
      Arg.(value & opt string "siesta_trends.html" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
    in
    let run root out =
      let st = open_store root in
      let rs = Ledger.runs st in
      Trend_html.write ~title:(Printf.sprintf "Siesta run trends — %s" (Store.root st)) rs
        ~path:out;
      Printf.printf "runs html: wrote %s (%d record(s), self-contained)\n" out
        (List.length rs)
    in
    Cmd.v
      (Cmd.info "html"
         ~doc:"Write a self-contained HTML trend dashboard of stage times and fidelity errors")
      Term.(const run $ store_root_arg $ out_arg)
  in
  Cmd.group
    (Cmd.info "runs" ~doc:"Browse, compare and prune the persistent run ledger")
    [ ls_cmd; show_cmd; compare_cmd; gc_cmd; html_cmd ]

(* check-trace: validate any trace artifact the toolchain emits.  The
   file is sniffed by prefix: "SSB1" trace blobs (`trace --dump` files
   and store trace objects) are decoded with the binary codec, anything
   else is parsed as a Chrome trace_event JSON from --trace-out /
   --timeline-out.  Exercised by `make check` so every format is
   smoke-tested on every run. *)
let check_trace_cmd =
  let file_arg =
    let doc =
      "Trace file: Chrome trace JSON (--trace-out, --timeline-out) or a binary trace blob \
       (a `siesta trace --dump` file or a store's trace object)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let min_spans_arg =
    let doc = "Fail unless at least $(docv) distinct pipeline-stage spans are present." in
    Arg.(value & opt int 0 & info [ "min-stage-spans" ] ~docv:"N" ~doc)
  in
  let min_tracks_arg =
    let doc = "Fail unless at least $(docv) distinct thread tracks are present." in
    Arg.(value & opt int 0 & info [ "min-tracks" ] ~docv:"N" ~doc)
  in
  let run file min_spans min_tracks =
    let contents = In_channel.with_open_bin file In_channel.input_all in
    if String.length contents >= 4 && String.sub contents 0 4 = "SSB1" then begin
      (* binary trace blob: validate frame + chunked payload *)
      match Siesta_store.Codec.decode_trace contents with
      | _meta, pk ->
          Printf.printf "%s: trace blob: %d ranks, %d events (%d distinct), %d centroids\n"
            file pk.Siesta_trace.Trace_io.p_nranks
            (Siesta_trace.Trace_io.packed_total_events pk)
            (Array.length pk.Siesta_trace.Trace_io.p_defs)
            (Array.length pk.Siesta_trace.Trace_io.p_centroids)
      | exception Siesta_store.Codec.Corrupt msg ->
          Printf.eprintf "check-trace: %s: corrupt trace blob: %s\n" file msg;
          exit 1
    end
    else
    match Obs_json.parse contents with
    | Error msg ->
        Printf.eprintf "check-trace: %s: %s\n" file msg;
        exit 1
    | Ok doc -> (
        match Obs_json.member "traceEvents" doc with
        | Some (Obs_json.Arr events) ->
            (* Both clock domains are accepted: host-time traces from
               --trace-out and simulated-time traces from --timeline-out.
               We report which kind we saw. *)
            let clock =
              match
                Option.bind
                  (Obs_json.member "otherData" doc)
                  (fun o -> Option.bind (Obs_json.member "clock" o) Obs_json.to_string_opt)
              with
              | Some c -> c
              | None -> "host (unmarked)"
            in
            let bad = ref 0 in
            let stage_names = Hashtbl.create 16 in
            let all_names = Hashtbl.create 64 in
            let tracks = Hashtbl.create 8 in
            List.iter
              (fun e ->
                let name = Option.bind (Obs_json.member "name" e) Obs_json.to_string_opt in
                let ph = Option.bind (Obs_json.member "ph" e) Obs_json.to_string_opt in
                let cat = Option.bind (Obs_json.member "cat" e) Obs_json.to_string_opt in
                let tid = Option.bind (Obs_json.member "tid" e) Obs_json.to_float_opt in
                (match (name, ph, tid) with
                | Some name, Some ph, Some tid ->
                    Hashtbl.replace tracks tid ();
                    if ph = "X" then begin
                      Hashtbl.replace all_names name ();
                      if cat = Some "pipeline" then Hashtbl.replace stage_names name ()
                    end
                | _ -> incr bad))
              events;
            Printf.printf
              "%s: %d events, %d distinct complete spans, %d pipeline stages (%s), %d thread \
               tracks, %s clock\n"
              file (List.length events) (Hashtbl.length all_names) (Hashtbl.length stage_names)
              (String.concat ", "
                 (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) stage_names [])))
              (Hashtbl.length tracks) clock;
            if !bad > 0 then begin
              Printf.eprintf "check-trace: %d malformed event(s)\n" !bad;
              exit 1
            end;
            if Hashtbl.length stage_names < min_spans then begin
              Printf.eprintf "check-trace: expected >= %d pipeline-stage spans, found %d\n"
                min_spans (Hashtbl.length stage_names);
              exit 1
            end;
            if Hashtbl.length tracks < min_tracks then begin
              Printf.eprintf "check-trace: expected >= %d thread tracks, found %d\n" min_tracks
                (Hashtbl.length tracks);
              exit 1
            end
        | _ ->
            Printf.eprintf "check-trace: %s: no \"traceEvents\" array\n" file;
            exit 1)
  in
  Cmd.v
    (Cmd.info "check-trace"
       ~doc:"Validate a Chrome trace_event file or a `siesta trace --dump` trace blob")
    Term.(const run $ file_arg $ min_spans_arg $ min_tracks_arg)

(* ------------------------------------------------------------------ *)
(* serve: synthesis-as-a-service daemon                                 *)

module Serve_http = Siesta_serve.Http
module Serve_server = Siesta_serve.Server

let socket_arg =
  let doc = "Listen on a unix-domain socket at $(docv)." in
  Arg.(value & opt string ".siesta-serve.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

let port_arg =
  let doc = "Listen on 127.0.0.1:$(docv) instead of a unix socket." in
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)

let listen_of socket port =
  match port with Some p -> `Tcp ("127.0.0.1", p) | None -> `Unix socket

let serve_cmd =
  let jobs_arg =
    let doc = "Worker threads draining the synthesis queue." in
    Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"N" ~doc)
  in
  let queue_arg =
    let doc = "Maximum queued jobs before submissions get 429." in
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let max_body_arg =
    let doc = "Request-body byte limit (413 beyond it)." in
    Arg.(value & opt int (8 * 1024 * 1024) & info [ "max-body" ] ~docv:"BYTES" ~doc)
  in
  let read_timeout_arg =
    let doc = "Per-connection socket read timeout in seconds." in
    Arg.(value & opt float 10.0 & info [ "read-timeout" ] ~docv:"S" ~doc)
  in
  let run socket port store_root jobs queue max_body read_timeout =
    if jobs < 1 then begin
      Printf.eprintf "serve: --jobs must be >= 1\n";
      exit 2
    end;
    if queue < 1 then begin
      Printf.eprintf "serve: --queue must be >= 1\n";
      exit 2
    end;
    let listen = listen_of socket port in
    let config =
      {
        Serve_server.listen;
        store_root;
        workers = jobs;
        max_queue = queue;
        max_body;
        read_timeout;
      }
    in
    let t =
      match Serve_server.create config with
      | t -> t
      | exception Unix.Unix_error (e, _, arg) ->
          Printf.eprintf "serve: cannot listen (%s%s)\n" (Unix.error_message e)
            (if arg = "" then "" else ": " ^ arg);
          exit 2
    in
    (match listen with
    | `Unix path -> Printf.printf "siesta serve: listening on unix socket %s" path
    | `Tcp (host, p) -> Printf.printf "siesta serve: listening on http://%s:%d" host p);
    Printf.printf " (store %s, %d worker(s), queue %d)\n%!"
      (Store.root (Serve_server.store t)) jobs queue;
    Serve_server.install_signals t;
    Serve_server.serve t
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the synthesis-as-a-service daemon: POST specs to $(b,/jobs), poll \
          $(b,/jobs/<id>), fetch artifacts and raw store blobs over HTTP.  Identical \
          in-flight submissions coalesce onto one pipeline execution; completed artifacts \
          live in the shared content-addressed store.  SIGTERM/SIGINT drain queued jobs \
          and exit 0.")
    Term.(const run $ socket_arg $ port_arg $ store_root_arg $ jobs_arg $ queue_arg
          $ max_body_arg $ read_timeout_arg)

(* http: tiny client for the daemon, so the smoke tests (and humans
   without curl's --unix-socket) can script the API. *)
let http_cmd =
  let meth_arg =
    let doc = "HTTP method (GET, HEAD, POST)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"METHOD" ~doc)
  in
  let path_arg =
    let doc = "Request path, e.g. $(b,/healthz) or $(b,/jobs)." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"PATH" ~doc)
  in
  let host_arg =
    let doc = "Connect to $(docv) (with --port) instead of the unix socket." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)
  in
  let data_arg =
    let doc = "Request body (e.g. the JSON job spec); $(b,@FILE) reads it from a file." in
    Arg.(value & opt (some string) None & info [ "d"; "data" ] ~docv:"BODY" ~doc)
  in
  let out_arg =
    let doc = "Write the response body to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let extract_arg =
    let doc =
      "Print only this field of a JSON response body (slash-separated path, e.g. \
       $(b,artifacts/proxy.c/hash))."
    in
    Arg.(value & opt (some string) None & info [ "extract" ] ~docv:"PATH" ~doc)
  in
  let extract body path =
    match Obs_json.parse body with
    | Error e ->
        Printf.eprintf "http: response is not JSON: %s\n" e;
        exit 2
    | Ok doc -> (
        let segs = List.filter (fun s -> s <> "") (String.split_on_char '/' path) in
        let v =
          List.fold_left
            (fun acc seg -> Option.bind acc (Obs_json.member seg))
            (Some doc) segs
        in
        match v with
        | None ->
            Printf.eprintf "http: no %S in response\n" path;
            exit 2
        | Some (Obs_json.Str s) -> print_endline s
        | Some (Obs_json.Bool b) -> print_endline (string_of_bool b)
        | Some (Obs_json.Num f) ->
            if Float.is_integer f then Printf.printf "%d\n" (int_of_float f)
            else Printf.printf "%g\n" f
        | Some j -> print_endline (Obs_json.to_string j))
  in
  let run meth path socket port host data out field =
    let meth = String.uppercase_ascii meth in
    let addr =
      match port with Some p -> `Tcp (host, p) | None -> `Unix socket
    in
    let body =
      match data with
      | None -> None
      | Some d when String.length d > 0 && d.[0] = '@' ->
          let file = String.sub d 1 (String.length d - 1) in
          let ic = open_in_bin file in
          let s = really_input_string ic (in_channel_length ic) in
          close_in ic;
          Some s
      | Some d -> Some d
    in
    match Serve_http.request ~addr ~meth ~path ?body () with
    | Error e ->
        Printf.eprintf "http: %s\n" e;
        exit 2
    | Ok (status, _headers, body) ->
        (match (out, field) with
        | Some file, _ ->
            let oc = open_out_bin file in
            output_string oc body;
            close_out oc
        | None, Some p -> extract body p
        | None, None -> if body <> "" then print_string body);
        if status >= 400 then exit 1
  in
  Cmd.v
    (Cmd.info "http"
       ~doc:
         "Talk to a $(b,siesta serve) daemon: one request, response body to stdout (or \
          $(b,-o)), exit $(b,0) on 2xx, $(b,1) on an HTTP error status, $(b,2) on a \
          transport error.")
    Term.(const run $ meth_arg $ path_arg $ socket_arg $ port_arg $ host_arg $ data_arg
          $ out_arg $ extract_arg)

(* Subcommands let exceptions escape to here.  A file the user named that
   cannot be read or written is a usage error: one line on stderr, exit 1.
   Anything else is a bug and keeps cmdliner's internal-error report. *)
let () =
  let doc = "synthesize proxy applications for MPI programs (Siesta)" in
  let info = Cmd.info "siesta" ~version:"1.0.0" ~doc in
  let cmd =
    Cmd.group info
      [
        list_cmd;
        run_cmd;
        trace_cmd;
        synth_cmd;
        replay_cmd;
        analyze_cmd;
        report_cmd;
        extrapolate_cmd;
        diff_cmd;
        sweep_cmd;
        check_cmd;
        store_cmd;
        runs_cmd;
        check_trace_cmd;
        serve_cmd;
        http_cmd;
      ]
  in
  exit
    (match Cmd.eval ~catch:false cmd with
    | code -> code
    | exception Sys_error msg ->
        Printf.eprintf "siesta: %s\n" msg;
        1
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Printf.eprintf "siesta: internal error, uncaught exception:\n        %s\n%s"
          (Printexc.to_string e) (Printexc.raw_backtrace_to_string bt);
        Cmd.Exit.internal_error)
