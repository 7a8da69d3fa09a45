module Engine = Siesta_mpi.Engine
module Compute_table = Siesta_trace.Compute_table
module Mpip = Siesta_trace.Mpip_report
module Merged = Siesta_merge.Merged
module Proxy_ir = Siesta_synth.Proxy_ir
module Comm_matrix = Siesta_analysis.Comm_matrix
module Topology = Siesta_analysis.Topology
module Timeline = Siesta_analysis.Timeline
module Critical_path = Siesta_analysis.Critical_path
module Divergence = Siesta_analysis.Divergence
module Counters = Siesta_perf.Counters
module Registry = Siesta_workloads.Registry
module Spec = Siesta_platform.Spec
module Mpi_impl = Siesta_platform.Mpi_impl
module Bytes_fmt = Siesta_util.Bytes_fmt
module Codec = Siesta_store.Codec
module Trace_io = Siesta_trace.Trace_io

let pct x = Printf.sprintf "%.2f%%" (100.0 *. x)

(* The report is generated from a [Pipeline.synthesis], whose trace stage
   is either a live traced run or a decoded blob plus stored run
   measurements.
   Everything below reads only what both flavours carry — streams,
   centroids, meta — plus the caller's fidelity captures and timeline.
   The captures re-ran both programs under the simulated clock and keep
   only summaries; the critical path and the per-rank breakdown need
   every segment, so they read the [timeline] the caller recorded with
   [Pipeline.record_timeline].  Runs are deterministic per seed, so each
   reproduces the original run's [Engine.result] exactly. *)
let generate ~timeline ~fidelity:(fid : Pipeline.fidelity) (sy : Pipeline.synthesis) =
  let ts = sy.Pipeline.sy_trace in
  let spec = ts.Pipeline.ts_spec in
  let meta = ts.Pipeline.ts_meta in
  let trace = Trace_io.of_packed ts.Pipeline.ts_trace in
  let table = ts.Pipeline.ts_table in
  let merged = sy.Pipeline.sy_proxy.Proxy_ir.merged in
  let nranks = trace.Trace_io.nranks in
  let mpip = Mpip.of_streams ~nranks trace.Trace_io.streams in
  let matrix = Comm_matrix.of_streams ~nranks trace.Trace_io.streams in
  (* the capture's hook is zero-overhead and the observer is passive, so
     these *are* the plain runs on the generation platform *)
  let original_run = fid.Pipeline.f_original.Divergence.c_result in
  let proxy_run = fid.Pipeline.f_proxy.Divergence.c_result in
  let buf = Buffer.create 8192 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "# Siesta proxy report: %s @ %d ranks\n\n" spec.Pipeline.workload.Registry.name
    spec.Pipeline.nranks;
  p "- generation platform: %s (%s), MPI profile: %s, seed %d\n"
    spec.Pipeline.platform.Spec.name spec.Pipeline.platform.Spec.cpu.Siesta_platform.Cpu.name
    spec.Pipeline.impl.Mpi_impl.name spec.Pipeline.seed;
  p "- scaling factor: %.0f\n\n" sy.Pipeline.sy_factor;
  p "## Trace\n\n";
  p "- original run: %.4f s, %d MPI calls\n" meta.Codec.tm_original_elapsed
    meta.Codec.tm_original_calls;
  p "- instrumentation overhead: %s\n" (pct (Codec.meta_overhead meta));
  p "- events: %d (%d communication, %d computation), raw size %s\n" mpip.Mpip.total_events
    mpip.Mpip.comm_events mpip.Mpip.compute_events
    (Bytes_fmt.to_string meta.Codec.tm_raw_bytes);
  p "- point-to-point topology: %s (%d messages, %s)\n\n"
    (Topology.to_string (Topology.classify matrix))
    (Comm_matrix.total_messages matrix)
    (Bytes_fmt.to_string (Comm_matrix.total_bytes matrix));
  p "## Compression\n\n";
  p "- merged grammar: %s\n" (Merged.stats merged);
  p "- exported size_C: %s (%.0fx below the raw trace)\n\n"
    (Bytes_fmt.to_string (Proxy_ir.size_c_bytes sy.Pipeline.sy_proxy))
    (float_of_int meta.Codec.tm_raw_bytes
    /. float_of_int (max 1 (Proxy_ir.size_c_bytes sy.Pipeline.sy_proxy)));
  p "## Computation proxies\n\n";
  p "- %d clusters over %d computation events; mean search error %s\n\n"
    (Compute_table.cluster_count table) mpip.Mpip.compute_events
    (pct (Proxy_ir.mean_combo_error sy.Pipeline.sy_proxy));
  p "| cluster | members | INS | CYC | search error |\n|---|---|---|---|---|\n";
  let shown = min 8 (Compute_table.cluster_count table) in
  for cid = 0 to shown - 1 do
    let c = Compute_table.centroid table cid in
    p "| %d | %d | %.3g | %.3g | %s |\n" cid (Compute_table.members table cid) c.Counters.ins
      c.Counters.cyc
      (pct sy.Pipeline.sy_proxy.Proxy_ir.combo_errors.(cid))
  done;
  if Compute_table.cluster_count table > shown then
    p "| ... | | | | (%d more) |\n" (Compute_table.cluster_count table - shown);
  (match sy.Pipeline.sy_status.Pipeline.cs_root with
  | None -> ()
  | Some root ->
      let st = sy.Pipeline.sy_status in
      p "\n## Cache\n\n";
      p "- artifact store: %s\n" root;
      p "- trace: %s | merge: %s | proxy search: %s\n"
        (Pipeline.outcome_name st.Pipeline.cs_trace)
        (Pipeline.outcome_name st.Pipeline.cs_merge)
        (Pipeline.outcome_name st.Pipeline.cs_proxy);
      if
        st.Pipeline.cs_trace = Pipeline.Cache_hit
        && st.Pipeline.cs_merge = Pipeline.Cache_hit
      then p "- warm run: tracing, grammar construction and merging were all skipped\n";
      (* run history for this spec, read back from the same store *)
      let history =
        try
          Siesta_ledger.Ledger.runs (Siesta_store.Store.open_ ~root ())
          |> List.filter (fun (r : Siesta_ledger.Ledger.record) ->
                 List.assoc_opt "workload" r.Siesta_ledger.Ledger.r_spec
                 = Some spec.Pipeline.workload.Registry.name
                 && List.assoc_opt "nranks" r.Siesta_ledger.Ledger.r_spec
                    = Some (string_of_int spec.Pipeline.nranks))
        with _ -> []
      in
      if history <> [] then begin
        let shown_hist = 8 in
        let recent =
          let n = List.length history in
          if n <= shown_hist then history
          else List.filteri (fun i _ -> i >= n - shown_hist) history
        in
        p "\n## History (run ledger, this spec)\n\n";
        p "| run | kind | time (UTC) | total (s) | cache | verdict |\n|---|---|---|---|---|---|\n";
        List.iter
          (fun (r : Siesta_ledger.Ledger.record) ->
            let open Siesta_ledger.Ledger in
            let tm = Unix.gmtime r.r_time in
            let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 r.r_timings in
            let cache_cell =
              match
                List.filter_map
                  (fun stg ->
                    Option.map (fun o -> stg ^ ":" ^ o) (List.assoc_opt stg r.r_cache))
                  [ "trace"; "merge"; "proxy" ]
              with
              | [] -> "-"
              | l -> String.concat " " l
            in
            p "| #%d | %s | %04d-%02d-%02d %02d:%02d:%02d | %.4f | %s | %s |\n" r.r_seq
              r.r_kind (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
              tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec total cache_cell
              (match r.r_fidelity with Some f -> f.lf_verdict | None -> "-"))
          recent;
        if List.length history > shown_hist then
          p "\n(%d older record(s) not shown — `siesta runs ls`)\n"
            (List.length history - shown_hist)
      end;
      (* the newest factor curve for this spec, if one was swept *)
      (match
         List.rev history
         |> List.find_opt (fun (r : Siesta_ledger.Ledger.record) ->
                r.Siesta_ledger.Ledger.r_kind = "sweep"
                && r.Siesta_ledger.Ledger.r_sweep <> [])
       with
      | None -> ()
      | Some r ->
          let open Siesta_ledger.Ledger in
          p "\n## Fidelity vs factor (sweep #%d)\n\n" r.r_seq;
          p
            "| factor | verdict | time err | timeline | comm L1 | compute mean | proxy \
             (B) | search (s) |\n\
             |---|---|---|---|---|---|---|---|\n";
          List.iter
            (fun sp ->
              p "| x%g | %s | %.4f | %.3e | %.3e | %.4f | %.0f | %.4f |\n" sp.sp_factor
                sp.sp_fidelity.lf_verdict sp.sp_fidelity.lf_time_error
                sp.sp_fidelity.lf_timeline_distance sp.sp_fidelity.lf_comm_matrix_dist
                sp.sp_fidelity.lf_max_compute_mean sp.sp_proxy_bytes sp.sp_search_s)
            r.r_sweep));
  p "\n## Pipeline stage timings\n\n";
  let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 sy.Pipeline.sy_timings in
  p "| stage | wall (s) | share |\n|---|---|---|\n";
  List.iter
    (fun (name, s) ->
      p "| %s | %.4f | %s |\n" name s (if total > 0.0 then pct (s /. total) else "-"))
    sy.Pipeline.sy_timings;
  p "| total | %.4f | |\n" total;
  p "\n(one clock source — `Siesta_obs.Clock` — shared with `--trace-out` spans and the bench drivers; \"<stage>.cached\" rows are store lookups that replaced the stage)\n";
  p "\n## Validation (replay on the generation platform)\n\n";
  let t_orig = original_run.Engine.elapsed in
  let t_proxy = sy.Pipeline.sy_factor *. proxy_run.Engine.elapsed in
  p "- proxy time: %.4f s raw%s vs original %.4f s — error %s\n" proxy_run.Engine.elapsed
    (if sy.Pipeline.sy_factor = 1.0 then ""
     else Printf.sprintf " (x%.0f = %.4f s estimated)" sy.Pipeline.sy_factor t_proxy)
    t_orig
    (pct (Evaluate.time_error ~estimated:t_proxy ~original:t_orig));
  (if sy.Pipeline.sy_factor = 1.0 then begin
     p "- six-counter error over ranks: %s\n"
       (pct (Evaluate.counter_error ~original:original_run ~proxy:proxy_run));
     p "- per metric: %s\n"
       (String.concat ", "
          (List.map
             (fun (m, e) -> Printf.sprintf "%s %s" (Counters.metric_name m) (pct e))
             (Evaluate.per_metric_errors ~original:original_run ~proxy:proxy_run)))
   end);
  (match fid.Pipeline.f_check with
  | None -> ()
  | Some ck ->
      p "\n## Correctness (static check)\n\n";
      Buffer.add_string buf (Siesta_analysis.Comm_check.to_markdown ck));
  p "\n## Fidelity (simulated clock)\n\n";
  Buffer.add_string buf (Divergence.to_markdown fid.Pipeline.f_report);
  p "\n### Critical path (original run)\n\n```\n%s```\n"
    (Critical_path.render (Critical_path.compute ~merged timeline));
  p "\n### Per-rank simulated-time breakdown (original run)\n\n```\n%s```\n"
    (Timeline.render timeline);
  Buffer.contents buf

let write_file ~timeline ~fidelity sy ~path =
  let oc = open_out path in
  output_string oc (generate ~timeline ~fidelity sy);
  close_out oc
