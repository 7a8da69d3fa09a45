(* Pipeline scaling experiment: end-to-end wall-clock of trace -> merge
   -> synthesize, cold and warm through the content-addressed store, one
   timing of the batch merge, and a check that the merge the pipeline
   ships (streamed recorder, canonicalized terminals, one Sequitur run
   per rank shape) equals the batch merge of the same events.  Results
   go to stdout as a table and to [BENCH_pipeline.json] for downstream
   tooling.  Walls are taken on [Siesta_obs.Clock] (monotonic, shared
   with the span layer). *)

module Pipeline = Siesta.Pipeline
module MPipe = Siesta_merge.Pipeline
module Merged = Siesta_merge.Merged
module Recorder = Siesta_trace.Recorder
module Trace_io = Siesta_trace.Trace_io
module Store = Siesta_store.Store

let wall = Exp_common.wall

(* The end-to-end probes run through [synthesize_spec ~cache:true]
   against a bench-local store (gitignored, wiped at the start of every
   bench run so "cold" means cold): the numbers measure the pipeline as
   shipped — streamed recorder, merge, content-addressed memoization —
   not a bench-only code path. *)
let bench_store_root = ".siesta-bench-store"

(* Unlike the bench store, the bench ledger survives across runs: every
   strict/quick invocation appends one "bench" run record per workload
   (timings, streaming cost ratio, heap) into this root, and
   `siesta runs ls|html --store .siesta-bench-ledger` charts the
   history. *)
let bench_ledger_root = ".siesta-bench-ledger"

module Ledger = Siesta_ledger.Ledger

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p

type row = {
  workload : string;
  nranks : int;
  events : int;
  trace_s : float;
  synthesize_s : float;
  pipeline_cold_s : float;  (* synthesize_spec ~cache:true, empty store *)
  pipeline_warm_s : float;  (* same call again: all stages served from store *)
  warm_all_hits : bool;
  merge_s : float;  (* batch merge_streams over the materialized events *)
  deterministic : bool;
}

(* The streaming_throughput gate tolerates noise: up to three full
   remeasurements, stopping at the first passing one — a real regression
   fails every attempt, a scheduler hiccup does not. *)
let max_ratio = 8.0
let max_attempts = 3

let stage_total ~prefix timings =
  List.fold_left
    (fun acc (name, s) ->
      let pl = String.length prefix in
      if String.length name >= pl && String.sub name 0 pl = prefix then acc +. s else acc)
    0.0 timings

let measure ~store (workload, nranks) =
  let spec = Pipeline.spec ~workload ~nranks () in
  (* Cold end-to-end through the shipped pipeline (streamed recorder +
     store memoization), then warm to measure the fully-cached path. *)
  let sy, pipeline_cold_s =
    wall (fun () -> Pipeline.synthesize_spec ~cache:true ~store spec)
  in
  let warm, pipeline_warm_s =
    wall (fun () -> Pipeline.synthesize_spec ~cache:true ~store spec)
  in
  let warm_all_hits =
    let st = warm.Pipeline.sy_status in
    st.Pipeline.cs_trace = Pipeline.Cache_hit
    && st.Pipeline.cs_merge = Pipeline.Cache_hit
    && st.Pipeline.cs_proxy = Pipeline.Cache_hit
  in
  let trace_s = stage_total ~prefix:"trace" sy.Pipeline.sy_timings in
  let synthesize_s = stage_total ~prefix:"synthesize" sy.Pipeline.sy_timings in
  let pk = sy.Pipeline.sy_trace.Pipeline.ts_trace in
  let events = Trace_io.packed_total_events pk in
  let streams = (Trace_io.of_packed pk).Trace_io.streams in
  let batch, merge_s = wall (fun () -> MPipe.merge_streams ~nranks streams) in
  {
    workload;
    nranks;
    events;
    trace_s;
    synthesize_s;
    pipeline_cold_s;
    pipeline_warm_s;
    warm_all_hits;
    merge_s;
    deterministic = Merged.equal batch sy.Pipeline.sy_proxy.Siesta_synth.Proxy_ir.merged;
  }

(* ------------------------------------------------------------------ *)
(* Streaming section: what recording and per-rank grammars cost next to
   the plain engine run, and retained-heap scaling, at >= 10^6 events.

   Two gates ride on this under --strict:
     - streaming_throughput: the wall time from the start of
       [Pipeline.trace] until the merge's per-rank grammars are built
       ([MPipe.rank_grammars], one Sequitur run per distinct rank shape)
       stays within [max_ratio] times the plain engine run, which the
       same [Pipeline.trace] call times as "trace.original".  Both walls
       come from one call in one process, so the gate needs no stored
       reference and host speed cancels out.  The span holds the plain
       run, the instrumented run that feeds the recorder and the grammar
       build;
     - streaming_heap_bounded: the recorder's heap at 4x the event
       count stays within 2x its heap at the small size — memory must
       track the number of distinct events, not trace length.

   The recorder's heap is [Obj.reachable_words] of the recorder: every
   word the GC can reach from it, counted exactly, so the number repeats
   from run to run.  The SoA code buffers are Bigarray-backed and
   off-heap by design, so what it counts is exactly the claim under
   test: definitions + compute table + per-rank handle tables. *)

type streaming = {
  st_workload : string;
  st_nranks : int;
  st_events_small : int;
  st_events_large : int;
  st_plain_s : float;  (* the plain engine run ("trace.original"), large size *)
  st_grammars_s : float;  (* Pipeline.trace start -> per-rank grammars built *)
  st_ratio : float;  (* grammars / plain *)
  st_recorder_small_w : int;  (* words reachable from the recorder, small *)
  st_recorder_large_w : int;  (* words reachable from the recorder, 4x events *)
  st_throughput_ok : bool;
  st_heap_ok : bool;
  st_attempts : int;
}

let measure_streaming () =
  let workload = "CG" and nranks = 16 in
  let small_iters = 750 and large_iters = 3000 in
  let trace iters = Pipeline.trace (Pipeline.spec ~workload ~nranks ~iters ()) in
  (* recorder heap ladder: small, then 4x *)
  let recorder_size iters =
    let r = (trace iters).Pipeline.recorder in
    (Recorder.total_events r, Obj.reachable_words (Obj.repr r))
  in
  let events_small, words_small = recorder_size small_iters in
  let events_large, words_large = recorder_size large_iters in
  (* the cost ratio, with up to [max_attempts] measurements *)
  let measure () =
    let (traced, grammars), s =
      wall (fun () ->
          let traced = trace large_iters in
          (traced, MPipe.rank_grammars ~rle:true (Trace_io.pack traced.Pipeline.recorder)))
    in
    ignore (Sys.opaque_identity grammars);
    let plain = List.assoc "trace.original" traced.Pipeline.timings in
    (plain, s, s /. plain)
  in
  let rec attempt k best =
    let ((_, _, ratio) as m) = measure () in
    let best = match best with Some (_, _, r) when r <= ratio -> best | _ -> Some m in
    if ratio <= max_ratio || k >= max_attempts then (Option.get best, k)
    else begin
      Printf.printf "attempt %d/%d: streaming cost ratio %.3f above %.1f, remeasuring\n%!" k
        max_attempts ratio max_ratio;
      attempt (k + 1) best
    end
  in
  let (plain_s, grammars_s, ratio), attempts = attempt 1 None in
  let heap_ok = words_large <= 2 * words_small in
  {
    st_workload = workload;
    st_nranks = nranks;
    st_events_small = events_small;
    st_events_large = events_large;
    st_plain_s = plain_s;
    st_grammars_s = grammars_s;
    st_ratio = ratio;
    st_recorder_small_w = words_small;
    st_recorder_large_w = words_large;
    st_throughput_ok = ratio <= max_ratio;
    st_heap_ok = heap_ok;
    st_attempts = attempts;
  }

(* One "bench" ledger record per workload row, with a retention bound so
   years of CI runs stay a few dozen records. *)
let append_bench_records ~streaming rows =
  let st = Store.open_ ~root:bench_ledger_root () in
  List.iter
    (fun r ->
      ignore
        (Ledger.append st
           (Ledger.make ~kind:"bench"
              ~spec:[ ("workload", r.workload); ("nranks", string_of_int r.nranks) ]
              ~timings:
                [
                  ("trace", r.trace_s);
                  ("synthesize", r.synthesize_s);
                  ("pipeline.cold", r.pipeline_cold_s);
                  ("pipeline.warm", r.pipeline_warm_s);
                  ("merge", r.merge_s);
                ]
              ~sched:
                [
                  ("streaming_cost_ratio", streaming.st_ratio);
                  ("recorder_words_large", float_of_int streaming.st_recorder_large_w);
                ]
              ())))
    rows;
  ignore (Ledger.gc st ~keep:60);
  ignore (Store.gc st)

let json_of_rows ~streaming rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"workload\": %S, \"nranks\": %d, \"events\": %d, \
            \"trace_s\": %.6f, \"synthesize_s\": %.6f, \
            \"pipeline_cold_s\": %.6f, \"pipeline_warm_s\": %.6f, \
            \"warm_all_hits\": %b, \"merge_s\": %.6f, \"deterministic\": %b}%s\n"
           r.workload r.nranks r.events r.trace_s r.synthesize_s r.pipeline_cold_s
           r.pipeline_warm_s r.warm_all_hits r.merge_s r.deterministic
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  let st = streaming in
  Buffer.add_string b
    (Printf.sprintf
       "  ],\n\
       \  \"streaming\": {\"workload\": %S, \"nranks\": %d, \"events_small\": %d, \
        \"events_large\": %d, \"wall_s\": {\"plain_run\": %.6f, \"to_grammars\": %.6f}, \
        \"ratio\": %.3f, \"ratio_max\": %.1f, \"recorder_reachable_words\": {\"small\": %d, \
        \"large\": %d}, \"attempts\": %d},\n"
       st.st_workload st.st_nranks st.st_events_small st.st_events_large st.st_plain_s
       st.st_grammars_s st.st_ratio max_ratio st.st_recorder_small_w st.st_recorder_large_w
       st.st_attempts);
  Buffer.add_string b
    (Printf.sprintf
       "  \"streaming_throughput\": %b,\n\
       \  \"streaming_heap_bounded\": %b\n\
        }\n"
       st.st_throughput_ok st.st_heap_ok);
  Buffer.contents b

let run () =
  Exp_common.heading "Pipeline scaling: cold, warm and merge walls (BENCH_pipeline.json)";
  let quick = !Exp_common.quick in
  let workloads =
    if quick then [ ("CG", 16) ] else [ ("CG", 64); ("MG", 64); ("Sweep3d", 64) ]
  in
  let streaming = measure_streaming () in
  Printf.printf
    "streaming @ %d events: %.3f s to per-rank grammars vs %.3f s plain run (ratio %.3f, %d \
     attempt(s))\n"
    streaming.st_events_large streaming.st_grammars_s streaming.st_plain_s streaming.st_ratio
    streaming.st_attempts;
  Printf.printf "recorder heap: %d -> %d reachable words across a 4x event growth\n"
    streaming.st_recorder_small_w streaming.st_recorder_large_w;
  rm_rf bench_store_root;
  let store = Store.open_ ~root:bench_store_root () in
  let rows = List.map (measure ~store) workloads in
  let header =
    [
      "workload"; "ranks"; "events"; "trace (s)"; "synth (s)"; "cold (s)"; "warm (s)";
      "merge (s)"; "det";
    ]
  in
  let table_rows =
    List.map
      (fun r ->
        [
          r.workload;
          string_of_int r.nranks;
          string_of_int r.events;
          Exp_common.secs r.trace_s;
          Exp_common.secs r.synthesize_s;
          Exp_common.secs r.pipeline_cold_s;
          Exp_common.secs r.pipeline_warm_s;
          Exp_common.secs r.merge_s;
          (if r.deterministic then "yes" else "NO");
        ])
      rows
  in
  Exp_common.table ~header ~rows:table_rows;
  if List.exists (fun r -> not r.deterministic) rows then begin
    let msg = "pipeline-scale: streamed pipeline merge diverged from the batch merge" in
    if !Exp_common.strict then begin
      Printf.eprintf "%s\n" msg;
      exit 1
    end;
    failwith msg
  end;
  append_bench_records ~streaming rows;
  Printf.printf "ledger: appended %d bench record(s) to %s\n" (List.length rows)
    bench_ledger_root;
  let json = json_of_rows ~streaming rows in
  let oc = open_out "BENCH_pipeline.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_pipeline.json\n";
  (* streaming gates *)
  if streaming.st_throughput_ok then
    Printf.printf "streaming_throughput: PASS (ratio %.3f <= %.1f)\n" streaming.st_ratio
      max_ratio
  else begin
    let msg =
      Printf.sprintf
        "pipeline-scale: tracing to per-rank grammars took %.3fx the plain engine run (max \
         %.1f)"
        streaming.st_ratio max_ratio
    in
    if !Exp_common.strict then begin
      Printf.eprintf "%s\n" msg;
      exit 1
    end;
    Printf.printf "streaming_throughput: WARN (%s)\n" msg
  end;
  if streaming.st_heap_ok then
    Printf.printf
      "streaming_heap_bounded: PASS (%d recorder words at 4x events <= 2 * %d)\n"
      streaming.st_recorder_large_w streaming.st_recorder_small_w
  else begin
    let msg =
      Printf.sprintf
        "pipeline-scale: the recorder's heap grew with trace length (%d reachable words at \
         4x events vs %d small)"
        streaming.st_recorder_large_w streaming.st_recorder_small_w
    in
    if !Exp_common.strict then begin
      Printf.eprintf "%s\n" msg;
      exit 1
    end;
    Printf.printf "streaming_heap_bounded: WARN (%s)\n" msg
  end;
  if not (List.for_all (fun r -> r.warm_all_hits) rows) then
    let detail =
      String.concat ", "
        (List.filter_map (fun r -> if r.warm_all_hits then None else Some r.workload) rows)
    in
    if !Exp_common.strict then begin
      Printf.eprintf "pipeline-scale: warm re-run missed the bench store on: %s\n" detail;
      exit 1
    end
    else Printf.printf "warm-cache: WARN (misses on %s)\n" detail
