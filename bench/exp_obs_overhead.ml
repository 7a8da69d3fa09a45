(* Telemetry overhead experiment (BENCH_obs.json).

   Runs the full trace -> merge -> synthesize -> codegen pipeline once
   with the Siesta_obs layer disabled (the default: every instrument is
   a dead branch) and once enabled (spans + metrics recording), and
   counts the minor-heap words each run allocates.  Acceptance: the
   enabled run allocates at most 1% more than the disabled one — the
   "zero-cost when disabled, cheap when on" guarantee every perf PR
   relies on.

   Allocation is the gate, not wall time: the pipeline is deterministic,
   so its word count repeats exactly from run to run, while a ~1% wall
   effect drowns in host noise (a wall-clock gate here read anywhere from
   -4.4% to +5.3% on unchanged code).  Wall time of both runs is still
   reported, as information only. *)

module Pipeline = Siesta.Pipeline
module Codegen = Siesta_synth.Codegen_c
module Span = Siesta_obs.Span
module Metrics = Siesta_obs.Metrics

let budget = 0.01

let run_pipeline spec =
  let traced = Pipeline.trace spec in
  let sy = Pipeline.synthesize traced in
  ignore (Codegen.generate sy.Pipeline.sy_proxy)

(* One pipeline run with telemetry [on] or off: minor words allocated,
   wall seconds, and the span events and metrics it recorded.  The span
   buffer and the metrics registry are drained afterwards. *)
let measure spec ~on =
  Span.set_enabled on;
  Metrics.set_enabled on;
  let w0 = Gc.minor_words () in
  let (), s = Exp_common.wall (fun () -> run_pipeline spec) in
  let words = Gc.minor_words () -. w0 in
  let span_events = Span.event_count () and metrics = List.length (Metrics.snapshot ()) in
  Span.set_enabled false;
  Metrics.set_enabled false;
  Span.reset ();
  Metrics.reset ();
  (words, s, span_events, metrics)

let run () =
  Exp_common.heading "Telemetry overhead: obs off vs. on (BENCH_obs.json)";
  let workload, nranks = ("CG", 32) in
  let spec = Pipeline.spec ~workload ~nranks () in
  (* the warm-up run pays every first-use allocation *)
  ignore (measure spec ~on:false);
  let off_w, off_s, _, _ = measure spec ~on:false in
  let on_w, on_s, span_events, metrics = measure spec ~on:true in
  let overhead = (on_w -. off_w) /. off_w in
  let pass = overhead <= budget in
  Exp_common.table
    ~header:
      [ "workload"; "ranks"; "off (words)"; "on (words)"; "overhead"; "<=1%"; "off (s)"; "on (s)" ]
    ~rows:
      [
        [
          workload;
          string_of_int nranks;
          Printf.sprintf "%.0f" off_w;
          Printf.sprintf "%.0f" on_w;
          Exp_common.pct overhead;
          (if pass then "yes" else "NO");
          Exp_common.secs off_s;
          Exp_common.secs on_s;
        ];
      ];
  Printf.printf "telemetry produced %d span events, %d registered metrics while on\n"
    span_events metrics;
  let oc = open_out "BENCH_obs.json" in
  Printf.fprintf oc
    "{\n  \"workload\": %S,\n  \"nranks\": %d,\n  \"minor_words_off\": %.0f,\n  \
     \"minor_words_on\": %.0f,\n  \"overhead_pct\": %.3f,\n  \"budget_pct\": %.1f,\n  \
     \"wall_s_off\": %.6f,\n  \"wall_s_on\": %.6f,\n  \"span_events\": %d,\n  \
     \"metrics\": %d,\n  \"pass\": %b\n}\n"
    workload nranks off_w on_w (100.0 *. overhead) (100.0 *. budget) off_s on_s span_events
    metrics pass;
  close_out oc;
  Printf.printf "wrote BENCH_obs.json\n";
  if not pass then begin
    Printf.printf "WARNING: telemetry allocates %s more than the disabled run (budget 1%%)\n"
      (Exp_common.pct overhead);
    if !Exp_common.strict then begin
      Printf.eprintf "obs-overhead: telemetry allocation overhead %.3f%% exceeds 1%% (--strict)\n"
        (100.0 *. overhead);
      exit 1
    end
  end
