module Engine = Siesta_mpi.Engine
module Recorder = Siesta_trace.Recorder
module Registry = Siesta_workloads.Registry
module Merged = Siesta_merge.Merged
module Merge_pipeline = Siesta_merge.Pipeline
module Proxy_ir = Siesta_synth.Proxy_ir
module Spec_p = Siesta_platform.Spec
module Mpi_impl = Siesta_platform.Mpi_impl
module Span = Siesta_obs.Span
module Metrics = Siesta_obs.Metrics
module Log = Siesta_obs.Log
module Clock = Siesta_obs.Clock
module Timeline = Siesta_analysis.Timeline
module Divergence = Siesta_analysis.Divergence
module Comm_check = Siesta_analysis.Comm_check
module Store = Siesta_store.Store
module Codec = Siesta_store.Codec
module Trace_io = Siesta_trace.Trace_io
module Compute_table = Siesta_trace.Compute_table
module Ledger = Siesta_ledger.Ledger

type spec = {
  workload : Registry.t;
  nranks : int;
  iters : int option;
  platform : Spec_p.t;
  impl : Mpi_impl.t;
  seed : int;
  cluster_threshold : float;
}

let default_spec =
  {
    workload = Registry.find "CG";
    nranks = 64;
    iters = None;
    platform = Spec_p.platform_a;
    impl = Mpi_impl.openmpi;
    seed = 42;
    cluster_threshold = 0.05;
  }

let spec ?iters ?(platform = Spec_p.platform_a) ?(impl = Mpi_impl.openmpi) ?(seed = 42)
    ?(cluster_threshold = 0.05) ~workload ~nranks () =
  let w = Registry.find workload in
  if not (w.Registry.valid_procs nranks) then
    invalid_arg (Printf.sprintf "%s cannot run on %d processes" w.Registry.name nranks);
  { workload = w; nranks; iters; platform; impl; seed; cluster_threshold }

type traced = {
  run_spec : spec;
  original : Engine.result;
  instrumented : Engine.result;
  recorder : Recorder.t;
  overhead : float;
  timings : (string * float) list;
}

let program_of s = s.workload.Registry.program ~nranks:s.nranks ~iters:s.iters

(* The spec as flat strings, stamped into run-ledger records so
   [runs compare] can refuse to baseline across different workloads. *)
let spec_kvs s =
  [
    ("workload", s.workload.Registry.name);
    ("nranks", string_of_int s.nranks);
    ("iters", (match s.iters with None -> "auto" | Some i -> string_of_int i));
    ("seed", string_of_int s.seed);
    ("platform", s.platform.Spec_p.name);
    ("impl", s.impl.Mpi_impl.name);
    ("cluster_threshold", Printf.sprintf "%g" s.cluster_threshold);
  ]

(* Time a stage under a pipeline-category span; wall seconds are kept in
   the result records so `siesta report` can print a stage table without
   a trace sink being configured. *)
let stage name f =
  let (r, s) = Clock.wall (fun () -> Span.with_ ~cat:"pipeline" name f) in
  if Metrics.enabled () then
    Metrics.observe (Metrics.histogram (Printf.sprintf "pipeline.%s_s" name)) s;
  (r, (name, s))

let trace s =
  let program = program_of s in
  let original, t_orig =
    stage "trace.original" (fun () ->
        Engine.run ~platform:s.platform ~impl:s.impl ~nranks:s.nranks ~seed:s.seed program)
  in
  let recorder = Recorder.create ~nranks:s.nranks ~cluster_threshold:s.cluster_threshold () in
  let instrumented, t_instr =
    stage "trace.instrumented" (fun () ->
        Engine.run ~platform:s.platform ~impl:s.impl ~nranks:s.nranks ~seed:s.seed
          ~hook:(Recorder.hook recorder) program)
  in
  let overhead =
    if original.Engine.elapsed = 0.0 then 0.0
    else (instrumented.Engine.elapsed -. original.Engine.elapsed) /. original.Engine.elapsed
  in
  if Metrics.enabled () then begin
    Metrics.incr (Metrics.counter "pipeline.traces") 1;
    Metrics.incr (Metrics.counter "pipeline.trace.events") (Recorder.total_events recorder);
    Metrics.incr (Metrics.counter "pipeline.trace.calls") instrumented.Engine.total_calls
  end;
  Log.info (fun () ->
      ( "pipeline.trace",
        [
          ("workload", s.workload.Registry.name);
          ("nranks", string_of_int s.nranks);
          ("events", string_of_int (Recorder.total_events recorder));
          ("calls", string_of_int instrumented.Engine.total_calls);
          ("overhead_pct", Printf.sprintf "%.2f" (100.0 *. overhead));
        ] ));
  { run_spec = s; original; instrumented; recorder; overhead; timings = [ t_orig; t_instr ] }

let run_original s ~platform ~impl =
  Engine.run ~platform ~impl ~nranks:s.nranks ~seed:s.seed (program_of s)

(* ------------------------------------------------------------------ *)
(* Fidelity observatory (simulated clock) *)

let record_timeline s =
  Span.with_ ~cat:"pipeline" "timeline" (fun () ->
      Timeline.record ~platform:s.platform ~impl:s.impl ~nranks:s.nranks ~seed:s.seed
        (program_of s))

let capture_original s =
  Span.with_ ~cat:"pipeline" "capture.original" (fun () ->
      Divergence.capture ~platform:s.platform ~impl:s.impl ~nranks:s.nranks ~seed:s.seed
        (program_of s))

let capture_proxy_ir s proxy =
  Span.with_ ~cat:"pipeline" "capture.proxy" (fun () ->
      Divergence.capture ~platform:s.platform ~impl:s.impl ~nranks:s.nranks ~seed:s.seed
        (Proxy_ir.program proxy))

(* ------------------------------------------------------------------ *)
(* Static communication check *)

let ledger_check_of_report (r : Comm_check.report) =
  {
    Ledger.lc_verdict = Comm_check.verdict_name (Comm_check.verdict r);
    lc_violations = List.length r.Comm_check.k_reasons;
    lc_reasons = r.Comm_check.k_reasons;
  }

type fidelity = {
  f_original : Divergence.capture;
  f_proxy : Divergence.capture;
  f_report : Divergence.report;
  f_check : Comm_check.report option;
}

let ledger_fidelity_of_report ?verdict (r : Divergence.report) =
  let v = match verdict with Some v -> v | None -> Divergence.verdict r in
  {
    Ledger.lf_verdict = Divergence.verdict_name v;
    lf_lossless = r.Divergence.r_lossless;
    lf_time_error = r.Divergence.r_time_error;
    lf_timeline_distance = r.Divergence.r_timeline_distance;
    lf_comm_matrix_dist = r.Divergence.r_comm_matrix_dist;
    lf_max_compute_mean =
      List.fold_left
        (fun acc (e : Divergence.metric_err) -> Float.max acc e.Divergence.me_mean)
        0.0 r.Divergence.r_compute_errors;
  }

(* ------------------------------------------------------------------ *)
(* Incremental cache (content-addressed artifact store) *)

type cache_outcome = Cache_off | Cache_miss | Cache_hit

let outcome_name = function
  | Cache_off -> "off"
  | Cache_miss -> "miss"
  | Cache_hit -> "hit"

type cache_status = {
  cs_root : string option;
  cs_trace : cache_outcome;
  cs_merge : cache_outcome;
  cs_proxy : cache_outcome;
}

type trace_stage = {
  ts_spec : spec;
  ts_trace : Trace_io.packed;
  ts_meta : Codec.trace_meta;
  ts_table : Compute_table.t;
  ts_hash : string option;
  ts_outcome : cache_outcome;
  ts_traced : traced option;
  ts_timings : (string * float) list;
}

type synthesis = {
  sy_trace : trace_stage;
  sy_proxy : Proxy_ir.t;
  sy_factor : float;
  sy_timings : (string * float) list;
  sy_status : cache_status;
}

let meta_of_traced (tr : traced) =
  {
    Codec.tm_original_elapsed = tr.original.Engine.elapsed;
    tm_instrumented_elapsed = tr.instrumented.Engine.elapsed;
    tm_original_calls = tr.original.Engine.total_calls;
    tm_instrumented_calls = tr.instrumented.Engine.total_calls;
    tm_total_events = Recorder.total_events tr.recorder;
    tm_raw_bytes = Recorder.raw_trace_bytes tr.recorder;
  }

(* Resolve key -> fetch blob -> decode.  Every failure mode (unbound
   key, missing or corrupt object, schema mismatch) degrades to a miss:
   the stage recomputes and re-puts, and [store verify] reports the
   damage. *)
let cache_lookup st ~stage ~key ~decode =
  match Store.resolve st ~key with
  | None -> None
  | Some hash -> (
      match Store.get st hash with
      | None -> None
      | Some blob -> (
          match decode blob with
          | v -> Some (hash, v)
          | exception Codec.Corrupt m ->
              Log.warn (fun () ->
                  ("pipeline.cache", [ ("stage", stage); ("hash", hash); ("error", m) ]));
              None))

(* One pipeline stage, memoized when a store is given.  [run ()] computes
   the value and returns it with its own stage timings.  With a store, a
   decodable binding for [key ()] replaces the run (timed as
   "<span>.cached"), and a freshly computed value is put and bound (timed
   as "<span>.store", after the run's own timings).  Without a store the
   stage just runs: outcome [Cache_off], no blob hash. *)
let memo store ~stage:name ~span ~kind ~key ~decode ~encode s run =
  match store with
  | None ->
      let v, timings = run () in
      (v, None, Cache_off, timings)
  | Some st -> (
      let key, descr = key () in
      let found, t_lookup =
        stage (span ^ ".cached") (fun () -> cache_lookup st ~stage:name ~key ~decode)
      in
      let tally = if Option.is_some found then "hits" else "misses" in
      if Metrics.enabled () then begin
        Metrics.incr (Metrics.counter ("cache." ^ tally)) 1;
        Metrics.incr (Metrics.counter (Printf.sprintf "cache.%s.%s" name tally)) 1
      end;
      Log.info (fun () ->
          ( "pipeline.cache",
            [
              ("stage", name);
              ("workload", s.workload.Registry.name);
              ("nranks", string_of_int s.nranks);
              ("outcome", if Option.is_some found then "hit" else "miss");
            ] ));
      match found with
      | Some (hash, v) -> (v, Some hash, Cache_hit, [ t_lookup ])
      | None ->
          let v, timings = run () in
          let hash, t_store =
            stage (span ^ ".store") (fun () ->
                let hash = Store.put st (encode v) in
                Store.bind st ~key ~hash ~kind ~descr;
                hash)
          in
          (v, Some hash, Cache_miss, timings @ [ t_store ]))

(* The compute table is restored from the packed centroids on every
   path, so a cold run searches exactly the proxies a warm run (which can
   only restore) does. *)
let trace_stage_of s meta pk traced =
  {
    ts_spec = s;
    ts_trace = pk;
    ts_meta = meta;
    ts_table = Trace_io.packed_compute_table pk;
    ts_hash = None;
    ts_outcome = Cache_off;
    ts_traced = traced;
    ts_timings = (match traced with Some tr -> tr.timings | None -> []);
  }

let stage_of_traced tr =
  trace_stage_of tr.run_spec (meta_of_traced tr) (Trace_io.pack tr.recorder) (Some tr)

let trace_stage ?store s =
  let ts, hash, outcome, timings =
    memo store ~stage:"trace" ~span:"trace" ~kind:"trace" s
      ~key:(fun () ->
        Cache.trace_key ~workload:s.workload.Registry.name ~nranks:s.nranks ~iters:s.iters
          ~seed:s.seed ~platform:s.platform.Spec_p.name ~impl:s.impl.Mpi_impl.name
          ~cluster_threshold:s.cluster_threshold)
      ~decode:(fun blob ->
        let meta, pk = Codec.decode_trace blob in
        trace_stage_of s meta pk None)
      ~encode:(fun ts -> Codec.encode_trace ~meta:ts.ts_meta ts.ts_trace)
      (fun () ->
        let ts = stage_of_traced (trace s) in
        (ts, ts.ts_timings))
  in
  { ts with ts_hash = hash; ts_outcome = outcome; ts_timings = timings }

(* Merge and proxy search over a trace stage: the one path every
   synthesis runs, cold or cached.  Both stage keys name the trace blob's
   hash, which exists whenever a store does.  A proxy blob embeds its
   merged grammar, so the merge stage (its lookup or the merge itself)
   runs only when the proxy search does, and a decoded proxy reports the
   merge as a hit: the store supplied its grammar. *)
let merge_and_search store ~factor ts =
  let s = ts.ts_spec in
  let trace_hash () = Option.get ts.ts_hash in
  let (proxy, m_outcome), _, p_outcome, timings =
    memo store ~stage:"proxy" ~span:"synthesize" ~kind:"proxy" s
      ~key:(fun () ->
        Cache.proxy_key ~trace_hash:(trace_hash ()) ~factor ~platform:s.platform.Spec_p.name
          ~impl:s.impl.Mpi_impl.name)
      ~decode:(fun blob -> (Codec.decode_proxy blob, Cache_hit))
      ~encode:(fun (proxy, _) -> Codec.encode_proxy proxy)
      (fun () ->
        let merged, _, m_outcome, m_timings =
          memo store ~stage:"merge" ~span:"merge" ~kind:"merged" s
            ~key:(fun () -> Cache.merge_key ~trace_hash:(trace_hash ()))
            ~decode:Codec.decode_merged ~encode:Codec.encode_merged
            (fun () ->
              let merged, t_merge =
                stage "merge" (fun () -> Merge_pipeline.merge_packed ts.ts_trace)
              in
              (merged, [ t_merge ]))
        in
        let proxy, t_synth =
          stage "synthesize" (fun () ->
              Proxy_ir.synthesize ~platform:s.platform ~impl:s.impl ~factor ~merged
                ~compute_table:ts.ts_table ())
        in
        ((proxy, m_outcome), m_timings @ [ t_synth ]))
  in
  Option.iter
    (fun st ->
      if Metrics.enabled () then
        Metrics.set (Metrics.gauge "store.size_bytes") (float_of_int (Store.size_bytes st)))
    store;
  Log.info (fun () ->
      ( "pipeline.synthesize",
        [
          ("workload", s.workload.Registry.name);
          ("factor", Printf.sprintf "%g" factor);
          ("merged", Merged.stats proxy.Proxy_ir.merged);
        ]
        @ List.map (fun (name, t) -> (name ^ "_s", Printf.sprintf "%.6f" t)) timings ));
  {
    sy_trace = ts;
    sy_proxy = proxy;
    sy_factor = factor;
    sy_timings = ts.ts_timings @ timings;
    sy_status =
      {
        cs_root = Option.map Store.root store;
        cs_trace = ts.ts_outcome;
        cs_merge = m_outcome;
        cs_proxy = p_outcome;
      };
  }

let synthesize ?(factor = 1.0) traced = merge_and_search None ~factor (stage_of_traced traced)

let synthesize_blob ?(factor = 1.0) s blob =
  let meta, pk = Codec.decode_trace blob in
  merge_and_search None ~factor (trace_stage_of s meta pk None)

(* Caching is on when asked for or when a store is given; on without a
   store means the default root. *)
let synthesize_spec ?cache ?store ?(factor = 1.0) s =
  let store =
    match (cache, store) with
    | Some false, _ | None, None -> None
    | _, Some st -> Some st
    | Some true, None -> Some (Store.open_ ())
  in
  merge_and_search store ~factor (trace_stage ?store s)

let run_proxy sy ~platform ~impl =
  let s = sy.sy_trace.ts_spec in
  Engine.run ~platform ~impl ~nranks:s.nranks ~seed:s.seed (Proxy_ir.program sy.sy_proxy)

let check_synthesis ?fault sy =
  let s = sy.sy_trace.ts_spec in
  let merged = sy.sy_proxy.Proxy_ir.merged in
  let merged = match fault with None -> merged | Some f -> Comm_check.perturb f merged in
  let report =
    Span.with_ ~cat:"pipeline" "check" (fun () -> Comm_check.check ~impl:s.impl merged)
  in
  Comm_check.publish_metrics report;
  Log.info (fun () ->
      ( "pipeline.check",
        [
          ("workload", s.workload.Registry.name);
          ("nranks", string_of_int s.nranks);
          ("verdict", Comm_check.verdict_name (Comm_check.verdict report));
          ("violations", string_of_int (List.length report.Comm_check.k_reasons));
        ] ));
  report

let diff_synthesis sy =
  let s = sy.sy_trace.ts_spec in
  let check = check_synthesis sy in
  let original = capture_original s in
  let proxy = capture_proxy_ir s sy.sy_proxy in
  let report = Span.with_ ~cat:"pipeline" "diff" (fun () -> Divergence.diff ~original ~proxy) in
  Divergence.publish_metrics report;
  Log.info (fun () ->
      ( "pipeline.diff",
        [
          ("workload", s.workload.Registry.name);
          ("lossless", string_of_bool report.Divergence.r_lossless);
          ("time_error", Printf.sprintf "%.4f" report.Divergence.r_time_error);
          ("timeline_distance", Printf.sprintf "%.4e" report.Divergence.r_timeline_distance);
        ] ));
  { f_original = original; f_proxy = proxy; f_report = report; f_check = Some check }

(* ------------------------------------------------------------------ *)
(* Run-ledger records.  The front end that owns an invocation builds its
   one record here and appends it to the store it opened. *)

let stage_outcomes st =
  List.map
    (fun (stage, o) -> (stage, outcome_name o))
    [ ("trace", st.cs_trace); ("merge", st.cs_merge); ("proxy", st.cs_proxy) ]

let trace_hash_kv ts = match ts.ts_hash with Some h -> [ ("trace_hash", h) ] | None -> []

let trace_record ts =
  Ledger.make ~kind:"trace" ~spec:(spec_kvs ts.ts_spec)
    ~cache:(("trace", outcome_name ts.ts_outcome) :: trace_hash_kv ts)
    ~timings:ts.ts_timings ()

let ledger_record ~kind ?diff ?check sy =
  let st = sy.sy_status in
  let total name = function Some (_, s) -> [ (name, s) ] | None -> [] in
  let check_report =
    match check with Some (c, _) -> Some c | None -> Option.bind diff (fun (f, _) -> f.f_check)
  in
  Ledger.make ~kind
    ~spec:(("factor", Printf.sprintf "%g" sy.sy_factor) :: spec_kvs sy.sy_trace.ts_spec)
    ~cache:
      ((match st.cs_root with Some root -> [ ("root", root) ] | None -> [])
      @ stage_outcomes st @ trace_hash_kv sy.sy_trace)
    ~timings:(sy.sy_timings @ total "diff.total" diff @ total "check.total" check)
    ?fidelity:(Option.map (fun (f, _) -> ledger_fidelity_of_report f.f_report) diff)
    ?check:(Option.map ledger_check_of_report check_report)
    ()
