(** End-to-end Siesta pipeline: trace -> compress -> merge -> synthesize
    -> (generate C | replay).

    This is the library's primary entry point.  A typical use:
    {[
      let spec = Pipeline.{ default_spec with workload = Registry.find "CG" } in
      let traced = Pipeline.trace spec in
      let sy = Pipeline.synthesize traced in
      let c_code = Siesta_synth.Codegen_c.generate sy.sy_proxy in
      let replayed = Pipeline.run_proxy sy ~platform ~impl in
    ]}

    Every synthesis, from a live run ({!synthesize}), from a spec with
    optional stage memoization ({!synthesize_spec}) or from a dumped
    trace blob ({!synthesize_blob}), runs the same stages and returns a
    {!synthesis}. *)

type spec = {
  workload : Siesta_workloads.Registry.t;
  nranks : int;
  iters : int option;  (** [None] = the workload's default iteration count *)
  platform : Siesta_platform.Spec.t;
  impl : Siesta_platform.Mpi_impl.t;
  seed : int;
  cluster_threshold : float;  (** computation-event clustering (Section 2.3) *)
}

val default_spec : spec
(** CG at 64 ranks on platform A under openmpi, seed 42. *)

val spec :
  ?iters:int ->
  ?platform:Siesta_platform.Spec.t ->
  ?impl:Siesta_platform.Mpi_impl.t ->
  ?seed:int ->
  ?cluster_threshold:float ->
  workload:string ->
  nranks:int ->
  unit ->
  spec
(** Convenience constructor; resolves the workload by name.
    @raise Not_found for an unknown workload
    @raise Invalid_argument if [nranks] is invalid for the workload. *)

type traced = {
  run_spec : spec;
  original : Siesta_mpi.Engine.result;  (** uninstrumented run *)
  instrumented : Siesta_mpi.Engine.result;  (** run under the tracer *)
  recorder : Siesta_trace.Recorder.t;
  overhead : float;  (** (instrumented - original) / original elapsed *)
  timings : (string * float) list;
      (** wall seconds per stage ("trace.original", "trace.instrumented"),
          measured on {!Siesta_obs.Clock} — the same clock the spans and
          bench drivers use *)
}

val trace : spec -> traced
(** Run the workload twice — bare and instrumented — on the generation
    platform.  The recorder's decoded events match the engine's calls one
    to one (a test checks every registry workload), and the [make check]
    smoke replays a proxy synthesized from a 10⁶-event trace losslessly
    against the original program. *)

val run_original :
  spec ->
  platform:Siesta_platform.Spec.t ->
  impl:Siesta_platform.Mpi_impl.t ->
  Siesta_mpi.Engine.result
(** Re-run the traced program itself elsewhere (the evaluation's ground
    truth for portability experiments). *)

(** {1 Fidelity observatory}

    Simulated-clock instrumentation of the runs themselves — see
    {!Siesta_analysis.Timeline} / {!Siesta_analysis.Divergence}. *)

val record_timeline : spec -> Siesta_analysis.Timeline.t * Siesta_mpi.Engine.result
(** Run the workload once under a timeline observer (timing identical to
    {!run_original} on the generation platform).  The one source of the
    original's full timeline: the report, [siesta diff]'s critical path
    and every timeline file record it here. *)

val capture_original : spec -> Siesta_analysis.Divergence.capture
(** Divergence capture (per-call-type counts and bytes, send matrix,
    per-event counters and per-rank time totals) of the original program
    on the generation platform. *)

val capture_proxy_ir : spec -> Siesta_synth.Proxy_ir.t -> Siesta_analysis.Divergence.capture
(** Same capture for a synthesized proxy's replay on the generation
    platform.  A fidelity sweep uses it to diff each per-factor proxy
    against one original capture. *)

val spec_kvs : spec -> (string * string) list
(** The spec as flat strings, as stamped into run-ledger records (so
    [runs compare] can refuse to baseline across different workloads). *)

val ledger_fidelity_of_report :
  ?verdict:Siesta_analysis.Divergence.verdict ->
  Siesta_analysis.Divergence.report ->
  Siesta_ledger.Ledger.fidelity
(** The report's headline scores in ledger form.  [verdict] overrides
    the stamped verdict name — the fidelity sweep passes
    [Divergence.verdict_at] results so shrunken-by-design byte deltas
    don't read as communication divergence. *)

type fidelity = {
  f_original : Siesta_analysis.Divergence.capture;
  f_proxy : Siesta_analysis.Divergence.capture;
  f_report : Siesta_analysis.Divergence.report;
  f_check : Siesta_analysis.Comm_check.report option;
      (** static communication check of the merged grammar; always
          [Some] from {!diff_synthesis} *)
}

(** {1 Incremental cache}

    Stage-level memoization over the content-addressed artifact store
    ({!Siesta_store.Store}).  Each stage's output is bound to a key
    hashing exactly the inputs that determine it (see [Cache]):

    - {e trace}: workload, nranks, iters, seed, platform, impl,
      cluster_threshold;
    - {e merge}: the trace blob's content hash;
    - {e proxy}: the trace hash (its events determine the merged
      grammar, its compute table feeds the QP search), the scaling
      [factor] and the platform/impl pair.

    A proxy blob embeds its merged grammar, so the merge stage is looked
    up (or run) only when the proxy search misses: a warm run with an
    unchanged spec reads the trace and proxy blobs, decodes one grammar
    and produces a byte-identical C proxy, and its merge reports
    [Cache_hit].  Re-running with only a different [factor] reuses the
    cached trace and merged program and pays only proxy search +
    codegen.  Hits/misses/bytes are published as [cache.*] and [store.*]
    metrics and appear in [siesta report]'s Cache section. *)

type cache_outcome = Cache_off | Cache_miss | Cache_hit

val outcome_name : cache_outcome -> string
(** ["off"], ["miss"] or ["hit"]. *)

type cache_status = {
  cs_root : string option;  (** store root, when caching was on *)
  cs_trace : cache_outcome;
  cs_merge : cache_outcome;
  cs_proxy : cache_outcome;
}

type trace_stage = {
  ts_spec : spec;
  ts_trace : Siesta_trace.Trace_io.packed;
      (** the trace itself, in the struct-of-arrays representation
          (materialize boxed streams with
          {!Siesta_trace.Trace_io.of_packed} when needed) *)
  ts_meta : Siesta_store.Codec.trace_meta;
      (** run measurements (elapsed, calls, raw bytes) — cached with the
          trace, so reports need no engine re-run *)
  ts_table : Siesta_trace.Compute_table.t;
  ts_hash : string option;  (** trace blob content hash (caching on) *)
  ts_outcome : cache_outcome;
  ts_traced : traced option;  (** the live run, on miss / cache-off *)
  ts_timings : (string * float) list;
}

val trace_stage : ?store:Siesta_store.Store.t -> spec -> trace_stage
(** The trace stage, memoized in [store] when one is given; without a
    store it always runs. *)

type synthesis = {
  sy_trace : trace_stage;
  sy_proxy : Siesta_synth.Proxy_ir.t;
      (** the merged grammar ([sy_proxy.merged]) plus one block
          combination per computation cluster *)
  sy_factor : float;
  sy_timings : (string * float) list;
      (** cached stages appear as "<stage>.cached" lookup times *)
  sy_status : cache_status;
}

val synthesize : ?factor:float -> traced -> synthesis
(** Compress, merge and search computation proxies for a live run, with
    every stage [Cache_off].  [factor] (default 1) produces a shrunk
    proxy. *)

val synthesize_blob : ?factor:float -> spec -> string -> synthesis
(** Merge and search computation proxies for a framed trace blob
    ({!Siesta_store.Codec.encode_trace}: a [siesta trace --dump] file or
    a store's trace object), with every stage [Cache_off].  The trace,
    its compute table and its run measurements come from the blob; [spec] supplies the platform and implementation the
    proxy is searched for.  A blob of a run of [spec] yields the
    synthesis {!synthesize} gives for that run.
    @raise Siesta_store.Codec.Corrupt on a damaged or foreign file. *)

val synthesize_spec :
  ?cache:bool -> ?store:Siesta_store.Store.t -> ?factor:float -> spec -> synthesis
(** The whole pipeline with optional stage memoization.  Caching is on
    when a [store] is given or [~cache:true] is passed ([cache] defaults
    to whether a store is given; [~cache:true] without one opens
    {!Siesta_store.Store.default_root}).  With caching off this is
    exactly [synthesize (trace s)]; with it on each stage first consults
    the store.  Decoded artifacts are
    {!Siesta_merge.Merged.equal} to freshly computed ones and generate
    byte-identical C (qcheck-enforced). *)

val run_proxy :
  synthesis ->
  platform:Siesta_platform.Spec.t ->
  impl:Siesta_platform.Mpi_impl.t ->
  Siesta_mpi.Engine.result
(** Execute the proxy on an arbitrary platform/implementation pair.  The
    returned elapsed time is the raw proxy time; multiply by
    [sy_factor] to estimate the original. *)

val diff_synthesis : synthesis -> fidelity
(** Capture original and proxy on the generation platform, diff them, and
    publish the headline scores as [Siesta_obs.Metrics] gauges (a no-op
    when the registry is disabled).  Also runs the static communication
    check ({!check_synthesis}) over the proxy's own grammar
    ([sy_proxy.merged], so a perturbed proxy is checked as perturbed) into
    [f_check].  Drives [siesta diff] and the report's
    Fidelity/Correctness sections. *)

val check_synthesis :
  ?fault:Siesta_analysis.Comm_check.fault -> synthesis -> Siesta_analysis.Comm_check.report
(** Run the static communication-correctness check over the synthesis'
    merged grammar ([sy_proxy.merged]) — no replay, purely symbolic
    expansion.  [fault] perturbs the merged program first
    ({!Siesta_analysis.Comm_check.perturb}), which is how the CLI's
    [--perturb] flag and the tests prove the checker actually fires.
    Publishes [check.*] metrics.  Drives [siesta check]. *)

(** {1 Run-ledger records}

    The pipeline appends nothing: the front end that owns an invocation
    builds its one record here and appends it to the store it opened
    ({!Siesta_ledger.Ledger}). *)

val stage_outcomes : cache_status -> (string * string) list
(** [("trace", _); ("merge", _); ("proxy", _)]: each stage's
    {!outcome_name}, in stage order. *)

val trace_record : trace_stage -> Siesta_ledger.Ledger.record
(** The ["trace"] record of a [siesta trace] invocation: the spec, the
    trace outcome and hash, and the trace-stage timings. *)

val ledger_record :
  kind:string ->
  ?diff:fidelity * float ->
  ?check:Siesta_analysis.Comm_check.report * float ->
  synthesis ->
  Siesta_ledger.Ledger.record
(** The record of an invocation over one synthesis: the spec with its
    factor, the cache root, the {!stage_outcomes}, the trace hash and
    the stage timings.  [diff] is a {!diff_synthesis} result with its
    wall seconds; it adds the fidelity block, the check block of
    [f_check] and a ["diff.total"] timing.  [check] is a
    {!check_synthesis} result with its wall seconds; it adds the check
    block (in place of [f_check]'s) and a ["check.total"] timing. *)
