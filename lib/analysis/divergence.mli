(** Proxy-vs-original divergence report (`siesta diff`).

    The paper's claim is two-sided: the synthesized proxy replays the
    original's communication *losslessly* and its computation
    *approximately*.  This module measures both sides on the simulated
    platform.  It {!capture}s a run — per-call-type counts and bytes, the
    send matrix, per-event computation counters and each rank's
    simulated-time totals from {!Timeline} — for the original program and
    for the proxy replay, then {!diff}s the two:

    - {e communication}: per-call-type count and volume deltas, plus the
      normalized L1 distance between the world-rank send matrices.  Any
      non-zero delta breaks the lossless claim;
    - {e computation}: the paper's six counter metrics compared
      per-event (events paired in order within each rank), reported as
      relative error mean / p95 / max per metric;
    - {e time}: per-rank compute/transfer/wait totals compared
      (timeline distance) and total simulated-time relative error.

    The typed {!verdict} drives the CLI exit code: communication
    divergence is always fatal; computation divergence is reported
    against a tolerance. *)

module Engine = Siesta_mpi.Engine
module Call = Siesta_mpi.Call
module Counters = Siesta_perf.Counters

type capture = {
  c_nranks : int;
  c_result : Engine.result;
  c_counts : int array;  (** calls per {!Call.index} *)
  c_bytes : int array;  (** {!Call.payload_bytes} per {!Call.index} *)
  c_send_matrix : float array array;
      (** world-rank send-side bytes, [c_send_matrix.(src).(dst)]: Send,
          Isend and a Sendrecv's send side (the whole call's payload),
          added in each rank's call order *)
  c_compute : Counters.t array array;
      (** per rank, one (noisy) counter delta per computation event, in
          order — read PMPI-style at call boundaries *)
  c_kind_totals : (Timeline.kind * float) list array;
      (** per rank, {!Timeline.kind_totals} of the run's timeline *)
}

val capture :
  platform:Siesta_platform.Spec.t ->
  impl:Siesta_platform.Mpi_impl.t ->
  nranks:int ->
  ?seed:int ->
  (Engine.ctx -> unit) ->
  capture
(** Run [program] under a zero-overhead hook and
    {!Timeline.record_totals}, folding each call into the summaries
    {!diff} reads as the engine runs.  Only the computation deltas grow
    with the run; no call and no timeline segment is kept.  Timing is
    identical to an uninstrumented run with the same [seed] (default
    42), so a caller that needs the original's full timeline records it
    with {!Timeline.record} on the same seed. *)

type call_stat = {
  cs_name : string;
  cs_count_orig : int;
  cs_count_proxy : int;
  cs_bytes_orig : int;
  cs_bytes_proxy : int;
}

type metric_err = {
  me_metric : Counters.metric;
  me_mean : float;
  me_p95 : float;
  me_max : float;
  me_events : int;  (** paired events that entered the statistics *)
}

type report = {
  r_nranks : int;
  r_call_stats : call_stat list;  (** union of observed call types, by name *)
  r_comm_matrix_dist : float;  (** L1 distance / original volume *)
  r_lossless : bool;
  r_reasons : string list;  (** human-readable lossless violations *)
  r_count_delta : int;  (** sum over call types of |count delta| *)
  r_bytes_delta : int;  (** sum over call types of |bytes delta| *)
  r_unreceived_delta : int;
      (** proxy unreceived minus original's — the raw
          {!Engine.result}[.unreceived_messages] totals, wildcard-prone
          leftovers included *)
  r_orphaned_delta : int;
      (** same delta over provably unmatched sends only
          ([unreceived_messages - unreceived_wildcard_prone] per side):
          leftovers a later wildcard recv could have absorbed are
          excluded, so this is the structural quantity *)
  r_ranks_differ : bool;
  r_compute_errors : metric_err list;  (** one entry per paper metric *)
  r_compute_unpaired : int;  (** computation events without a pair *)
  r_timeline_distance : float;
      (** mean over ranks of sum over kinds of absolute per-kind time
          deltas, normalized by the original's elapsed time *)
  r_time_orig : float;
  r_time_proxy : float;
  r_time_error : float;  (** |proxy - orig| / orig *)
}

val diff : original:capture -> proxy:capture -> report

type verdict =
  | Faithful
  | Compute_divergent of string  (** comm lossless, computation off tolerance *)
  | Comm_divergent of string list  (** replay is not lossless — fatal *)

val verdict : ?compute_tolerance:float -> report -> verdict
(** [compute_tolerance] (default 0.5) bounds each metric's *mean*
    per-event relative error. *)

val structural_reasons : report -> string list
(** The lossless violations a computation-shrinking factor must never
    introduce: rank-count mismatch, per-call-type {e count} deltas, and
    an unmatched-send imbalance.  The last gates on [r_orphaned_delta]
    (not the raw unreceived total), so wildcard-matching ambiguity can't
    misfire it; its wording ("unmatched sends delta") matches
    {!Comm_check}'s static violations.  Byte/volume deltas are excluded —
    a shrunk proxy rewrites blocking-transfer volumes by design. *)

val structural_lossless : report -> bool
(** [structural_reasons r = []]. *)

val verdict_at : ?compute_tolerance:float -> factor:float -> report -> verdict
(** Factor-aware verdict for fidelity sweeps.  At [factor <= 1] this is
    {!verdict}.  At larger factors, only {!structural_reasons} count as
    communication divergence (byte deltas are the shrink working as
    specified), and the compute check bounds the {e excess} of each
    metric's mean error over the expected shrink error [1 - 1/factor]
    by [compute_tolerance] (default 0.5). *)

val verdict_name : verdict -> string

val to_markdown : report -> string
val to_json : report -> string

val publish_metrics : report -> unit
(** Register the headline scores as [Siesta_obs.Metrics] gauges
    ([diff.comm.*], [diff.compute.*], [diff.timeline.*], [diff.time.*])
    so they land in [--metrics-out]. *)

val perturb : [ `Comm | `Compute ] -> Siesta_synth.Proxy_ir.t -> Siesta_synth.Proxy_ir.t
(** Deliberately damaged copy of a proxy IR, for testing the detector:
    [`Comm] bumps the count of the first send-side terminal (falling back
    to a collective), [`Compute] scales every block combination by 1.5. *)
