(** Persistent run ledger: one schema-versioned record per front-end
    invocation, appended into the content-addressed artifact store.

    Each record is a JSON document inside a {!Siesta_store.Codec} frame
    of kind ["run"] (so [store verify] checks ledger records like any
    stage blob) bound in the manifest under a content hash of its
    descriptor, [run #<seq> <kind> id=<id> t=<time>].  Records carry
    everything needed to compare two runs after the fact: provenance
    (git describe, argv, the SIESTA_* environment), the spec that ran,
    per-stage cache keys and outcomes, stage timings, named bench
    figures, heap statistics, the full metrics snapshot, and the
    divergence verdict when one was computed.

    The front end that owns an invocation appends its one record through
    {!emit} on the store it opened: the CLI when [--cache] is active,
    the [siesta serve] daemon for each job.  Library code computes and
    appends nothing.  See {!Regression} for the compare path and
    {!Trend_html} for the dashboard. *)

val schema_version : int
(** Version of the record's field layout (inside the JSON document —
    independent of [Codec.schema_version], which frames the container).
    {!decode} refuses records from a {e newer} schema and keeps reading
    older ones. *)

val run_kind : string
(** The codec/manifest kind, ["run"]. *)

type fidelity = {
  lf_verdict : string;  (** [Divergence.verdict_name] *)
  lf_lossless : bool;
  lf_time_error : float;
  lf_timeline_distance : float;
  lf_comm_matrix_dist : float;
  lf_max_compute_mean : float;  (** worst per-metric mean compute error *)
}

(** One measured point of a factor sweep (schema v2): the fidelity
    verdict and error measures of the proxy synthesized at [sp_factor],
    plus its size, search cost and cache outcomes.  Counts are floats so
    the whole point round-trips through the JSON number spelling. *)
type sweep_point = {
  sp_factor : float;  (** computation-shrinking factor (1 = unshrunken) *)
  sp_fidelity : fidelity;  (** factor-aware verdict + error measures *)
  sp_count_delta : float;  (** sum of per-call-kind count deltas *)
  sp_bytes_delta : float;  (** sum of per-call-kind byte deltas *)
  sp_compute_p95 : float;  (** worst per-metric p95 per-event compute error *)
  sp_compute_max : float;  (** worst per-metric max per-event compute error *)
  sp_proxy_bytes : float;  (** encoded proxy IR size *)
  sp_search_s : float;  (** proxy-search (synthesize stages) wall seconds *)
  sp_total_s : float;  (** whole synth+diff wall seconds for the point *)
  sp_cache : (string * string) list;  (** per-stage cache outcomes *)
}

(** Outcome of the static communication check (schema v3) — what
    [runs compare] gates on via the [check.*] dimensions. *)
type check = {
  lc_verdict : string;  (** [Comm_check.verdict_name]: "clean"/"violated" *)
  lc_violations : int;  (** total violations across the three checks *)
  lc_reasons : string list;  (** the checker's reason strings *)
}

type record = {
  r_schema : int;
  r_id : string;  (** {!Siesta_obs.Run_id} of the emitting process *)
  r_seq : int;  (** per-store sequence number, assigned by {!append} *)
  r_kind : string;
      (** ["trace"], ["synth"], ["report"], ["diff"], ["sweep"],
          ["check"] or ["bench"] *)
  r_time : float;  (** unix time of emission *)
  r_git : string;  (** [git describe --always --dirty], or ["unknown"] *)
  r_argv : string list;
  r_env : (string * string) list;  (** the SIESTA_* knobs that were set *)
  r_spec : (string * string) list;  (** workload, nranks, seed, ... *)
  r_cache : (string * string) list;  (** per-stage outcomes, keys, hashes *)
  r_timings : (string * float) list;  (** stage wall seconds, in order *)
  r_sched : (string * float) list;
      (** named figures outside the timings; the pipeline-scale bench
          stores its streaming ratio and heap here, and pipeline records
          leave it empty *)
  r_heap : (string * float) list;  (** [Gc.quick_stat] highlights *)
  r_metrics : Siesta_obs.Json.t;  (** full [Metrics.to_json] snapshot *)
  r_fidelity : fidelity option;  (** present on ["diff"] and ["report"] records *)
  r_sweep : sweep_point list;
      (** the factor curve of a ["sweep"] record; [[]] everywhere else
          (and on records written before schema v2) *)
  r_check : check option;
      (** present on ["check"], ["diff"] and ["report"] records; [None]
          on records written before schema v3 *)
}

val make :
  kind:string ->
  ?spec:(string * string) list ->
  ?cache:(string * string) list ->
  ?timings:(string * float) list ->
  ?sched:(string * float) list ->
  ?fidelity:fidelity ->
  ?sweep:sweep_point list ->
  ?check:check ->
  unit ->
  record
(** Capture a record of the current process state: run id, time, git
    describe (resolved once per process), argv, environment, heap stats
    and metrics snapshot are filled in; the caller provides the
    run-shaped fields.  [nan] timings/sched values are dropped (they
    have no JSON spelling).  [r_seq] is 0 until {!append} assigns it. *)

(** {1 Serialization} *)

val encode : record -> string
(** The JSON document (not yet framed — {!append} frames it). *)

val decode : string -> record
(** Inverse of {!encode}; unknown fields are ignored so older readers
    survive additive schema growth.
    @raise Failure on malformed input or a newer [ledger_schema]. *)

(** {1 Store I/O} *)

val append : Siesta_store.Store.t -> record -> record
(** Assign the next sequence number (max existing + 1, monotone across
    {!gc}), frame, [put] and [bind] the record; returns it with [r_seq]
    filled in. *)

val runs : Siesta_store.Store.t -> record list
(** All decodable run records, ordered by sequence number.  Undecodable
    ones (corrupt blob, newer schema) are skipped with a warning —
    history stays readable even if one record is damaged. *)

val find : Siesta_store.Store.t -> string -> record option
(** Select a record: an integer selects by sequence number, anything
    else is a run-id prefix (the newest match wins, since every record
    of one process shares its id). *)

val gc : Siesta_store.Store.t -> keep:int -> int
(** Unbind all but the newest [keep] run records; returns how many were
    dropped.  Blobs are reclaimed by the next [Store.gc] — stage
    artifacts and their bindings are never touched. *)

(** {1 Emission} *)

val emit : Siesta_store.Store.t option -> (unit -> record) -> unit
(** [emit store thunk] appends [thunk ()] to [store].  On [None] it
    never forces the thunk; a failing append is logged, not raised, so
    telemetry never fails the invocation that records it. *)

(** {1 Text renderings}

    The one text form of each ledger artifact: [siesta runs ls], [runs
    show], [siesta sweep] and the report's History and sweep sections
    all print through these. *)

val factor_str : float -> string
(** Shortest spelling of a factor ([4], not [4.]; [1.5]). *)

val total_s : record -> float
(** Sum of the record's stage timings. *)

val utc : float -> string
(** A unix time as [YYYY-MM-DD HH:MM:SS], in UTC. *)

val verdict_rank : string -> int
(** Severity order of {!fidelity.lf_verdict} names: faithful (0)
    < compute-divergent (1) < comm-divergent (2) < anything unknown (3,
    so a transition into a future verdict name is surfaced). *)

val sweep_table : sweep_point list -> string
(** Aligned table, one row per point: factor, verdict, time error,
    timeline distance, comm-matrix L1, worst mean compute error, byte
    delta, proxy bytes, search seconds and the trace/merge/proxy cache
    outcomes. *)

val runs_table : record list -> string
(** Aligned table, one row per record: [#<seq>], UTC time, kind,
    [workload@nranks], the full run id, {!total_s}, the trace/merge/proxy
    cache outcomes and the verdict; a sweep record's verdict reads
    [<n>-factor sweep, worst <verdict>]. *)
