(** Cross-run regression radar: compare two {!Ledger} records along
    fidelity, stage-time and metric dimensions against configurable
    thresholds.  Drives [siesta runs compare], which exits non-zero when
    {!comparison.c_regressed} — making the repo's own run history a CI
    gate. *)

type thresholds = {
  t_stage_ratio : float;
      (** a stage regresses when current >= ratio * baseline... *)
  t_stage_min_s : float;
      (** ...AND it grew by at least this many absolute seconds (warm
          store lookups are microseconds; pure ratios would flap) *)
  t_fidelity_delta : float;
      (** allowed absolute worsening of each fidelity error measure *)
}

val default : thresholds
(** ratio 1.5, floor 0.05 s, fidelity delta 0.05. *)

type dimension = {
  d_name : string;  (** ["verdict"], ["stage.merge"], ["fidelity.time_error"], ... *)
  d_base : string;
  d_cur : string;
  d_regressed : bool;
  d_note : string;  (** why it regressed, or context (ratio, delta) *)
}

type comparison = {
  c_baseline : Ledger.record;
  c_current : Ledger.record;
  c_dimensions : dimension list;
  c_regressed : bool;  (** any dimension over threshold *)
}

val comparable : Ledger.record -> Ledger.record -> bool
(** Same kind, workload and nranks — the records a baseline may be
    drawn from. *)

val baseline_for : Ledger.record list -> Ledger.record -> Ledger.record option
(** The newest {!comparable} record strictly older (by sequence) than
    the given one — what [compare --baseline last] resolves to. *)

val compare_runs :
  ?thresholds:thresholds -> baseline:Ledger.record -> Ledger.record -> comparison
(** Dimensions produced: verdict transition (worse rank = regression)
    and the four fidelity error deltas when both records carry a
    verdict; one [sweep.f<factor>] dimension per factor when either
    record carries a factor curve (regressed when the verdict rank
    worsens or any fidelity measure worsens past the fidelity delta at
    that factor; one-sided factors are informational);
    [check.verdict] / [check.violations] when both records carry a
    static-check block (regressed when the verdict degrades
    clean -> violated or the violation count grows; one-sided presence
    is informational); total and per-stage wall times for stages
    present in both records (ratio AND absolute floor must both trip);
    informational counter deltas (cache hits/misses, traces) that never
    regress on their own.  Improvements never count as regressions. *)

val render : comparison -> string
(** Aligned per-dimension table plus a one-line summary. *)

val to_json : comparison -> string
(** The comparison as a JSON document: [baseline]/[current] endpoints
    (seq, kind, git, workload when known), the overall [regressed] flag,
    and a [dimensions] array mirroring the table rows. *)
