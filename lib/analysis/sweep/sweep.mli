(** Fidelity-vs-factor sweep: drive {!Siesta.Pipeline.synthesize_spec}
    across a schedule of computation-shrinking factors and measure, per
    factor, how far the shrunken proxy drifts from the original.

    The paper sells factor scaling as the knob that trades proxy cost
    for fidelity; this module turns that claim into a measured curve.
    The original program is captured {e once}; each factor pays only its
    own synthesis (with [~cache:true], the trace and merge stages are
    shared across the whole schedule, so factors 2..N pay proxy search
    alone) plus a proxy capture and a {!Siesta_analysis.Divergence.diff}
    against the shared original.

    Verdicts are factor-aware ({!Siesta_analysis.Divergence.verdict_at}):
    a shrunken proxy rewrites blocking-transfer volumes by design, so
    only structural violations (call counts, ranks, unreceived messages)
    read as communication divergence, and the compute check bounds the
    excess over the expected shrink error [1 - 1/factor].

    A sweep invocation appends one schema-versioned ["sweep"]
    {!Siesta_ledger.Ledger} record, built by {!record} (never per-factor
    synth/diff records), which makes curves first-class in
    [runs ls/show/compare]: {!Siesta_ledger.Regression} compares curves
    point-wise and flags "fidelity at factor F degraded vs baseline
    sweep". *)

val default_factors : float list
(** [1, 2, 4, ..., 64] — the powers-of-two schedule. *)

val factor_str : float -> string
(** Shortest spelling of a factor ([4] not [4.]). *)

val parse_factors : string -> (float list, string) result
(** Parse a comma-separated factor schedule (["1,2,4,8"], spaces
    allowed).  Rejects — naming the offending token — anything that is
    not a positive finite number, a repeated value, or a value that
    breaks the strictly-increasing order. *)

type point = {
  p_factor : float;
  p_report : Siesta_analysis.Divergence.report;  (** full diff vs the original *)
  p_verdict : Siesta_analysis.Divergence.verdict;  (** factor-aware *)
  p_proxy_bytes : int;  (** encoded proxy IR size *)
  p_search_s : float;  (** proxy-search (synthesize stages) seconds *)
  p_total_s : float;  (** synthesize + capture + diff seconds *)
  p_cache : (string * string) list;  (** {!Siesta.Pipeline.stage_outcomes} *)
}

type t = {
  s_spec : Siesta.Pipeline.spec;
  s_factors : float list;
  s_points : point list;  (** one per factor, in schedule order *)
  s_total_s : float;
}

val run :
  ?cache:bool ->
  ?store:Siesta_store.Store.t ->
  ?compute_tolerance:float ->
  ?perturb:[ `Comm | `Compute ] ->
  ?factors:float list ->
  Siesta.Pipeline.spec ->
  t
(** Sweep the schedule (default {!default_factors}).  [cache]/[store]
    are forwarded to every synthesis; [compute_tolerance] to every
    {!Siesta_analysis.Divergence.verdict_at}; [perturb] damages every
    per-factor proxy via {!Siesta_analysis.Divergence.perturb} before
    diffing, for exercising the curve-regression gate.
    @raise Invalid_argument on an empty schedule. *)

val record : t -> Siesta_ledger.Ledger.record
(** The one ["sweep"] record of a sweep invocation: the spec with its
    factor schedule, a ["sweep.total"] timing and one point per
    factor. *)

val comm_divergent : t -> float list
(** The factors whose verdict crossed the comm-divergence rank — the
    CLI exits non-zero when this is non-empty. *)

val render : t -> string
(** Aligned per-factor table plus a one-line verdict summary. *)

val json_of : t -> Siesta_obs.Json.t
val to_json : t -> string
(** The curve as a JSON document ([spec], [factors], [points]); also the
    payload of the HTML dashboard's [sweep-data] block. *)
