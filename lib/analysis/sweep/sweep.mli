(** Fidelity-vs-factor sweep: drive {!Siesta.Pipeline.synthesize_spec}
    across a schedule of computation-shrinking factors and measure, per
    factor, how far the shrunken proxy drifts from the original.

    The paper sells factor scaling as the knob that trades proxy cost
    for fidelity; this module turns that claim into a measured curve.
    The original program is captured {e once}; each factor pays only its
    own synthesis (with a store, the trace and merge stages are shared
    across the whole schedule, so factors 2..N pay proxy search alone)
    plus a proxy capture and a {!Siesta_analysis.Divergence.diff}
    against the shared original.

    Verdicts are factor-aware ({!Siesta_analysis.Divergence.verdict_at}):
    a shrunken proxy rewrites blocking-transfer volumes by design, so
    only structural violations (call counts, ranks, unreceived messages)
    read as communication divergence, and the compute check bounds the
    excess over the expected shrink error [1 - 1/factor].

    Each measured point is a {!Siesta_ledger.Ledger.sweep_point}, so a
    sweep in hand and one read back from the ledger print through the
    same {!Siesta_ledger.Ledger.sweep_table}.  A sweep invocation
    appends one schema-versioned ["sweep"] record, built by {!record}
    (never per-factor synth/diff records), which makes curves
    first-class in [runs ls/show/compare]: {!Siesta_ledger.Regression}
    compares curves point-wise and flags "fidelity at factor F degraded
    vs baseline sweep". *)

val default_factors : float list
(** [1, 2, 4, ..., 64] — the powers-of-two schedule. *)

val parse_factors : string -> (float list, string) result
(** Parse a comma-separated factor schedule (["1,2,4,8"], spaces
    allowed).  Rejects — naming the offending token — anything that is
    not a positive finite number, a repeated value, or a value that
    breaks the strictly-increasing order. *)

type t = {
  s_spec : Siesta.Pipeline.spec;
  s_factors : float list;
  s_points : Siesta_ledger.Ledger.sweep_point list;
      (** one per factor, in schedule order: the factor-aware verdict
          ({!Siesta_analysis.Divergence.verdict_at}) and error measures,
          the encoded proxy size, the proxy-search seconds, the point's
          synthesize + capture + diff seconds and
          {!Siesta.Pipeline.stage_outcomes} *)
  s_total_s : float;
}

val run :
  ?store:Siesta_store.Store.t ->
  ?compute_tolerance:float ->
  ?perturb:[ `Comm | `Compute ] ->
  ?factors:float list ->
  Siesta.Pipeline.spec ->
  t
(** Sweep the schedule (default {!default_factors}).  Every synthesis
    is memoized in [store] when one is given; [compute_tolerance] goes
    to every {!Siesta_analysis.Divergence.verdict_at}; [perturb] damages every
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
(** A header line, {!Siesta_ledger.Ledger.sweep_table} of the points and
    a one-line verdict summary. *)

val to_json : t -> string
(** The curve as a JSON document ([spec], [factors], [points]); also the
    payload of the HTML dashboard's [sweep-data] block. *)
