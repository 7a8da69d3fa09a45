(** One-page run report.

    Summarizes a full pipeline run — trace statistics, communication
    structure, grammar compression, computation-proxy quality, and the
    replay validation — as markdown, for humans deciding whether to trust
    a generated proxy. *)

val generate :
  timeline:Siesta_analysis.Timeline.t -> fidelity:Pipeline.fidelity -> Pipeline.synthesis -> string
(** Builds the report.  The validation, correctness and fidelity
    sections read [fidelity], the caller's {!Pipeline.diff_synthesis} of
    the synthesis; the critical-path and per-rank sections read
    [timeline], the original's {!Pipeline.record_timeline}.  When
    caching was on, a Cache section lists which stages were served from
    the store and a History section lists the store's run records for
    this spec; the Trace section is reconstructed from the stored run
    measurements, so a fully warm report never re-runs the tracer. *)

val write_file :
  timeline:Siesta_analysis.Timeline.t -> fidelity:Pipeline.fidelity -> Pipeline.synthesis ->
  path:string -> unit
