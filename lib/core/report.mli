(** One-page run report.

    Summarizes a full pipeline run — trace statistics, communication
    structure, grammar compression, computation-proxy quality, and the
    replay validation — as markdown, for humans deciding whether to trust
    a generated proxy. *)

val generate : timeline:Siesta_analysis.Timeline.t -> Pipeline.synthesis -> string
(** Builds the report; replays the original and the proxy once on the
    generation platform for the validation and fidelity sections.  The
    critical-path and per-rank sections read [timeline], the original's
    {!Pipeline.record_timeline}.  When
    caching was on, a Cache section lists which stages were served from
    the store; the Trace section is reconstructed from the stored run
    measurements, so a fully warm report never re-runs the tracer. *)

val write_file :
  timeline:Siesta_analysis.Timeline.t -> Pipeline.synthesis -> path:string -> unit
