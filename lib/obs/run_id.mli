(** Process-wide run identifier, used to join a run's telemetry streams
    after the fact: {!Log} stamps it into every line ([run=<id>]),
    {!Span} puts it in the Chrome trace's [otherData.run_id], {!publish}
    exposes it as a labeled metric, and the run ledger records it as the
    record's [id] field.

    The id is minted once per process (millisecond wall time + pid,
    16 lowercase hex chars).  [SIESTA_RUN_ID] overrides it, so a driver
    script can give several siesta invocations one shared id. *)

val get : unit -> string
(** The current run id (stable for the life of the process unless {!set}
    is called). *)

val set : string -> unit
(** Override the run id (tests, or embedding processes that already have
    a correlation id).  Empty/whitespace strings are ignored. *)

val publish : unit -> unit
(** Register and bump the [run.id{id="<id>"}] counter so a metrics
    snapshot names the run it came from (no-op value-wise while the
    registry is disabled, but the counter is always registered). *)
