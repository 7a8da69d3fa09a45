(** The PMPI-style tracer (Sections 2.2–2.3).

    A recorder plugs into {!Siesta_mpi.Engine.run} as a hook.  At every MPI
    call it (1) reads the per-rank counter delta and, if any computation
    happened since the previous call, appends a clustered [MPI_Compute]
    event; (2) re-encodes the call with relative ranks and pooled handles
    and appends it to the rank's event stream.  It also accounts the size
    the uncompressed trace would occupy on disk (the "Trace size" column of
    Table 3) and charges a fixed per-event instrumentation overhead to the
    simulated clock (the "Overhead" column). *)

type t
(** Events are interned to dense int codes on arrival and appended to
    off-heap {!Soa} buffers, so GC-visible memory scales with the number
    of distinct events rather than trace length.  The per-rank grammars
    are built afterwards, by the merge. *)

val create :
  nranks:int -> ?cluster_threshold:float -> ?relative_ranks:bool -> unit -> t
(** [cluster_threshold] defaults to 0.05 (5% mean relative distance);
    [relative_ranks] (default true) can disable the relative-rank
    encoding for the ablation study — peers are then recorded as absolute
    ranks, and SPMD neighbour exchanges no longer dedupe across ranks. *)

val hook : t -> Siesta_mpi.Engine.hook
(** The engine hook that feeds the recorder.  It charges 0.6
    microseconds per intercepted call (interception + two counter reads)
    to the simulated clock. *)

val events : t -> int -> Event.t array
(** The encoded event stream of one rank, in program order, materialized
    as boxed events from the code stream (for reports and tests, not the
    hot path). *)

val event_defs : t -> Event.t array
(** Distinct events in record-interning (first-appearance) order: the
    definition table the per-rank code streams reference. *)

val codes : t -> int -> Soa.buf
(** One rank's dense-code stream. *)

val compute_table : t -> Compute_table.t

val raw_trace_bytes : t -> int
(** Total uncompressed trace volume across all ranks. *)

val total_events : t -> int
(** Total encoded events (communication + computation) across ranks. *)

val nranks : t -> int
