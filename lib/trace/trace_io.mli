(** The two in-memory shapes of a recorded trace: per-rank encoded
    event streams plus the computation-event table.

    {!t} holds boxed event streams, for reports, extrapolation and the
    tests' batch-merge reference; {!packed} is the struct-of-arrays form
    the pipeline runs on.  A trace has one on-disk form, the store codec's
    framed trace blob ([Siesta_store.Codec.encode_trace]), which also
    carries the run measurements: [siesta trace --dump] writes it, a
    cached run keeps it as its trace object, and [siesta synth --from]
    reads it back, so tracing and synthesis can run as separate steps
    (trace on the cluster, synthesize on a workstation). *)

type t = {
  nranks : int;
  streams : Event.t array array;
  centroids : (Siesta_perf.Counters.t * int) array;
      (** per computation cluster: centroid and member count *)
}

type packed = {
  p_nranks : int;
  p_defs : Event.t array;  (** distinct events, indexed by code *)
  p_codes : Soa.buf array;  (** per-rank dense-code streams *)
  p_centroids : (Siesta_perf.Counters.t * int) array;
}
(** The struct-of-arrays trace: the streaming pipeline's native
    representation.  Boxed [Event.t] values exist only in [p_defs] (one
    per {e distinct} event), so holding a packed trace costs GC-visible
    memory proportional to the definition table, not the event count. *)

val of_recorder : Recorder.t -> t
(** [of_packed (pack r)]. *)

val pack : Recorder.t -> packed
(** Zero-copy: the recorder's code buffers and definition table are
    shared. *)

val of_packed : packed -> t
(** Materialize boxed streams — for reports, extrapolation and tests,
    not the hot path. *)

val to_packed : t -> packed
(** Intern boxed streams to the SoA representation. *)

val compute_table : t -> Compute_table.t
(** Rebuild a {!Compute_table} with the trace's centroids (cluster ids
    are preserved). *)

val packed_compute_table : packed -> Compute_table.t
val packed_total_events : packed -> int
