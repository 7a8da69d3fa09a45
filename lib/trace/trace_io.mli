(** Trace (de)serialization.

    A recorded trace — per-rank encoded event streams plus the
    computation-event table — can be saved to a portable text file and
    reloaded later, so tracing and synthesis can run as separate steps
    (the workflow of the real tool: trace on the cluster, synthesize on a
    workstation).  The format ("siesta-trace v2") is line-oriented: the
    distinct event definitions once, then per-rank dense-code chunks,
    mirroring the in-memory SoA layout so neither writer nor reader
    materializes boxed events:

    {v
    siesta-trace v2
    nranks <P>
    compute-table <n>
    <id> <ins> <cyc> <lst> <l1_dcm> <br_cn> <msp> <members>
    ...
    events <K>
    <event key per line, in code order>
    rank <r> <ncodes>
    chunk <len>
    <len space-separated codes>
    ...
    v}

    The older one-key-per-line "siesta-trace v1" layout is rejected. *)

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

val pack : Recorder.t -> packed
(** Zero-copy from a {!Recorder.Streamed} recorder (code buffers are
    shared); a {!Recorder.Boxed} recorder is interned on the spot. *)

val of_packed : packed -> t
(** Materialize boxed streams — for reports, extrapolation and the
    equivalence tests, not the hot path. *)

val to_packed : t -> packed
(** Intern boxed streams to the SoA representation. *)

val compute_table : t -> Compute_table.t
(** Rebuild a {!Compute_table} with the loaded centroids (cluster ids are
    preserved). *)

val packed_compute_table : packed -> Compute_table.t
val packed_total_events : packed -> int

val save_packed : packed -> path:string -> unit
val load_packed : path:string -> packed
(** @raise Failure on a malformed or wrong-version file, as
    {!of_string_packed}. *)

val to_string_packed : packed -> string

val of_string_packed : string -> packed
(** Parse v2 text.  A v1 dump and a binary store blob ("SSB1" magic) are
    rejected with a pointed diagnostic. @raise Failure on malformed
    input, always with a ["Trace_io: ..."] message. *)
