(** Global registry of computation-event clusters.

    Counter readings are noisy, so storing each computation event verbatim
    would make every event a unique terminal and defeat compression.
    Following Section 2.3, events whose six metrics agree within a relative
    threshold are clustered into one virtual [MPI_Compute] call; the
    cluster centroid (a running mean) is the performance target handed to
    the proxy search.

    The registry is shared by all ranks: the paper builds the same global
    numbering during the inter-process merge (Section 2.6.1 notes "the
    global id for computation terminals has already been generated"); our
    tracer lives in one process, so it can assign global ids directly. *)

type t

val create : threshold:float -> t
(** [threshold] is the maximum mean relative distance (over the six
    metrics) for an event to join an existing cluster. *)

val restore : (Siesta_perf.Counters.t * int) array -> t
(** Rebuild a table from saved (centroid, member-count) pairs; cluster ids
    are the array indices and the threshold is 0.05.  Used by
    {!Trace_io.packed_compute_table}. *)

val classify : t -> Siesta_perf.Counters.t -> int
(** Return the cluster id for a reading, creating a new cluster when no
    existing centroid is close enough.  Joining updates the centroid. *)

val centroid : t -> int -> Siesta_perf.Counters.t
(** @raise Invalid_argument on an unknown id. *)

val members : t -> int -> int
(** Number of readings assigned to the cluster. *)

val cluster_count : t -> int

val total_assigned : t -> int

val serialized_bytes : t -> int
(** Contribution of the computation table to the exported grammar size
    (six 8-byte metrics plus an id per cluster). *)
