(** Encoded trace events — the terminals of the grammar.

    An {!t} is a {!Siesta_mpi.Call.t} after the two entropy-reducing
    encodings of Section 2.2:
    - point-to-point peers are stored as {e relative ranks}
      ([(peer - my_rank) mod nranks]), so neighbour exchanges encode
      identically on every rank;
    - request and communicator handles are renumbered from free-number
      pools, so handle values are small, dense and repeat across loop
      iterations.

    Computation events appear as the virtual [MPI_Compute] call
    (Section 2.3), reduced to a cluster id into a {!Compute_table}. *)

type p2p = { rel_peer : int; tag : int; dt : Siesta_mpi.Datatype.t; count : int }
(** [rel_peer] is in [\[0, nranks)], or {!Siesta_mpi.Call.any_source}.
    Point-to-point calls travel on the world communicator, as the
    engine's [send] and [recv] do. *)

type t =
  | Send of p2p
  | Recv of p2p
  | Isend of p2p * int  (** pooled request id *)
  | Irecv of p2p * int
  | Wait of int
  | Waitall of int list
  | Sendrecv of { send : p2p; recv : p2p }
  | Barrier of { comm : int }
  | Bcast of { comm : int; root : int; dt : Siesta_mpi.Datatype.t; count : int }
  | Reduce of { comm : int; root : int; dt : Siesta_mpi.Datatype.t; count : int; op : Siesta_mpi.Op.t }
  | Allreduce of { comm : int; dt : Siesta_mpi.Datatype.t; count : int; op : Siesta_mpi.Op.t }
  | Alltoall of { comm : int; dt : Siesta_mpi.Datatype.t; count : int }
  | Alltoallv of { comm : int; dt : Siesta_mpi.Datatype.t; send_counts : int array }
  | Allgather of { comm : int; dt : Siesta_mpi.Datatype.t; count : int }
  | Gather of { comm : int; root : int; dt : Siesta_mpi.Datatype.t; count : int }
  | Scatter of { comm : int; root : int; dt : Siesta_mpi.Datatype.t; count : int }
  | Scan of { comm : int; dt : Siesta_mpi.Datatype.t; count : int; op : Siesta_mpi.Op.t }
  | Exscan of { comm : int; dt : Siesta_mpi.Datatype.t; count : int; op : Siesta_mpi.Op.t }
  | Reduce_scatter of { comm : int; dt : Siesta_mpi.Datatype.t; count : int; op : Siesta_mpi.Op.t }
  | Ibarrier of { comm : int; req : int }
  | Ibcast of { comm : int; root : int; dt : Siesta_mpi.Datatype.t; count : int; req : int }
  | Iallreduce of
      { comm : int; dt : Siesta_mpi.Datatype.t; count : int; op : Siesta_mpi.Op.t; req : int }
  | Comm_split of { comm : int; color : int; key : int; newcomm : int }
  | Comm_dup of { comm : int; newcomm : int }
  | Comm_free of { comm : int }
  | File_open of { comm : int; file : int }
  | File_close of { file : int }
  | File_write_all of { file : int; dt : Siesta_mpi.Datatype.t; count : int }
  | File_read_all of { file : int; dt : Siesta_mpi.Datatype.t; count : int }
  | File_write_at of { file : int; dt : Siesta_mpi.Datatype.t; count : int }
  | File_read_at of { file : int; dt : Siesta_mpi.Datatype.t; count : int }
  | Compute of int  (** computation-event cluster id *)

val to_key : t -> string
(** Canonical serialization; equal events have equal keys.  Used both as
    the terminal-table hash key and for size accounting. *)

val of_key : string -> t
(** Inverse of {!to_key}.  @raise Failure on malformed input. *)

val is_compute : t -> bool

val name : t -> string
(** MPI function name ("MPI_Send", ...; "MPI_Compute" for computation
    events). *)

val payload_bytes : t -> int
(** Data volume this rank moves for the event (send side for
    point-to-point, per-rank buffer for collectives, 0 otherwise). *)

val is_p2p : t -> bool
(** True for (non-)blocking point-to-point data transfers. *)

val serialized_bytes : t -> int
(** Contribution of one terminal definition to the exported grammar size
    (the [size_C] column of Table 3). *)

val pp : Format.formatter -> t -> unit

(** {2 Field traversals}

    The one place that knows which fields of each kind are counts, peers
    and handle slots.  The maps visit a Sendrecv's send side before its
    receive side and Alltoallv entries in index order, so collecting
    values through one call and handing them back, in order, to another
    rebuilds the event. *)

val map_counts : (Siesta_mpi.Datatype.t -> int -> int) -> t -> t
(** [map_counts f ev] replaces every element count [c] of datatype [dt]
    that [ev] carries by [f dt c]: both sides of a Sendrecv and each
    Alltoallv entry included.  Events without a count are returned as
    they are. *)

val map_peers : (int -> int) -> t -> t
(** [map_peers f ev] replaces every relative peer [r] of a
    point-to-point event by [f r] ({!Siesta_mpi.Call.any_source}
    included); other events are returned as they are. *)

val iter_slots : req:(int -> unit) -> comm:(int -> unit) -> file:(int -> unit) -> t -> unit
(** [iter_slots ~req ~comm ~file ev] calls [req], [comm] and [file] on
    every pooled request, communicator and file number [ev] names,
    including a split's or dup's new communicator.  Point-to-point
    calls name no communicator: they run on the world one. *)
