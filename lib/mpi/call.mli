(** Engine-level records of MPI calls.

    One value of {!t} describes one executed MPI function call with all the
    parameters the paper's tracer records (Section 2.2): function name,
    peers, tags, data volumes, communicator and request handles.  Handles
    here are raw engine identifiers; the trace layer re-encodes them with
    free-number pools and relative ranks before compression. *)

type p2p = { peer : int; tag : int; dt : Datatype.t; count : int }
(** [peer] is the world rank of the other side ([any_source] for wildcard
    receives). *)

type t =
  | Send of p2p
  | Recv of p2p
  | Isend of p2p * int  (** request id *)
  | Irecv of p2p * int
  | Wait of int
  | Waitall of int list
  | Sendrecv of { send : p2p; recv : p2p }
  | Barrier of { comm : int }
  | Bcast of { comm : int; root : int; dt : Datatype.t; count : int }
  | Reduce of { comm : int; root : int; dt : Datatype.t; count : int; op : Op.t }
  | Allreduce of { comm : int; dt : Datatype.t; count : int; op : Op.t }
  | Alltoall of { comm : int; dt : Datatype.t; count : int }
  | Alltoallv of { comm : int; dt : Datatype.t; send_counts : int array }
  | Allgather of { comm : int; dt : Datatype.t; count : int }
  | Gather of { comm : int; root : int; dt : Datatype.t; count : int }
  | Scatter of { comm : int; root : int; dt : Datatype.t; count : int }
  | Scan of { comm : int; dt : Datatype.t; count : int; op : Op.t }
  | Exscan of { comm : int; dt : Datatype.t; count : int; op : Op.t }
  | Reduce_scatter of { comm : int; dt : Datatype.t; count : int; op : Op.t }
  | Ibarrier of { comm : int; req : int }
  | Ibcast of { comm : int; root : int; dt : Datatype.t; count : int; req : int }
  | Iallreduce of { comm : int; dt : Datatype.t; count : int; op : Op.t; req : int }
  | Comm_split of { comm : int; color : int; key : int; newcomm : int }
  | Comm_dup of { comm : int; newcomm : int }
  | Comm_free of { comm : int }
  | File_open of { comm : int; file : int }
  | File_close of { file : int }
  | File_write_all of { file : int; dt : Datatype.t; count : int }
  | File_read_all of { file : int; dt : Datatype.t; count : int }
  | File_write_at of { file : int; dt : Datatype.t; count : int }
  | File_read_at of { file : int; dt : Datatype.t; count : int }

val any_source : int
val any_tag : int

val name : t -> string
(** The MPI function name ("MPI_Send", ...). *)

val index : t -> int
(** Dense constructor index in [0, n_kinds): a jump-table match, cheap
    enough for per-event hot paths (the engine's metric cache indexes an
    array with it instead of hashing [name]). *)

val n_kinds : int
(** Number of call constructors; [index] is always below it. *)

val kind_name : int -> string
(** [kind_name (index t) = name t]: the MPI function name for a dense
    constructor index.  Lets per-kind aggregators (the engine's batched
    metric flush) recover names without a witness value. *)

val payload_bytes : t -> int
(** Data volume moved by this rank for the call (send side for p2p;
    per-rank buffer for collectives; 0 for waits/barriers/comm ops). *)

val is_blocking_p2p : t -> bool
(** True for [Send], [Recv] and [Sendrecv] — the calls whose duration the
    communication-shrinking regression models. *)

val record_bytes : t -> int
(** Size of this call's record in an uncompressed textual trace; used for
    the "Trace size" column of Table 3.  Equals
    [String.length (to_string t) + 24] (the text plus a fixed
    timestamp/counter field), but is computed from the field widths
    without building the string, so it is cheap enough to run on every
    traced call. *)

val to_string : t -> string
(** Canonical text of the call (stable across runs).  The reference
    definition of {!record_bytes}: the trace tests check that
    [record_bytes t = String.length (to_string t) + 24]. *)
