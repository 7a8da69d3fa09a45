(** Point-to-point communication matrix.

    Aggregates a recorded trace into a P x P matrix of message counts and
    byte volumes (send side; receives are the transpose by matching).
    Relative-rank encodings are resolved back to absolute peers.  This is
    the standard first picture of an unknown MPI program — and the input
    to {!Topology} detection. *)

type t

val of_streams : nranks:int -> Siesta_trace.Event.t array array -> t
(** [of_streams ~nranks streams] with [streams.(r)] rank [r]'s encoded
    events.  Wildcard receives contribute nothing (the matching send
    carries the edge). *)

val nranks : t -> int
val messages : t -> src:int -> dst:int -> int
val bytes : t -> src:int -> dst:int -> int
val total_messages : t -> int
val total_bytes : t -> int

val edges : t -> (int * int * int * int) list
(** Non-zero (src, dst, messages, bytes) entries, row-major order. *)

val offsets : t -> (int * int) list
(** Message counts aggregated by the relative offset
    [(dst - src) mod nranks], descending by count — the fingerprint the
    topology detector reads. *)

val render : t -> string
(** Text heat map ('.' none, digits = log10 of bytes), truncated to 32
    rows/columns. *)
