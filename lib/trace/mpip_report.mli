(** mpiP-style aggregate statistics.

    The paper's tracer is built on mpiP, whose native output is aggregated
    per-function statistics rather than full traces (Section 2.2 modifies
    it to record per-event details).  This module reproduces the
    aggregated view from a trace's per-rank event streams: per-function
    call counts and volumes, a message-size histogram, and per-rank event
    summaries.  Useful for eyeballing what a workload does before
    synthesizing. *)

type function_stats = {
  name : string;
  calls : int;
  total_bytes : int;
  min_bytes : int;
  max_bytes : int;
}

type t = {
  nranks : int;
  total_events : int;
  comm_events : int;
  compute_events : int;
  per_function : function_stats list;  (** descending by call count *)
  size_histogram : (int * int) list;
      (** (power-of-two bucket upper bound, messages in bucket) for
          point-to-point payloads *)
  per_rank_events : int array;
}

val of_streams : nranks:int -> Event.t array array -> t
(** [of_streams ~nranks streams] with [streams.(r)] rank [r]'s encoded
    events ({!Trace_io.of_packed} of a trace stage, live or stored). *)

val render : t -> string
(** Plain-text report in mpiP's sectioned style. *)

val print : t -> unit
