(** Proxy shrinking (Section 2.7).

    A shrunk proxy runs ~[1/factor] of the original time; multiplying its
    runtime back by [factor] estimates the original.  Two mechanisms:

    - {e computation}: each computation event's six-metric target is
      divided by the factor before the proxy search;
    - {e communication}: a linear regression [time ~ a + b * volume] is
      fitted to the (modeled) durations of blocking transfers; a call of
      volume [v] is replaced by one of volume [v'] with
      [a + b v' = (a + b v) / factor], clamped at zero.  Non-blocking
      posts are left alone (their cost is overlap, already shrunk with the
      computation). *)

type t

val identity : t
(** Factor 1 — no shrinking. *)

val fit :
  platform:Siesta_platform.Spec.t ->
  impl:Siesta_platform.Mpi_impl.t ->
  factor:float ->
  t
(** Fit the regression for blocking transfers on the generation platform
    (samples volumes from 0 to 4 MiB, mixing intra- and inter-node
    transfers as a multi-node job sees them). *)

val factor : t -> float

val of_parts : factor:float -> regression:Siesta_numerics.Linreg.t -> t
(** Rebuild a shrink plan from its stored parts ({!factor} and
    {!regression}) — the deserialization path of
    [Siesta_store.Codec.decode_proxy].  [of_parts ~factor:(factor t)
    ~regression:(regression t)] behaves identically to [t]. *)

val shrink_count : t -> dt:Siesta_mpi.Datatype.t -> int -> int
(** Shrunk element count for a blocking transfer. *)

val event : t -> Siesta_trace.Event.t -> Siesta_trace.Event.t
(** The event a shrunk proxy replays in place of a recorded one.  At
    factor 1 it returns its argument.  Otherwise Isend, Irecv, Ibcast and
    Iallreduce keep their counts, and every other count [c] of datatype
    [dt] becomes [shrink_count t ~dt c] (through
    {!Siesta_trace.Event.map_counts}).  This is the replay's only count
    rule; the emitted C still prints the recorded counts. *)

val shrink_counters : t -> Siesta_perf.Counters.t -> Siesta_perf.Counters.t
(** Divide a computation target by the factor. *)

val regression : t -> Siesta_numerics.Linreg.t
