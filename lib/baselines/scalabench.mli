(** ScalaBench-style proxy generation (Wu et al., ScalaBenchGen /
    ScalaTrace V4 — the paper's main comparator).

    Three behaviours distinguish it from Siesta, and each is reproduced:

    - {e lossy communication}: parameters are approximated by histograms —
      message volumes are quantized to power-of-two bin centres, so the
      replayed pattern's timing drifts, and drifts differently under every
      MPI implementation (eager/rendezvous switch points move — Fig. 7);
    - {e overlap loss}: the RSD representation replays non-blocking sends
      as blocking ones (matched against the receiver's posted window), so
      communication/computation overlap present in the original is lost;
    - {e sleep-based computation}: computation intervals are replayed by
      sleeping the recorded duration, measured on the generation platform.
      On a different platform the sleeps do not change, which is why its
      error explodes when porting A -> B (Fig. 9, 70.44% in the paper).

    ScalaBench also crashes on certain programs (SP at 256/529 ranks and
    the three FLASH problems in the paper's evaluation).  The structural
    trigger we reproduce is main-rule diversity: when ranks' event streams
    are too dissimilar, the RSD merge fails ({!Unsupported}); the paper's
    SP crash at specific scales is reproduced from its documented failure
    list since the upstream bug has no public mechanism. *)

exception Unsupported of string

type t

val synthesize :
  platform:Siesta_platform.Spec.t ->
  workload:string ->
  nranks:int ->
  streams:Siesta_trace.Event.t array array ->
  compute_table:Siesta_trace.Compute_table.t ->
  t
(** @raise Unsupported when the RSD-style merge fails (see above). *)

val program : t -> Siesta_mpi.Engine.ctx -> unit
(** Replay of the transformed streams through {!Siesta_trace.Replay}:
    quantized communication, and a sleep for each computation event. *)

val known_failure : workload:string -> nranks:int -> bool
(** The upstream crash list reported by the paper: SP@256, SP@529 and all
    FLASH problems. *)

val quantize : int -> int
(** The histogram-bin centre an element count is replayed with (exposed
    for tests): counts above 2 map to 1.5 * 2^floor(log2 count). *)
