(** Per-rank timelines on the engine's *simulated* clock.

    The host-time spans of {!Siesta_obs.Span} answer "where does the
    synthesizer spend wall time"; this module answers the question the
    paper actually cares about: where does each simulated rank spend
    *simulated* time while (re)playing a program.  It subscribes to the
    engine through an {!Siesta_mpi.Engine.observer}, classifies every
    interval of each rank's virtual clock as computation, transfer
    initiation or blocked waiting, and keeps the cross-rank match records
    (send→recv pairings, collective synchronizations) that
    {!Critical_path} turns into a dependency DAG.

    Exported as Chrome [trace_event] JSON with one track per rank and
    [otherData.clock = "simulated"], so a glance at the file (or at
    [siesta check-trace]) tells it apart from a host-clock span trace. *)

module Engine = Siesta_mpi.Engine

(** How a segment of simulated time was spent, decided by the MPI call
    type that owns it:
    - [Compute]: advanced by [compute]/[compute_work]/[sleep];
    - [Transfer]: initiation-side calls that do not block on a peer
      ([MPI_Send] eager path, [MPI_Isend], [MPI_Irecv], non-blocking
      collectives, independent file I/O);
    - [Wait]: calls whose duration is dominated by waiting for a peer or
      for synchronization ([MPI_Recv], [MPI_Wait(all)], [MPI_Sendrecv],
      blocking collectives, communicator and collective-file ops). *)
type kind = Compute | Transfer | Wait

val kind_name : kind -> string

type segment = {
  t0 : float;  (** simulated start, seconds *)
  t1 : float;  (** simulated end, seconds; [t1 > t0] *)
  kind : kind;
  name : string;  (** MPI call name, ["compute"], or ["idle"] *)
}

(** One matched point-to-point transfer (world ranks). *)
type p2p_match = {
  pm_src : int;
  pm_dst : int;
  pm_rdv : bool;
  pm_send_ready : float;  (** sender clock after send overhead *)
  pm_post : float;  (** receiver clock at posting *)
  pm_completion : float;  (** receive completion (also rendezvous-send completion) *)
  pm_bytes : int;
}

(** One completed collective. *)
type coll_sync = {
  cs_kind : string;
  cs_ranks : int array;
  cs_last_rank : int;  (** last arriver (lowest rank on ties) *)
  cs_last_arrival : float;
  cs_finish : float;  (** common completion time *)
}

type t = {
  nranks : int;
  elapsed : float;
  per_rank_elapsed : float array;
  segments : segment array array;
      (** [segments.(r)] tiles [0, per_rank_elapsed.(r)] exactly:
          segments are ordered, contiguous and non-overlapping. *)
  matches : p2p_match array;  (** in pairing order *)
  colls : coll_sync array;  (** in completion order *)
}

(** {1 Recording}

    Both recorders tile each rank's clock with one streaming rule as the
    engine runs: a call segment runs from its entry clock to the rank's
    next event, compute intervals are exact and adjacent ones coalesce,
    and a gap becomes an explicit ["idle"] wait segment.  Both observers
    are passive, so the returned result is bit-identical to an
    unobserved run with the same seed. *)

val record :
  platform:Siesta_platform.Spec.t ->
  impl:Siesta_platform.Mpi_impl.t ->
  nranks:int ->
  ?seed:int ->
  (Engine.ctx -> unit) ->
  t * Engine.result
(** [record ~platform ~impl ~nranks program] runs [program] (seed
    default 42) and keeps every segment, match and collective. *)

val record_totals :
  platform:Siesta_platform.Spec.t ->
  impl:Siesta_platform.Mpi_impl.t ->
  nranks:int ->
  hook:Engine.hook ->
  seed:int ->
  (Engine.ctx -> unit) ->
  (kind * float) list array * Engine.result
(** Same run under [hook], but keeps only each rank's per-kind seconds:
    element [r] equals {!kind_totals} of {!record}'s timeline (same
    [seed]) for rank [r] bit for bit (the same segments, summed in the
    same order).  Its memory does not grow with the run's length. *)

(** {1 Analysis and rendering} *)

val kind_totals : t -> int -> (kind * float) list
(** Seconds per {!kind} for one rank (all three kinds, in order). *)

val wait_breakdown : t -> int -> (string * int * float) list
(** For one rank: [(call name, segment count, total seconds)] of
    [Wait]-kind segments, sorted by descending total. *)

val render : t -> string
(** Plain-text per-rank table: compute / transfer / wait seconds, wait
    share, and the dominant wait call. *)

val to_chrome_json : t -> string
(** Chrome trace with exactly [nranks] tracks (tid = rank, labelled
    ["rank N"]), timestamps on the simulated clock in microseconds, and
    [otherData.clock = "simulated"]. *)

val write : t -> path:string -> unit
