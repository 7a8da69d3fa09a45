(** Discrete-event simulated MPI runtime.

    Each rank of an SPMD program runs as an OCaml 5 effect-based fiber; the
    engine schedules fibers cooperatively, matches point-to-point messages
    (posted-receive / unexpected-message queues, tag and source matching,
    [MPI_ANY_SOURCE]/[MPI_ANY_TAG] wildcards), synchronizes collectives,
    and maintains a per-rank virtual clock priced by the platform's CPU,
    network and MPI-implementation models.

    Timing semantics:
    - computation advances a rank's clock by the CPU model's pricing of the
      accumulated work;
    - an eager send (payload <= the implementation's eager threshold) costs
      the sender only software overhead; the message becomes available at
      the receiver one wire-time later;
    - a rendezvous send blocks the sender until the matching receive is
      posted and the transfer completes;
    - a receive completes at [max(post time, message availability)];
    - a collective completes for every participant at
      [max(arrival clocks) + analytic cost(P, bytes)].

    Determinism: fibers are scheduled from a FIFO run queue seeded in rank
    order, and all stochastic inputs flow through the seeded RNG — equal
    seeds give bit-equal traces. *)

type ctx
(** Per-rank execution context, passed to the rank program. *)

type comm
(** Communicator handle (rank-local view). *)

type request
(** Non-blocking operation handle. *)

exception Deadlock of string
(** Raised by {!run} when no fiber can make progress; the message lists the
    blocked ranks and what they wait on. *)

exception Collective_mismatch of string
(** Raised when ranks of a communicator disagree on the collective being
    executed — e.g. when replaying a broken proxy. *)

(** {1 Program-side API (the simulated MPI)} *)

val rank : ctx -> int
val size : ctx -> int
val comm_world : ctx -> comm
val comm_rank : ctx -> comm -> int
val comm_size : ctx -> comm -> int
val comm_id : ctx -> comm -> int
val wtime : ctx -> float
(** Current virtual clock of this rank, in seconds. *)

val compute : ctx -> Siesta_perf.Kernel.t -> unit
(** Execute a computation phase described by a kernel descriptor. *)

val compute_work : ctx -> Siesta_platform.Cpu.work -> unit
(** Execute raw work (used by proxy replay, where code blocks are priced
    directly). *)

val sleep : ctx -> float -> unit
(** Advance the clock without touching the performance counters (used by
    the sleep-based baseline replays). *)

val send : ctx -> dest:int -> tag:int -> dt:Datatype.t -> count:int -> unit
(** Blocking standard-mode send.  [dest] is a [comm_world] rank unless
    [comm] is given. *)

val recv : ctx -> src:int -> tag:int -> dt:Datatype.t -> count:int -> unit
(** Blocking receive; [src] may be {!Call.any_source}, [tag] may be
    {!Call.any_tag}. *)

val isend : ctx -> dest:int -> tag:int -> dt:Datatype.t -> count:int -> request
val irecv : ctx -> src:int -> tag:int -> dt:Datatype.t -> count:int -> request
val wait : ctx -> request -> unit
val waitall : ctx -> request list -> unit

val sendrecv :
  ctx ->
  dest:int ->
  send_tag:int ->
  src:int ->
  recv_tag:int ->
  dt:Datatype.t ->
  send_count:int ->
  recv_count:int ->
  unit

val barrier : ctx -> comm -> unit
val bcast : ctx -> comm -> root:int -> dt:Datatype.t -> count:int -> unit
val reduce : ctx -> comm -> root:int -> dt:Datatype.t -> count:int -> op:Op.t -> unit
val allreduce : ctx -> comm -> dt:Datatype.t -> count:int -> op:Op.t -> unit
val alltoall : ctx -> comm -> dt:Datatype.t -> count:int -> unit

val alltoallv : ctx -> comm -> dt:Datatype.t -> send_counts:int array -> unit
(** [send_counts] has one entry per communicator rank. *)

val allgather : ctx -> comm -> dt:Datatype.t -> count:int -> unit
val gather : ctx -> comm -> root:int -> dt:Datatype.t -> count:int -> unit
val scatter : ctx -> comm -> root:int -> dt:Datatype.t -> count:int -> unit
val scan : ctx -> comm -> dt:Datatype.t -> count:int -> op:Op.t -> unit
val exscan : ctx -> comm -> dt:Datatype.t -> count:int -> op:Op.t -> unit

val reduce_scatter : ctx -> comm -> dt:Datatype.t -> count:int -> op:Op.t -> unit
(** [count] is the per-rank result block (the MPI_Reduce_scatter_block
    shape). *)

(** {2 Non-blocking collectives}

    Join without suspending; the returned request completes (for {!wait})
    when the last participant has joined, plus the collective's analytic
    cost.  Collectives on one communicator must be initiated in the same
    order on every rank (the MPI rule); several may be in flight. *)

val ibarrier : ctx -> comm -> request
val ibcast : ctx -> comm -> root:int -> dt:Datatype.t -> count:int -> request
val iallreduce : ctx -> comm -> dt:Datatype.t -> count:int -> op:Op.t -> request

val comm_split : ctx -> comm -> color:int -> key:int -> comm
val comm_dup : ctx -> comm -> comm
val comm_free : ctx -> comm -> unit

(** {1 MPI-IO (the I/O extension)}

    A minimal MPI-IO surface priced by the platform's {!Siesta_platform.Spec.storage}
    model: collective opens/closes synchronize the communicator and pay the
    metadata latency; [_all] transfers aggregate the communicator's full
    volume against the file system's aggregate bandwidth; independent
    [_at] transfers share the bandwidth across [stripe_share] writers. *)

type file
(** File handle (rank-local view; opened on a communicator). *)

val file_open : ctx -> comm -> file
val file_close : ctx -> file -> unit
val file_write_all : ctx -> file -> dt:Datatype.t -> count:int -> unit
val file_read_all : ctx -> file -> dt:Datatype.t -> count:int -> unit
val file_write_at : ctx -> file -> dt:Datatype.t -> count:int -> unit
val file_read_at : ctx -> file -> dt:Datatype.t -> count:int -> unit

(** {1 Running programs} *)

type hook = {
  on_event : rank:int -> papi:Siesta_perf.Papi.t -> call:Call.t -> unit;
      (** Invoked at every MPI call entry, PMPI-style.  The tracer reads
          the computation-interval counters from [papi] here. *)
  per_event_overhead : float;
      (** Seconds of instrumentation cost added to the rank clock per
          hooked call (models the tracing overhead of Table 3). *)
}

(** Passive observer of the engine's *simulated* time axis, used by the
    fidelity observatory ({!Siesta_analysis.Timeline}) to reconstruct
    per-rank timelines and the cross-rank dependency DAG.  Unlike {!hook}
    it never perturbs the simulation: no overhead is charged and the
    callbacks must not touch engine state.

    Callback contract:
    - [on_call] fires at every MPI call entry with the rank's clock
      *before* any cost is charged.  For [comm_split] / [comm_dup] /
      [file_open] — whose resolved ids only exist after the collective —
      the call value carries a [-1] placeholder id.
    - [on_compute] fires after each [compute]/[compute_work]/[sleep] that
      advanced the clock, with the simulated interval.
    - [on_p2p_match] fires when a send is paired with a receive.
      [send_ready] is the sender's clock after send overhead, [post] the
      receiver's posting clock, [completion] the matched transfer's
      completion time on the receiver (and, for a rendezvous send, also
      on the sender).
    - [on_coll_done] fires once per completed collective with the
      participant set, the last arriver and its arrival clock, and the
      common finish time. *)
type observer = {
  on_call : rank:int -> call:Call.t -> clock:float -> unit;
  on_compute : rank:int -> t0:float -> t1:float -> unit;
  on_p2p_match :
    src:int ->
    dst:int ->
    rendezvous:bool ->
    send_ready:float ->
    post:float ->
    completion:float ->
    bytes:int ->
    unit;
  on_coll_done :
    kind:string ->
    ranks:int array ->
    last_rank:int ->
    last_arrival:float ->
    finish:float ->
    unit;
}

type result = {
  elapsed : float;  (** wall time = max over ranks of final clocks *)
  per_rank_elapsed : float array;
  per_rank_counters : Siesta_perf.Counters.t array;
      (** noise-free total computation counters per rank *)
  total_calls : int;  (** MPI calls executed across all ranks *)
  unreceived_messages : int;
      (** messages sent but never matched by a receive when the program
          finished — legal in MPI, but almost always a bug in the traced
          program or a broken proxy.  This is the {e total}: it includes
          messages a different legal wildcard matching would have
          absorbed (see [unreceived_wildcard_prone]); subtract the two to
          count provably unmatched sends — the quantity
          {!Siesta_analysis.Comm_check} establishes statically and
          [Divergence]'s structural "unmatched sends" reason gates on *)
  unreceived_wildcard_prone : int;
      (** the subset of [unreceived_messages] left at a destination
          rank that posted at least one [ANY_SOURCE]/[ANY_TAG] receive
          (point-to-point traffic runs on the world communicator, so the
          split is per rank): under a different (equally
          legal) wildcard matching those messages might have been
          received, so they are not evidence of a structural defect *)
}

val estimate_p2p_seconds :
  platform:Siesta_platform.Spec.t ->
  impl:Siesta_platform.Mpi_impl.t ->
  same_node:bool ->
  bytes:int ->
  float
(** Model time of one blocking point-to-point transfer: call overhead +
    wire time (+ rendezvous handshake above the eager threshold).  Used by
    the communication-shrinking regression (Section 2.7), which on real
    systems is fitted to measured call durations. *)

val run :
  platform:Siesta_platform.Spec.t ->
  impl:Siesta_platform.Mpi_impl.t ->
  nranks:int ->
  ?hook:hook ->
  ?observer:observer ->
  ?seed:int ->
  (ctx -> unit) ->
  result
(** Run an SPMD program on [nranks] simulated ranks.  Counter readings
    carry a relative noise of 0.01.  [observer] passively watches the
    simulated clock (see {!observer}); it does not affect timing, so
    results are bit-identical with or without one.
    @raise Deadlock when the program cannot make progress.
    @raise Collective_mismatch on inconsistent collective use. *)
