(** Replay of encoded events on the simulated runtime.

    The one translator from {!Event.t} back to {!Siesta_mpi.Engine}
    calls, the inverse of what {!Recorder} does.  A replayer belongs to
    one rank of one {!Siesta_mpi.Engine.run}.  It keeps that rank's
    request, communicator and file tables, which map the pooled handle
    ids the events carry to live engine handles.  The world communicator
    is bound to communicator slot 0.  Relative peers resolve as
    [(rank + rel) mod size], the rule the emitted C's [PEER] macro uses;
    {!Siesta_mpi.Call.any_source} passes through.

    Callers rewrite events before replaying them (the proxy shrinks its
    counts, ScalaBench quantizes them); the replayer runs each event as
    it is given. *)

type t

val create : Siesta_mpi.Engine.ctx -> compute:(int -> unit) -> t
(** A replayer for the rank of [ctx].  [compute cid] runs a
    computation event of cluster [cid]. *)

val exec : t -> Event.t -> unit
(** Run one event.  A Wait or Waitall releases its request slots.
    @raise Invalid_argument naming the slot when an event refers to a
    request, communicator or file slot that no earlier event bound. *)
