(** MPI implementation cost profiles.

    The paper's Fig. 7 executes the same proxy under OpenMPI, MPICH and
    MVAPICH and shows that Siesta tracks the resulting time changes because
    its communication replay is lossless.  What differs between
    implementations, for our purposes, is pricing: software overhead per
    call, eager/rendezvous protocol switch point, achievable fraction of
    the wire bandwidth, and the constant factors of the collective
    algorithms.  This module captures those knobs. *)

type t = {
  name : string;
  call_overhead_s : float;  (** software cost added to every MPI call *)
  eager_threshold_bytes : int;
      (** messages up to this size are sent eagerly (sender does not block
          on the receiver); larger messages use a rendezvous handshake *)
  rendezvous_extra_s : float;  (** handshake cost for rendezvous sends *)
  latency_factor : float;  (** multiplier on network latency *)
  bandwidth_factor : float;  (** achievable fraction of wire bandwidth *)
  bcast_factor : float;  (** constant factor on the log-tree bcast cost *)
  reduce_factor : float;
  allreduce_factor : float;
  alltoall_factor : float;
  allgather_factor : float;
  barrier_factor : float;
}

val openmpi : t
(** Modeled on OpenMPI 3.1 (the paper's generation environment). *)

val mpich : t
val mvapich : t

val all : t list

val by_name : string -> (t, string) result
(** The implementation named [name], in any case; [Error] carries the
    message a front end prints for an unknown name. *)
