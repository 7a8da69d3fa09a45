(** The evaluation platforms of the paper's Table 2.

    Platform A: dual Intel Xeon Scalable 6248 nodes (2 x 20 cores, 2.5 GHz,
    1 MiB L2/core) on Mellanox HDR.  Platform B: Intel Xeon Phi 7210 nodes
    (64 cores, 1.3 GHz, narrow in-order-ish cores, 256 KiB L2 per tile) on
    Intel Omni-Path.  Platform C: a single dual-socket E5-2680 v4 server
    (2 x 14 cores, 2.4 GHz) with no interconnect. *)

(** Parallel file-system model (the I/O extension of Section 2.1: the
    paper leaves I/O traces to future engineering; we model a simple
    shared-bandwidth parallel FS so MPI-IO events can be traced and
    replayed like communication). *)
type storage = {
  fs_name : string;
  open_latency_s : float;  (** metadata cost of a collective open/close *)
  per_call_latency_s : float;  (** software cost per I/O call *)
  write_bandwidth_bps : float;  (** aggregate file-system write bandwidth *)
  read_bandwidth_bps : float;
  stripe_share : int;
      (** how many independent writers share the aggregate bandwidth
          before it saturates (collective I/O always aggregates fully) *)
}

type t = {
  name : string;
  cpu : Cpu.t;
  network : Network.t;
  cores_per_node : int;
  storage : storage;
}

val platform_a : t
val platform_b : t
val platform_c : t

val all : t list
val by_name : string -> (t, string) result
(** The platform named [name], in any case; [Error] carries the message
    a front end prints for an unknown name. *)

val node_of_rank : t -> int -> int
(** Block mapping of ranks onto nodes ([rank / cores_per_node]). *)

val same_node : t -> int -> int -> bool

val pp_table2 : Format.formatter -> unit
(** Render the Table 2 specification block. *)
