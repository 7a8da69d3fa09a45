type t = {
  name : string;
  call_overhead_s : float;
  eager_threshold_bytes : int;
  rendezvous_extra_s : float;
  latency_factor : float;
  bandwidth_factor : float;
  bcast_factor : float;
  reduce_factor : float;
  allreduce_factor : float;
  alltoall_factor : float;
  allgather_factor : float;
  barrier_factor : float;
}

(* The absolute values below are plausible for the 2019-era stacks the
   paper used; what matters for the experiments is that the three profiles
   price identical call sequences differently, in realistic proportions. *)

let openmpi =
  {
    name = "openmpi";
    call_overhead_s = 0.4e-6;
    eager_threshold_bytes = 4096;
    rendezvous_extra_s = 1.8e-6;
    latency_factor = 1.0;
    bandwidth_factor = 0.90;
    bcast_factor = 1.0;
    reduce_factor = 1.05;
    allreduce_factor = 1.0;
    alltoall_factor = 1.0;
    allgather_factor = 1.0;
    barrier_factor = 1.0;
  }

let mpich =
  {
    name = "mpich";
    call_overhead_s = 0.3e-6;
    eager_threshold_bytes = 8192;
    rendezvous_extra_s = 2.2e-6;
    latency_factor = 1.12;
    bandwidth_factor = 0.86;
    bcast_factor = 0.92;
    reduce_factor = 0.95;
    allreduce_factor = 1.10;
    alltoall_factor = 1.15;
    allgather_factor = 1.05;
    barrier_factor = 0.9;
  }

let mvapich =
  {
    name = "mvapich";
    call_overhead_s = 0.25e-6;
    eager_threshold_bytes = 16384;
    rendezvous_extra_s = 1.5e-6;
    latency_factor = 0.85;
    bandwidth_factor = 0.93;
    bcast_factor = 0.95;
    reduce_factor = 1.0;
    allreduce_factor = 0.9;
    alltoall_factor = 0.95;
    allgather_factor = 0.97;
    barrier_factor = 1.1;
  }

let all = [ openmpi; mpich; mvapich ]
let by_name name =
  match List.find_opt (fun t -> t.name = String.lowercase_ascii name) all with
  | Some t -> Ok t
  | None -> Error (Printf.sprintf "unknown MPI implementation %S (openmpi, mpich, mvapich)" name)
