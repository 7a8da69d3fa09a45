(** The host's domain count, as the benchmark harness reports it
    ([host.domains]).  Nothing in the library spawns domains. *)

type pool

val global : unit -> pool
(** The host's recommended parallelism ({!Domain.recommended_domain_count}). *)

val size : pool -> int
(** Domains in the pool (>= 1). *)
