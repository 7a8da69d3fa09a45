(** Executable proxy-app representation.

    The synthesized proxy in a form our simulated MPI runtime can execute
    directly: the merged grammar plus one block combination per
    computation cluster and the optional shrink plan.  {!Codegen_c} prints
    the same object as a C program; {!program} replays it as a rank
    program, which is how the evaluation measures proxy execution times on
    arbitrary platform/implementation pairs. *)

type t = {
  merged : Siesta_merge.Merged.t;
  combos : float array array;  (** computation cluster id -> x (11 counts) *)
  combo_errors : float array;  (** proxy-search error per cluster *)
  shrink : Shrink.t;
  generated_on : string;  (** platform name the proxy was searched on *)
}

val synthesize :
  platform:Siesta_platform.Spec.t ->
  impl:Siesta_platform.Mpi_impl.t ->
  ?factor:float ->
  merged:Siesta_merge.Merged.t ->
  compute_table:Siesta_trace.Compute_table.t ->
  unit ->
  t
(** Search a block combination for every computation cluster (targets
    divided by [factor] when given) and fit the communication shrink
    regression.  [factor] defaults to 1 (no shrinking). *)

val validate : t -> unit
(** {!Siesta_merge.Merged.validate} on the grammar, plus: one search
    error and {!Siesta_blocks.Block.count} entries per combination, and a
    combination for every computation terminal's cluster id.  A proxy
    that passes is one {!program} and {!Codegen_c.generate} can use.
    @raise Invalid_argument on violation. *)

val size_c_bytes : t -> int
(** The [size_C] of Table 3: exported grammar (terminals + rules + merged
    mains) plus the computation-proxy table (11 counts per cluster). *)

val mean_combo_error : t -> float

val program : t -> Siesta_mpi.Engine.ctx -> unit
(** The proxy as an SPMD rank program for {!Siesta_mpi.Engine.run}.
    [program t] maps the terminal table through {!Shrink.event} and each
    cluster's block combination to its work list once; each rank then
    walks its expansion ({!Siesta_merge.Merged.iter_rank}) through
    {!Siesta_trace.Replay}, running a computation event as its cluster's
    work list. *)

val slot_counts : t -> int * int * int
(** [(requests, communicators, files)]: the highest pooled number of
    each kind the terminals name ({!Siesta_trace.Event.iter_slots}),
    plus one; the C code's array sizes.  Communicators count at least
    the world one. *)
