(** Static communication-correctness checker over merged grammars.

    The merged program is a compact symbolic description of every rank's
    communication, so three classes of defect can be verified without
    replaying a single event — the checker walks each rank's expansion
    of the {!Siesta_merge.Merged} grammar
    ({!Siesta_merge.Merged.iter_rank}) and reasons about the occurrences
    it visits:

    - {b matching completeness}: every point-to-point send must have a
      structurally reachable matching recv on its destination (and vice
      versa).  Point-to-point traffic travels on the world communicator.
      Sends and recvs are grouped into [(src, tag)] classes per
      destination and matched by an
      integral max-flow, so wildcard ([MPI_ANY_SOURCE]/[MPI_ANY_TAG])
      recv classes are credited optimally rather than greedily.  This is
      the static analogue of {!Siesta_mpi.Engine}'s dynamic
      [unreceived_messages] counter.
    - {b rendezvous deadlock potential}: messages above the MPI
      profile's [eager_threshold_bytes] block their sender until the
      receiver reaches the matching recv.  The checker FIFO-matches
      sends to recvs per [(src, dst, tag)] (MPI's non-overtaking rule),
      builds the waits-for graph among blocking occurrences
      (rendezvous-sized blocking sends and blocking recvs, chained in
      program order per rank), and reports any cycle — a schedule on
      which every rank in the cycle blocks forever.
    - {b collective consistency}: all ranks participating in a
      communicator must issue the same sequence of collective
      [(kind, root, op)] signatures, and rooted world collectives must
      name a root inside [\[0, nranks)].

    What the checker can {e not} prove is anything depending on values or
    timing — message {e contents}, compute fidelity, or which of several
    legal wildcard matchings a real run takes; those still need replay
    (see [DESIGN.md] §14).  Verdicts mirror {!Divergence}: a typed
    verdict over structured reason strings and markdown/JSON renderings;
    [siesta runs compare] ranks the recorded verdict names. *)

type report = {
  k_nranks : int;
  k_impl : string;  (** MPI profile name the thresholds came from *)
  k_eager_threshold : int;
  k_sends : int;  (** point-to-point send occurrences *)
  k_recvs : int;
  k_wildcard_recvs : int;  (** recvs with [ANY_SOURCE] or [ANY_TAG] *)
  k_rdv_sends : int;  (** blocking sends above the eager threshold *)
  k_collectives : int;
  k_unmatched_sends : int;  (** sends no recv class can absorb *)
  k_unmatched_recvs : int;  (** recvs no send will ever satisfy *)
  k_deadlock_cycles : int;
  k_collective_mismatches : int;  (** sequence mismatches + bad roots *)
  k_reasons : string list;  (** human-readable violations, stable order *)
}

type verdict = Clean | Violated of string list

val check : impl:Siesta_platform.Mpi_impl.t -> Siesta_merge.Merged.t -> report
(** Run all three checks.  [impl] supplies the eager/rendezvous switch
    point; everything else comes from the merged grammar itself. *)

val verdict : report -> verdict

val verdict_name : verdict -> string
(** ["clean"] or ["violated"]. *)

val to_markdown : report -> string
val to_json : report -> string

val of_json : Siesta_obs.Json.t -> report
(** Inverse of {!to_json} ∘ {!Siesta_obs.Json.parse_exn}.
    @raise Failure on a document missing checker fields. *)

val publish_metrics : report -> unit
(** [check.*] gauges (clean flag plus per-check violation counts). *)

(** {1 Fault injection}

    Deliberate damage to a merged program, one seeded fault per checker
    dimension, for drilling the detector ([siesta check --perturb]). *)

type fault = [ `Mismatch | `Deadlock | `Collective ]

val fault_names : (string * fault) list
(** CLI spellings: ["mismatch"], ["deadlock"], ["collective"]. *)

val fault_of_string : string -> (fault, string) result
(** The [Error] carries a message naming the offending token. *)

val perturb : ?sites:int array -> fault -> Siesta_merge.Merged.t -> Siesta_merge.Merged.t
(** [`Mismatch] injects a send nobody receives on every rank;
    [`Deadlock] injects a ring of above-threshold blocking sends posted
    before their matching recvs (a self-loop at nranks=1);
    [`Collective] gives one rank an extra world collective the others
    never join (at nranks=1: an out-of-range root instead).  [sites]
    picks the injection position inside each main cluster's entry list
    ([sites.(i mod Array.length sites)] for cluster [i], clamped to the
    list length); omitted or empty, faults append at the end.  Every
    fault flips the verdict at every site — the qcheck placement
    property relies on it.  The result still satisfies
    {!Siesta_merge.Merged.validate}. *)
