(** The merged, program-wide grammar (output of Section 2.6).

    After inter-process merging the whole MPI program is represented by:
    - one global terminal table (shared event definitions);
    - one global set of non-terminal rules (identical rules from different
      ranks merged, matched depth-by-depth);
    - a small number of merged {e main rules}, one per cluster of similar
      ranks, whose symbols carry rank lists saying which ranks execute
      them.

    The representation is lossless: {!iter_rank} recovers every
    rank's original event-id sequence exactly. *)

type mentry = {
  sym : Siesta_grammar.Grammar.symbol;
  reps : int;
  ranks : Rank_list.t;  (** ranks that execute this symbol *)
}

type t = {
  nranks : int;
  terminals : Siesta_trace.Event.t array;
  rules : Siesta_grammar.Grammar.rule array;  (** global numbering *)
  mains : mentry list array;  (** one merged main rule per rank cluster *)
  main_ranks : Rank_list.t array;  (** ranks covered by each main; disjoint *)
}

val equal : t -> t -> bool
(** Structural equality (rank lists compared as sets).  Used to check
    the streamed merge against the batch merge, and cached merges
    against fresh ones. *)

val cluster_of_rank : t -> int -> int
(** Index into [mains] for a rank.  @raise Not_found if uncovered. *)

val iter_rank : (int -> unit) -> t -> int -> unit
(** [iter_rank f t rank] calls [f] on each id of the rank's terminal-id
    sequence, in order, walking the merged grammar without building the
    sequence.  @raise Not_found if the rank is uncovered.
    @raise Invalid_argument on a rule reference out of range, in a main
    entry or inside a rule. *)

val serialized_bytes : t -> int
(** Export size of terminals + rules + merged mains (the grammar part of
    Table 3's [size_C]; the computation-proxy table is accounted by the
    synthesis layer). *)

val stats : t -> string
(** One-line human-readable summary. *)

val validate : t -> unit
(** Structural checks: one main rule per rank list, disjoint main
    coverage of all ranks, an acyclic rule set, rule references and
    terminal ids in range, positive repetitions.  A grammar that passes
    is one {!iter_rank} walks for every rank without raising.
    @raise Invalid_argument on violation. *)
