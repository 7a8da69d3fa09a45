(** Inter-process merging pipeline (Sections 2.5–2.6).

    From per-rank encoded event streams to the program-wide {!Merged.t}:

    + intern all streams in a global {!Terminal_table};
    + build a space-optimized {!Siesta_grammar.Sequitur} grammar per rank
      over the global-id sequences.  On a packed trace, ranks whose
      streams are equal up to a renaming of event codes share one
      Sequitur run ({!rank_grammars});
    + merge non-terminal rules across ranks, shallow depths first, so
      deeper rules can refer to already-merged ids;
    + group main rules into clusters by normalized edit distance (merging
      dissimilar mains would inflate branch statements — Section 2.6.2),
      then LCS-merge each cluster's mains, attaching rank lists.  Each
      distinct main joins the oldest cluster whose first main is within
      the threshold; a pair whose multiset intersection already puts it
      above the threshold skips the LCS.  One inverted index over the
      clusters' first mains gives a main's intersection with every
      cluster in one pass.

    The pass is sequential and deterministic: rule ids are numbered
    depth-major, then by first occurrence in rank order. *)

type config = {
  rle : bool;  (** run-length constraint in Sequitur (default true) *)
  cluster_threshold : float;
      (** max normalized edit distance for two main rules to share a
          cluster (default 0.35) *)
}

val default_config : config

val merge_streams :
  ?config:config -> nranks:int -> Siesta_trace.Event.t array array -> Merged.t
(** [merge_streams ~nranks streams] with [streams.(r)] the encoded event
    stream of rank [r] — the batch path over boxed events. *)

val rank_grammars : rle:bool -> Siesta_trace.Trace_io.packed -> Siesta_grammar.Grammar.t array
(** The per-rank grammars of a packed trace, over the canonical terminal
    numbering ({!Terminal_table.build}'s first occurrence, rank-major):
    equal to [Sequitur.of_seq ~rle] over each rank's sequence in the
    terminal table of the same events.  Sequitur runs once per distinct
    rank {e shape}, on one builder that {!Siesta_grammar.Sequitur.reset}
    clears between shapes.  Two ranks share a shape when a bijection of event
    codes maps one's stream onto the other's, checked position by
    position; the later rank then gets the first rank's grammar with its
    terminals renamed ({!Siesta_grammar.Grammar.map_terminals}). *)

val merge_packed : ?config:config -> Siesta_trace.Trace_io.packed -> Merged.t
(** The streaming path: merge directly from the struct-of-arrays trace,
    without materializing boxed event streams.  Terminal codes are first
    canonicalized to the batch numbering (one sequential int scan), then
    the per-rank grammars come from {!rank_grammars}'s shape pass — so
    the result is {!Merged.equal} (indeed structurally identical) to
    [merge_streams] over the same events.  The [merge.shapes] counter
    records the number of Sequitur runs. *)
