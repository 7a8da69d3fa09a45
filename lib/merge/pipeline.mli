(** Inter-process merging pipeline (Sections 2.5–2.6).

    From per-rank encoded event streams to the program-wide {!Merged.t}:

    + intern all streams in a global {!Terminal_table};
    + run space-optimized {!Siesta_grammar.Sequitur} per rank over the
      global-id sequences;
    + merge non-terminal rules across ranks, shallow depths first, so
      deeper rules can refer to already-merged ids;
    + group main rules into clusters by normalized edit distance (merging
      dissimilar mains would inflate branch statements — Section 2.6.2),
      then LCS-merge each cluster's mains, attaching rank lists.  Each
      distinct main joins the oldest cluster whose first main is within
      the threshold; a pair that the multiset bound
      ({!Lcs.multiset_common_int}) already puts above the threshold skips
      the LCS.

    The per-rank stages (Sequitur construction, main-rule positioning,
    exact-main keying) are embarrassingly parallel and fan out over a
    {!Siesta_util.Parallel} domain pool; because every parallel result is
    slotted by rank index and all cross-rank state is built sequentially,
    the merged output is identical for every domain count (the test suite
    checks parallel/sequential equality). *)

type config = {
  rle : bool;  (** run-length constraint in Sequitur (default true) *)
  cluster_threshold : float;
      (** max normalized edit distance for two main rules to share a
          cluster (default 0.35) *)
  domains : int option;
      (** domain-pool size for the per-rank stages.  [None] (default)
          borrows the process-wide warm pool
          ({!Siesta_util.Parallel.global}), whose implicit sizing
          ([SIESTA_NUM_DOMAINS], else the recommended domain count) is
          clamped to {!Domain.recommended_domain_count} so the merge is
          never slower than serial on small hosts.  [Some d] creates a
          raw transient pool of exactly [d] domains (no clamp — the
          determinism cross-checks rely on it); [Some 1] forces the
          sequential path. *)
  pool : Siesta_util.Parallel.pool option;
      (** externally owned pool for the per-rank stages; when set it
          overrides [domains], is {e not} shut down by the merge, and the
          caller may read {!Siesta_util.Parallel.stats} afterwards (used
          by the bench drivers to measure per-domain efficiency).
          Default [None]: [domains] chooses the pool, so by default the
          warm {!Siesta_util.Parallel.global} pool is borrowed. *)
  arity : int;
      (** fan-in of the hierarchical non-terminal merge tree (default 2:
          pairwise).  Any arity >= 2 produces the identical merged
          grammar — the per-node ordered dedup-concatenation is
          associative — so this only trades tree depth against per-node
          work. *)
}

val default_config : config

val merge_streams :
  ?config:config -> nranks:int -> Siesta_trace.Event.t array array -> Merged.t
(** [merge_streams ~nranks streams] with [streams.(r)] the encoded event
    stream of rank [r] — the batch path over boxed events. *)

val merge_packed : ?config:config -> Siesta_trace.Trace_io.packed -> Merged.t
(** The streaming path: merge directly from the struct-of-arrays trace,
    without materializing boxed event streams.  Terminal codes are first
    canonicalized to the batch numbering (one sequential int scan), and
    online-recorded grammars, when the trace carries them, are rebased
    via {!Siesta_grammar.Grammar.map_terminals} instead of being rebuilt
    — so the result is {!Merged.equal} (indeed structurally identical)
    to [merge_streams] over the same events, at any pool size and tree
    arity. *)
