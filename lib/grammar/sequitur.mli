(** Space-optimized Sequitur (Sections 2.5.2).

    Online construction of a context-free grammar from a symbol stream,
    maintaining three invariants after every appended symbol:

    + {e digram uniqueness} — no pair of adjacent symbols (including their
      repetition counts) occurs twice in the grammar;
    + {e rule utility} — every auxiliary rule is referenced at least twice
      (a single reference with repetition count >= 2 also counts, since the
      rule is then applied more than once);
    + {e run-length merging} (the optimization of Dorier et al. adopted by
      the paper) — adjacent equal symbols [a^i a^j] collapse to [a^(i+j)],
      so a loop that repeats one body n times costs O(1) grammar space
      instead of O(log n).

    Construction is amortized O(1) per appended symbol.  The builder keeps
    its nodes, rules and digram index in flat int arrays and recycles
    freed slots, so once the grammar stops growing, appending allocates
    nothing and the builder's memory stays bounded by the grammar size. *)

type t

val create : ?rle:bool -> unit -> t
(** [rle:false] disables constraint 3 (plain Sequitur), used by the
    ablation benchmark. *)

val reset : t -> unit
(** Return the builder to the state {!create} gives it, with the same
    [rle], but keep its grown arrays.  The grammar built next is the
    one a fresh builder would build; only the allocation differs. *)

val push : t -> int -> unit
(** Feed the next terminal of the stream, as it is produced.  The
    grammar invariants are re-established before [push] returns, so the
    builder can be {!finalize}d (or kept growing) at any point. *)

val finalize : t -> Grammar.t
(** Export the current grammar with rules compacted to a dense [0..n-1]
    numbering.  Sequitur maintains its invariants after every symbol, so
    this needs no catch-up work, and the builder remains usable
    afterwards. *)

val of_seq : ?rle:bool -> int array -> Grammar.t
(** One-shot convenience: feed the whole sequence and export. *)

val node_capacity : t -> int
(** Node slots currently allocated by the builder (live, free and
    spare).  Exposed so tests can check that memory tracks the grammar,
    not the stream. *)

val check_invariants : t -> (string, string) result
(** Verify digram uniqueness, rule utility and the body links on the
    current state — [Ok] with a summary, or [Error] describing the
    violation.  O(grammar size); exposed for the test suite. *)
