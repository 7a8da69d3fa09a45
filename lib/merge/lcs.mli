(** Longest common subsequence and insert/delete edit distance, used by the
    main-rule merge (Section 2.6.2).

    Two families of entry points:

    - the generic [~eq] functions work on any element type with a
      quadratic rolling-row DP — kept as the reference implementation the
      tests check the int entry points against;
    - the [_int] functions are the hot path: the merge pipeline interns
      main-rule positions into immediate [int]s, so {!length_int} runs
      the bit-parallel LLCS (Crochemore et al. / Hyyro, ~62 DP cells per
      word operation) and {!pairs_int} runs monomorphic loops with [=] on
      unboxed ints.

    Backtracking uses Hirschberg's divide-and-conquer, so {!pairs_int}
    needs only O(min(n, m)) memory and has {e no} input-size cliff (the
    old implementation returned no matches above a 16M-cell budget,
    degrading large merges to concatenation). *)

val length : eq:('a -> 'a -> bool) -> 'a array -> 'a array -> int
(** Length of an LCS.  No pipeline stage calls it: it stays in the
    library as the reference the tests check {!length_int} against, and
    as the generic side of the bechamel LCS case. *)

val length_int : int array -> int array -> int
(** {!length} specialized to ints, bit-parallel. *)

val pairs_int : int array -> int array -> (int * int) list
(** Matched index pairs [(i, j)] of one LCS, strictly increasing in both
    components; the list length equals {!length_int}.  O(min(n, m))
    memory. *)

val indel_distance : eq:('a -> 'a -> bool) -> 'a array -> 'a array -> int
(** Minimum insertions+deletions turning one array into the other:
    [n + m - 2 * lcs]. *)

val indel_distance_int : int array -> int array -> int

val normalized_distance : eq:('a -> 'a -> bool) -> 'a array -> 'a array -> float
(** {!indel_distance} / (n + m); 0 for identical, 1 for disjoint.  Two
    empty arrays have distance 0. *)

val normalized_distance_int : int array -> int array -> float
