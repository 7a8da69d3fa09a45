(** Context-free grammars over integer terminals (Section 2.5.1).

    A grammar produced by the {!Sequitur} builder: the main rule plus a set
    of numbered auxiliary rules.  Every symbol occurrence carries a
    repetition count — the space optimization of Section 2.5.2, which turns
    the O(log n) grammar of a regular loop into O(1). *)

type symbol = T of int | N of int
(** [T id] is a terminal (an event id); [N i] references [rules.(i)]. *)

type entry = { sym : symbol; reps : int }
(** One body position: [sym] repeated [reps >= 1] times. *)

type rule = entry list

type t = { main : rule; rules : rule array }

val symbol_code : symbol -> int
(** The symbol as one integer, the tag in the low bit: [T v] is [2v],
    [N i] is [2i+1].  The store codec writes rule and main entries with
    it, and the merge keys rule bodies by it. *)

val symbol_of_code : int -> symbol
(** The inverse of {!symbol_code} on non-negative codes. *)

val expand : t -> int array
(** The terminal sequence the grammar derives — the inverse of
    construction.  @raise Invalid_argument on a malformed grammar (rule
    reference out of range). *)

val iter_rule : (int -> unit) -> t -> rule -> unit
(** [iter_rule f g body] calls [f] on each terminal [body] derives, in
    order, without building the sequence.  Every rule reference is
    checked as the walk reaches it.
    @raise Invalid_argument on a rule reference out of range. *)

val expand_rule : t -> rule -> int array
(** The terminals [iter_rule] visits, collected into an array. *)

val entry_count : t -> int
(** Total number of body entries across the main rule and all rules — the
    grammar's size in symbols. *)

val rule_count : t -> int
(** Number of auxiliary rules (excluding main). *)

val expanded_length : t -> int
(** Length of {!expand}'s result, computed without materializing it. *)

val depth : t -> int array
(** [depth g] gives, for each rule, the height of its derivation tree
    (terminals have height 0, a rule is 1 + max over its body).  Used by
    the inter-process non-terminal merge, which only merges equal-depth
    rules.  It runs {!validate}'s walk over the rules, with every check
    but the terminal range.
    @raise Invalid_argument on a bad reference or repetition, an empty
    rule or a cycle. *)

val equal : t -> t -> bool
(** Structural equality — exact match of rule numbering, bodies and
    repetition counts, not derivation equivalence. *)

val map_terminals : (int -> int) -> t -> t
(** [map_terminals f g] renames every terminal [T v] to [T (f v)],
    leaving the rule structure untouched.  Sequitur's construction
    depends only on symbol {e equality}, never on code values, so for a
    bijection [f] this commutes with construction:
    [map_terminals f (of_seq s) = of_seq (map f s)].  The merge relies
    on this to give every rank the renamed grammar of the first rank
    whose code stream maps onto its own, instead of running Sequitur
    again. *)

val serialized_bytes : t -> int
(** Export size of the grammar structure: 6 bytes per entry (4-byte symbol
    id + 2-byte repetition count) plus an 8-byte rule header each.  The
    terminal and computation tables are accounted separately. *)

val validate : terminals:int -> t -> unit
(** Checks, in one walk that reads each rule once, that rule references
    are in range, the rule graph is acyclic (Sequitur grammars always
    are), no rule is empty, every repetition is positive and every
    terminal id is in [\[0, terminals)].
    @raise Invalid_argument otherwise. *)

val pp : Format.formatter -> t -> unit
