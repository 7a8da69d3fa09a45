(** Process-wide metrics registry: counters, gauges and fixed-bucket
    log-scale histograms.

    Metrics are named, created idempotently ([counter "x"] twice returns
    the same cell) and domain-safe: counters and histogram buckets are
    atomics, so concurrent increments from several domains or threads
    never lose updates.  Recording is gated on a global enable flag
    — when disabled ({!enabled}[ () = false], the default) every
    operation is a single branch and no allocation happens, so
    instrumented hot paths cost nothing.

    Snapshots serialize to an aligned text table or to JSON
    ([--metrics-out foo.json] picks JSON by extension). *)

val set_enabled : bool -> unit
val enabled : unit -> bool

(** {1 Instruments} *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Find-or-create the counter named [name].  Raises [Invalid_argument]
    if the name is already registered as a different kind. *)

val gauge : string -> gauge
val histogram : string -> histogram

val incr : counter -> int -> unit
(** No-op unless {!enabled}. *)

val set : gauge -> float -> unit
val observe : histogram -> float -> unit

val counter_value : counter -> int

(** {1 Histogram internals (exposed for tests and {!snapshot} readers)} *)

module Histo : sig
  type t
  (** A standalone histogram with fixed log-scale buckets spanning
      [1e-9 .. 1e3] at two buckets per decade, plus under/overflow.
      Observations are atomic; [observe] never allocates. *)

  val create : unit -> t
  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float
  val bucket_index : float -> int
  val nbuckets : int

  val bucket_upper : int -> float
  (** Upper bound of bucket [i]; [infinity] for the overflow bucket. *)

  val nonzero_buckets : t -> (int * float * int) list
  (** [(index, upper_bound, count)] for buckets with at least one hit. *)

  val quantile : t -> float -> float
  (** [quantile h q] estimates the [q]-quantile with linear
      interpolation inside the covering bucket (so p50 and p99 separate
      even when the mass shares a bucket).  [q] is clamped to [0, 1]:
      [q = 0] is the lower bound of the first occupied bucket, [q = 1]
      the upper bound of the last occupied one (the overflow bucket is
      taken at its largest finite bound, so the result is always
      finite).  [nan] when the histogram is empty. *)
end

(** {1 Snapshots} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of Histo.t

val snapshot : unit -> (string * value) list
(** All registered metrics, sorted by name. *)

val to_text : unit -> string
val to_json : unit -> string

val write : path:string -> unit
(** JSON when [path] ends in [.json], text otherwise. *)

val reset : unit -> unit
(** Drop every registered metric (tests and the overhead bench). *)
