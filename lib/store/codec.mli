(** Compact, self-describing binary serialization for the pipeline's
    stage artifacts.

    Every persistent blob is a {e frame}:

    {v
    "SSB1"                       4-byte magic
    <schema>                     varint, = {!schema_version}
    <kind>                       length-prefixed string ("trace", ...)
    <payload-length>             varint
    <payload>                    kind-specific binary body
    <checksum>                   8-byte little-endian FNV-1a 64 over
                                 everything before it
    v}

    Integers are zigzag varints, floats are their IEEE-754 bits
    ([Int64.bits_of_float], little-endian) so round-trips are {e exact}
    — a proxy decoded from the store generates byte-identical C to the
    one that was encoded.  No [Marshal] anywhere on the persistent path:
    blobs survive compiler upgrades and are rejected loudly (not
    segfault-y) when damaged.

    All decoders raise {!Corrupt} on malformed, truncated or
    wrong-schema input.  A count is rejected when it exceeds the bytes
    left to read, so a decoder never allocates for more elements than
    its blob has bytes. *)

exception Corrupt of string

val schema_version : int
(** Bumped whenever any payload layout changes; a mismatch makes
    {!unframe} raise {!Corrupt} (and a cache lookup miss). *)

val float_repr : float -> string
(** The exact bit pattern of a float as 16 hex chars — used wherever a
    float participates in a cache key ([0.1 +. 0.2] and [0.3] get
    different keys; [nan]s get a stable one). *)

(** {1 Framing} *)

val frame : kind:string -> string -> string
(** Wrap a payload in a checksummed, versioned frame. *)

val unframe : string -> string * string
(** [unframe blob] is [(kind, payload)].
    @raise Corrupt on bad magic, checksum mismatch, schema mismatch or
    truncation. *)

(** {1 Stage artifacts} *)

type trace_meta = {
  tm_original_elapsed : float;  (** uninstrumented run, simulated s *)
  tm_instrumented_elapsed : float;
  tm_original_calls : int;
  tm_instrumented_calls : int;
  tm_total_events : int;  (** encoded events across ranks *)
  tm_raw_bytes : int;  (** uncompressed trace volume (Table 3) *)
}
(** Run measurements that accompany a stored trace, so a cache hit can
    still report tracing overhead and raw size without re-running the
    engine (runs are deterministic per seed, so these are facts about
    the spec, not about the run that happened to produce the blob). *)

val meta_overhead : trace_meta -> float
(** [(instrumented - original) / original]; [0.] when original is 0. *)

val encode_trace : meta:trace_meta -> Siesta_trace.Trace_io.packed -> string
(** Framed; the distinct-event definition table is written once and the
    per-rank streams as chunks of varint codes, read straight out of the
    SoA buffers — encoding never materializes boxed events.  This is the
    one on-disk trace format: the store's trace object, the file
    [siesta trace --dump] writes and [siesta synth --from] reads. *)

val decode_trace : string -> trace_meta * Siesta_trace.Trace_io.packed
(** Decodes chunk by chunk into fresh SoA buffers (codes validated
    against the definition table; truncated chunks raise {!Corrupt}). *)

val encode_merged : Siesta_merge.Merged.t -> string

val decode_merged : string -> Siesta_merge.Merged.t
(** Also runs {!Siesta_merge.Merged.validate}: a grammar the pipeline
    cannot walk raises {!Corrupt} like any other damage. *)

val encode_proxy : Siesta_synth.Proxy_ir.t -> string
(** Self-contained: embeds the merged grammar alongside the block
    combinations, shrink plan and generation platform. *)

val decode_proxy : string -> Siesta_synth.Proxy_ir.t
(** Also runs {!Siesta_synth.Proxy_ir.validate}: a proxy that replay or
    codegen cannot use raises {!Corrupt}. *)

val encode_run : string -> string
(** Frame a run-ledger record (kind ["run"]).  Unlike the stage
    artifacts the payload is a UTF-8 JSON document — the ledger
    versions its field layout inside the document — so the frame's job
    is the magic, store schema version and checksum, and [store verify]
    vets ledger records with the same machinery as everything else. *)

val decode_run : string -> string
(** The JSON payload of a ["run"] frame.
    @raise Corrupt on damage or a different kind. *)

val encode_text : string -> string
(** Frame a plain-text server artifact (kind ["text"]) — generated C,
    report markdown, verdict JSON, dashboard HTML.  Same framing as
    every other blob, so [store verify] needs no special case. *)

val decode_text : string -> string
(** The payload of a ["text"] frame.
    @raise Corrupt on damage or a different kind. *)

(** {1 Primitives (exposed for tests and key building)} *)

module Wire : sig
  type writer
  type reader

  val writer : unit -> writer
  val contents : writer -> string
  val reader : string -> reader

  val w_varint : writer -> int -> unit
  (** Zigzag varint; any OCaml int round-trips (negatives included). *)

  val r_varint : reader -> int
  val w_float : writer -> float -> unit

  val r_float : reader -> float
  (** Bit-exact, [nan]s and signed zeros included. *)

  val w_string : writer -> string -> unit
  val r_string : reader -> string

  val at_end : reader -> bool
  (** All input consumed — decoders check this to reject trailing
      garbage. *)
end
