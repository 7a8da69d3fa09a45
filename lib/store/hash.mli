(** Hashing utilities for the artifact store.

    Two distinct roles, two distinct functions:

    - {!fnv64} — FNV-1a 64-bit, the cheap streaming checksum embedded in
      every {!Codec} frame.  It detects corruption (bit rot, truncation,
      concurrent writers) — it is {e not} collision-resistant and is
      never used for addressing.
    - {!content_hash} — the content address (MD5 via the stdlib
      [Digest], rendered as 32 hex chars).  Object file names and stage
      keys are content hashes; equality of hashes is treated as equality
      of content. *)

val fnv64 : string -> int64
(** FNV-1a over the bytes of the string, from the standard 64-bit offset
    basis [0xcbf29ce484222325]. *)

val fnv64_hex : string -> string
(** [fnv64] rendered as 16 lowercase hex characters. *)

val content_hash : string -> string
(** MD5 of the string as 32 lowercase hex characters — the store's
    content address. *)

val is_hex : string -> bool
(** All characters in [0-9a-f] (used to screen object file names). *)
