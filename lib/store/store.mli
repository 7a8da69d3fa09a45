(** Content-addressed, versioned artifact store.

    Layout under a root directory ([SIESTA_STORE], default
    [.siesta-store/]):

    {v
    <root>/objects/<h2>/<h30>    blobs, named by the MD5 of their bytes
    <root>/manifest              stage-key -> blob-hash bindings (text)
    <root>/tmp/                  staging area for atomic writes
    v}

    Objects are {!Codec} frames — self-describing, checksummed, schema
    versioned.  Writes are write-then-rename, so a crashed process never
    leaves a half-written object under [objects/]; identical content is
    stored once ({!put} of an existing hash is a no-op).

    The manifest maps {e stage keys} (content hashes of an explicit key
    descriptor — see [Siesta.Cache]) to blob hashes.  Bindings are what
    {!gc} marks from: any object no manifest entry references is swept.

    All operations on one [t] are serialized by an internal mutex;
    concurrent processes are safe for [put]/[get] (content addressing
    makes racing writers idempotent) while manifest updates are
    last-writer-wins. *)

type t

val default_root : unit -> string
(** [$SIESTA_STORE] when set and non-empty, else [".siesta-store"]. *)

val open_ : ?root:string -> unit -> t
(** Open (creating directories as needed).  [root] defaults to
    {!default_root}. *)

val root : t -> string

(** {1 Blobs} *)

val put : t -> string -> string
(** Store a framed blob; returns its content hash.  Re-putting existing
    content is a cheap no-op (dedup). *)

val get : t -> string -> string option
(** Fetch by content hash.  [None] when absent; a blob whose bytes no
    longer match its name is treated as absent, logged, and deleted so a
    subsequent {!put} can repair it. *)

val contains : t -> string -> bool

(** {1 Manifest} *)

type entry = {
  e_key : string;  (** stage key (32 hex chars) *)
  e_hash : string;  (** blob content hash *)
  e_kind : string;  (** codec kind: "trace", "merged", "proxy", ... *)
  e_created : float;  (** unix time the binding was written *)
  e_descr : string;  (** human-readable key descriptor *)
}

val bind : t -> key:string -> hash:string -> kind:string -> descr:string -> unit
(** Bind a stage key to a blob (replacing any previous binding for the
    key).  The manifest is rewritten atomically. *)

val resolve : t -> key:string -> string option
(** The blob hash currently bound to [key]. *)

val entries : t -> entry list
(** All bindings, sorted by creation time then key. *)

val rm : t -> string -> int
(** Drop every binding whose key {e or} blob hash starts with the given
    hex prefix; returns the number removed.  Objects stay on disk until
    {!gc}. *)

(** {1 Maintenance} *)

type verify_report = {
  v_objects : int;  (** object files examined *)
  v_entries : int;  (** manifest entries examined *)
  v_issues : string list;  (** empty = healthy *)
}

val verify : t -> verify_report
(** Re-hash every object against its file name, unframe it (checksum +
    schema version), and check that every manifest entry's blob exists
    with the kind it claims. *)

type gc_stats = {
  live : int;  (** objects referenced by the manifest *)
  swept : int;  (** unreferenced objects deleted *)
  freed_bytes : int;
}

val gc : t -> gc_stats
(** Mark-and-sweep: everything the manifest references is live, the rest
    is deleted (stale tmp files included). *)

val size_bytes : t -> int
(** Total bytes under [objects/]. *)

val object_size : t -> string -> int option
(** On-disk size of one blob by content hash; [None] when absent
    (drives [store ls --long]). *)

val objects : t -> (string * int) list
(** Every object on disk as [(hash, bytes)], sorted by hash — including
    unreferenced ones awaiting {!gc} (set-difference against {!entries}
    to find them). *)
