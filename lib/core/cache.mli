(** Stage keys for the incremental pipeline cache.

    A stage key is the content hash of an {e explicit, human-readable
    descriptor} listing exactly the inputs that influence the stage's
    output — spec fields for the trace stage, the upstream blob hash
    plus stage options for the later ones.  Nothing structural is
    hashed (no [Marshal], no [Hashtbl.hash]): keys are stable across
    compiler versions and readable in [siesta store ls].

    The scaling [factor] only enters the proxy key: changing it reuses
    the cached trace and merged program and re-runs only the proxy
    search.

    Every builder takes [?schema] (defaulting to
    {!Siesta_store.Codec.schema_version}) so a format bump invalidates
    all previous bindings; tests override it to prove that property. *)

val trace_key :
  ?schema:int ->
  workload:string ->
  nranks:int ->
  iters:int option ->
  seed:int ->
  platform:string ->
  impl:string ->
  cluster_threshold:float ->
  unit ->
  string * string
(** [(key_hex, descriptor)].  The descriptor is stored in the manifest
    so [store ls] shows what each binding means. *)

val merge_key :
  ?schema:int -> trace_hash:string -> rle:bool -> unit -> string * string
(** Depends on the exact trace blob (content hash) and the Sequitur
    run-length option. *)

val proxy_key :
  ?schema:int ->
  merge_hash:string ->
  trace_hash:string ->
  factor:float ->
  platform:string ->
  impl:string ->
  unit ->
  string * string
(** Depends on the merged program, the trace (its compute table feeds
    the QP search), the scaling factor and the generation
    platform/implementation pair. *)
