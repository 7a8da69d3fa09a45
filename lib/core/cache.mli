(** Stage keys for the incremental pipeline cache.

    A stage key is the content hash of an {e explicit, human-readable
    descriptor} listing exactly the inputs that determine the stage's
    output — spec fields for the trace stage, the trace blob's hash for
    the merge, and that hash plus the factor and the platform/impl pair
    for the proxy.  Nothing structural is hashed (no
    [Marshal], no [Hashtbl.hash]): keys are stable across compiler
    versions and readable in [siesta store ls].

    The merged grammar is a pure function of the trace blob, so the
    proxy key names the trace hash rather than the merged blob's: the
    two name the same inputs, and a proxy lookup needs no merged blob.
    The scaling [factor] only enters the proxy key: changing it reuses
    the cached trace and merged program and re-runs only the proxy
    search.

    Every descriptor names {!Siesta_store.Codec.schema_version}, so a
    format bump invalidates all previous bindings. *)

val trace_key :
  workload:string ->
  nranks:int ->
  iters:int option ->
  seed:int ->
  platform:string ->
  impl:string ->
  cluster_threshold:float ->
  string * string
(** [(key_hex, descriptor)].  The descriptor is stored in the manifest
    so [store ls] shows what each binding means. *)

val merge_key : trace_hash:string -> string * string
(** Depends on the exact trace blob (content hash) only. *)

val proxy_key :
  trace_hash:string -> factor:float -> platform:string -> impl:string -> string * string
(** Depends on the trace blob (its events determine the merged grammar,
    its compute table feeds the QP search), the scaling factor and the
    generation platform/implementation pair. *)
