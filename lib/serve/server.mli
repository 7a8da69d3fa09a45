(** The [siesta serve] daemon: an HTTP/1.1 front over one shared
    content-addressed store and a {!Jobs} manager.

    Routes (all JSON unless noted):
    - [POST /jobs] — submit a synthesis spec; 202 with
      [{"job","state","coalesced"}], 400 on a malformed spec, 429 +
      [queue_depth] when the queue is full, 503 while draining.
    - [GET /jobs] — queue depth + job summaries, newest first.
    - [GET /jobs/<id>] — full job status (state, waiters, timings,
      per-stage cache outcomes, artifact hashes).
    - [GET /jobs/<id>/<name>] — a finished job's artifact payload
      ([proxy.c], [report.md], [check.json], optional [diff.json] /
      [timeline.html] / [sweep.json] / [sweep.html]) under its own
      content type.
    - [GET|HEAD /blobs/<hash>] — raw framed store blobs by content
      hash (octet-stream); a trace blob served here is a file
      [siesta synth --from] accepts.  Other methods get 405.
    - [GET /healthz], [GET /metricsz] — liveness and the full
      {!Siesta_obs.Metrics} registry.

    Every response carries [X-Siesta-Request] (run id + connection
    correlation suffix) and [Connection: close].  SIGTERM/SIGINT (via
    {!install_signals}) stop the accept loop, 503 nothing — new
    connections simply stop being accepted — drain queued and running
    jobs, join workers, and return from {!serve}. *)

type config = {
  listen : Http.address;
  store_root : string option;  (** [None] = {!Siesta_store.Store.default_root} *)
  workers : int;
  max_queue : int;
  max_body : int;  (** request-body byte limit (413 beyond it) *)
  read_timeout : float;  (** per-socket [SO_RCVTIMEO] seconds *)
}

val default_config : config
(** Unix socket [".siesta-serve.sock"], default store, 1 worker, queue
    of 64, 8 MiB bodies, 10 s read timeout. *)

type t

val create : config -> t
(** Open the store, arm metrics and the run id, start the worker
    threads, bind and listen.  A stale unix-socket file is unlinked.
    It arms no ledger sink: each job appends its own records. *)

val install_signals : t -> unit
(** SIGTERM/SIGINT trigger graceful shutdown (daemon mode only — tests
    use {!stop}). *)

val serve : t -> unit
(** Accept loop; returns after a stop request once all jobs drained. *)

val start : t -> unit
(** Run {!serve} on a background thread (tests). *)

val request_stop : t -> unit

val stop : t -> unit
(** {!request_stop} and join the {!start} thread. *)

val jobs : t -> Jobs.t
val store : t -> Siesta_store.Store.t
