(** Nestable timing spans exported as Chrome [trace_event] JSON.

    [with_ ~name f] times [f] and records a complete ("ph":"X") event
    with the current domain's id as the thread id, so spans from
    different domains render as separate tracks in [chrome://tracing] /
    Perfetto.  Nesting falls out of the format:
    complete events on one track whose time ranges enclose each other
    are drawn stacked.

    Recording is off by default; when disabled, [with_ name f] is
    [f ()] plus one branch — no timestamps are read and nothing
    allocates. *)

val set_enabled : bool -> unit
val enabled : unit -> bool

type event = {
  e_name : string;
  e_cat : string;
  e_ph : char;  (** ['X'] complete, ['i'] instant, ['M'] metadata *)
  e_ts_us : float;
  e_dur_us : float;
  e_tid : int;
  e_args : (string * string) list;
}
(** A raw trace event.  Exposed so other layers (notably
    {!Siesta_analysis.Timeline}) can serialize events on a clock other
    than the host clock through {!chrome_json_of} without going through
    the global buffer. *)

val with_ : ?cat:string -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_ name f] runs [f] inside a span.  The span closes (and is
    recorded) even if [f] raises.  [attrs] land in the event's ["args"].
    [cat] defaults to ["siesta"]. *)

val instant : ?cat:string -> ?attrs:(string * string) list -> string -> unit
(** A zero-duration marker ("ph":"i"). *)

val event_count : unit -> int
(** Events buffered so far. *)

val reset : unit -> unit
(** Drop all buffered events (keeps the enabled flag). *)

val chrome_json_of : ?clock:string -> event list -> string
(** Serialize an explicit event list as a Chrome trace.  [clock]
    (default ["host"]) lands in [otherData.clock] so consumers can tell
    a wall-clock trace from a simulated-clock one. *)

val to_chrome_json : unit -> string
(** The buffered events as a Chrome trace: an object with a
    ["traceEvents"] array, loadable by [chrome://tracing] and Perfetto.
    Valid (empty) even when nothing was recorded.  Marked
    [otherData.clock = "host"]. *)

val write : path:string -> unit
