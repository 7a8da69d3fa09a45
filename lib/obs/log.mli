(** Leveled structured logger.

    Lines are [key=value] structured, written atomically to stderr or a
    file sink:

    {v [0.004217] [info] pipeline.cache stage=merge workload=CG nranks=8 outcome=hit v}

    The level comes from the [SIESTA_LOG] environment variable
    ([debug|info|warn|off], default [warn]) and can be overridden
    programmatically (the CLI's [-v]/[-vv] flags do).  Disabled levels
    cost one branch: message text and key/value lists live behind a
    thunk that is never forced. *)

type level = Debug | Info | Warn | Off

val level_of_string : string -> level option
val level_name : level -> string

val set_level : level -> unit
val level : unit -> level

val enabled : level -> bool
(** [enabled l] is true when a message at level [l] would be emitted. *)

val set_sink_file : string -> unit
(** Redirect output to [path] (truncates; closed/flushed at exit and on
    the next [set_sink_*] call). *)

val set_sink_stderr : unit -> unit

val msg : level -> (unit -> string * (string * string) list) -> unit
(** [msg l thunk] emits [thunk ()] as ["event k=v ..."] when level [l]
    is enabled.  The thunk is not forced otherwise. *)

val debug : (unit -> string * (string * string) list) -> unit
val info : (unit -> string * (string * string) list) -> unit
val warn : (unit -> string * (string * string) list) -> unit

val flush : unit -> unit
