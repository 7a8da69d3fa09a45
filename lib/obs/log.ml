type level = Debug | Info | Warn | Off

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "off" | "none" | "quiet" -> Some Off
  | _ -> None

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Off -> "off"

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Off -> 3

let initial_level =
  match Sys.getenv_opt "SIESTA_LOG" with
  | Some s -> (
      match level_of_string s with
      | Some l -> l
      | None ->
          Printf.eprintf "siesta: ignoring invalid SIESTA_LOG=%S (debug|info|warn|off)\n%!" s;
          Warn)
  | None -> Warn

(* The current level is read on every call site; a plain [ref] read would
   be a data race across domains, so it lives in an [Atomic] (an
   immediate, so reads stay branch-cheap). *)
let current = Atomic.make initial_level

let set_level l = Atomic.set current l
let level () = Atomic.get current
let enabled l = severity l >= severity (Atomic.get current) && Atomic.get current <> Off

(* Sink: stderr by default; [set_sink_file] swaps in an out_channel.  All
   writes (and sink swaps) happen under one mutex so concurrent domains
   never interleave half-lines. *)
let lock = Mutex.create ()
let sink : out_channel option ref = ref None (* None = stderr *)
let owned : out_channel option ref = ref None (* channel we must close *)

let close_owned () =
  match !owned with
  | Some oc ->
      (try
         Stdlib.flush oc;
         close_out oc
       with Sys_error _ -> ());
      owned := None
  | None -> ()

let () = at_exit (fun () -> Mutex.protect lock close_owned)

let set_sink_file path =
  Mutex.protect lock (fun () ->
      close_owned ();
      let oc = open_out path in
      sink := Some oc;
      owned := Some oc)

let set_sink_stderr () =
  Mutex.protect lock (fun () ->
      close_owned ();
      sink := None)

let flush () =
  Mutex.protect lock (fun () ->
      match !sink with Some oc -> Stdlib.flush oc | None -> Stdlib.flush stderr)

(* A value with spaces, quotes or '=' is quoted so lines stay
   machine-splittable on whitespace. *)
let quote_if_needed v =
  let needs =
    v = ""
    || String.exists (fun c -> c = ' ' || c = '=' || c = '"' || c = '\n' || c = '\t') v
  in
  if needs then Printf.sprintf "%S" v else v

let msg l thunk =
  if enabled l then begin
    let event, kvs = thunk () in
    let b = Buffer.create 96 in
    (* run=<id> joins the line to the process's other telemetry (span
       files, metrics snapshots, ledger records); the whole id, since
       its first digits are a coarse clock two processes can share. *)
    Buffer.add_string b
      (Printf.sprintf "[%.6f] [%s] %s run=%s" (Clock.now_s ()) (level_name l) event
         (Run_id.get ()));
    List.iter
      (fun (k, v) ->
        Buffer.add_char b ' ';
        Buffer.add_string b k;
        Buffer.add_char b '=';
        Buffer.add_string b (quote_if_needed v))
      kvs;
    Buffer.add_char b '\n';
    let line = Buffer.contents b in
    Mutex.protect lock (fun () ->
        match !sink with
        | Some oc -> output_string oc line
        | None ->
            output_string stderr line;
            Stdlib.flush stderr)
  end

let debug thunk = msg Debug thunk
let info thunk = msg Info thunk
let warn thunk = msg Warn thunk
