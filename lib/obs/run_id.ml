(* One id per process, minted at module initialization so every telemetry
   stream (log lines, span files, metrics, ledger records) written by this
   process carries the same value.  48 bits of millisecond wall time plus
   16 bits of pid: unique across the runs a ledger will ever hold without
   needing a random source. *)
let make () =
  let ms = Int64.of_float (Unix.gettimeofday () *. 1000.0) in
  Printf.sprintf "%012Lx%04x"
    (Int64.logand ms 0xffffffffffffL)
    (Unix.getpid () land 0xffff)

let current =
  ref
    (match Sys.getenv_opt "SIESTA_RUN_ID" with
    | Some s when String.trim s <> "" -> String.trim s
    | _ -> make ())

let get () = !current
let set id = if String.trim id <> "" then current := String.trim id

let publish () =
  Metrics.incr (Metrics.counter (Printf.sprintf "run.id{id=\"%s\"}" (get ()))) 1
