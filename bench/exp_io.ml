(* Extension study: MPI-IO tracing and replay (Section 2.1 of the paper
   leaves I/O traces to future engineering; this framework implements
   them).  BT-IO — BT with full MPI-IO checkpointing — is traced,
   synthesized and replayed like any other program; the proxy reproduces
   the I/O pattern losslessly and its time tracks the target platform's
   file system (Lustre on A, GPFS on B, local SSD on C). *)

open Exp_common

let nranks = 16

let run () =
  heading "Extension: MPI-IO proxies (BT-IO, 16 processes, generated on A)";
  let s = Pipeline.spec ~workload:"BT-IO" ~nranks () in
  let traced = Pipeline.trace s in
  let sy = Pipeline.synthesize traced in
  let io_events =
    let recorder = traced.Pipeline.recorder in
    let count = ref 0 in
    for r = 0 to nranks - 1 do
      Array.iter
        (fun ev ->
          match Siesta_trace.Event.name ev with
          | "MPI_File_open" | "MPI_File_close" | "MPI_File_write_all" | "MPI_File_read_all"
          | "MPI_File_write_at" | "MPI_File_read_at" ->
              incr count
          | _ -> ())
        (Recorder.events recorder r)
    done;
    !count
  in
  Printf.printf "I/O events traced: %d | size_C: %s\n" io_events
    (Siesta_util.Bytes_fmt.to_string (Siesta_synth.Proxy_ir.size_c_bytes sy.Pipeline.sy_proxy));
  let rows =
    List.map
      (fun platform ->
        let original = (Pipeline.run_original s ~platform ~impl:s.Pipeline.impl).Engine.elapsed in
        let proxy = (Pipeline.run_proxy sy ~platform ~impl:s.Pipeline.impl).Engine.elapsed in
        [
          platform.Spec.name;
          platform.Spec.storage.Spec.fs_name;
          secs original;
          secs proxy;
          pct (time_err ~estimated:proxy ~original);
        ])
      Spec.all
  in
  table ~header:[ "platform"; "file system"; "original(s)"; "proxy(s)"; "time error" ] ~rows
