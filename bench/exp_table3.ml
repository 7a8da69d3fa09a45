(* Table 3: specification of generated proxy-apps — per program and process
   count: uncompressed trace size, exported grammar size (size_C), tracing
   overhead, and the six-metric counter error of the proxy against the
   original. *)

open Exp_common

let run () =
  heading "Table 3: Specification of generated proxy-apps";
  let rows = ref [] in
  List.iter
    (fun (w : Registry.t) ->
      List.iter
        (fun procs ->
          let s = Pipeline.spec ~workload:w.Registry.name ~nranks:procs () in
          let traced = Pipeline.trace s in
          let sy = Pipeline.synthesize traced in
          let row = Evaluate.table3_row traced sy in
          rows :=
            [
              row.Evaluate.program;
              string_of_int row.Evaluate.processes;
              Siesta_util.Bytes_fmt.to_string row.Evaluate.trace_bytes;
              Siesta_util.Bytes_fmt.to_string row.Evaluate.size_c_bytes;
              (if row.Evaluate.overhead < 0.01 then "<1%" else pct row.Evaluate.overhead);
              pct row.Evaluate.error;
            ]
            :: !rows;
          Printf.eprintf "  [table3] %s %d done\n%!" w.Registry.name procs)
        (procs_of w))
    Registry.paper_workloads;
  table
    ~header:[ "Program"; "Process"; "Trace size"; "size_C"; "Overhead"; "Error" ]
    ~rows:(List.rev !rows)
