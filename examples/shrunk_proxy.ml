(* Shrunk proxies: estimate a long run from a short one (Section 2.7).

     dune exec examples/shrunk_proxy.exe

   Sweeps the scaling factor for BT@16 and reports, per factor, the raw
   proxy runtime, the back-scaled estimate, and its error against the
   original — showing the accuracy/speed trade-off of Siesta-scaled. *)

module Pipeline = Siesta.Pipeline
module Evaluate = Siesta.Evaluate
module Engine = Siesta_mpi.Engine

let () =
  let spec = Pipeline.spec ~workload:"BT" ~nranks:16 () in
  let traced = Pipeline.trace spec in
  let original = traced.Pipeline.original.Engine.elapsed in
  Printf.printf "BT@16 original: %.4f s\n\n" original;
  let rows =
    List.map
      (fun factor ->
        let sy = Pipeline.synthesize ~factor traced in
        let raw =
          (Pipeline.run_proxy sy ~platform:spec.Pipeline.platform ~impl:spec.Pipeline.impl)
            .Engine.elapsed
        in
        let estimate = factor *. raw in
        [
          Printf.sprintf "%.0f" factor;
          Printf.sprintf "%.4f" raw;
          Printf.sprintf "%.4f" estimate;
          Printf.sprintf "%.2f%%" (100.0 *. Evaluate.time_error ~estimated:estimate ~original);
          Printf.sprintf "%.1fx" (original /. raw);
        ])
      [ 1.0; 2.0; 5.0; 10.0; 20.0; 50.0 ]
  in
  Siesta_util.Pretty_table.print
    ~header:[ "factor"; "proxy(s)"; "estimate(s)"; "error"; "speedup" ]
    ~rows
