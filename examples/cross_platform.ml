(* Cross-platform proxy portability (the scenario of the paper's Figs. 8-9).

     dune exec examples/cross_platform.exe

   A performance engineer wants to predict how MG behaves on a machine
   they do not have continuous access to.  They trace it once on their
   production cluster (platform A), generate a proxy, and run the proxy
   everywhere: because Siesta synthesizes real computation (not recorded
   sleeps), the proxy's time moves with the target machine. *)

module Pipeline = Siesta.Pipeline
module Evaluate = Siesta.Evaluate
module Engine = Siesta_mpi.Engine
module Spec = Siesta_platform.Spec
module Mpi_impl = Siesta_platform.Mpi_impl

let () =
  let spec = Pipeline.spec ~workload:"MG" ~nranks:16 () in
  Printf.printf "tracing MG@16 on platform A (openmpi)...\n";
  let traced = Pipeline.trace spec in
  let sy = Pipeline.synthesize traced in
  Printf.printf "proxy generated (size_C = %s)\n\n"
    (Siesta_util.Bytes_fmt.to_string (Siesta_synth.Proxy_ir.size_c_bytes sy.Pipeline.sy_proxy));
  let rows =
    List.concat_map
      (fun platform ->
        List.map
          (fun impl ->
            let original = (Pipeline.run_original spec ~platform ~impl).Engine.elapsed in
            let proxy = (Pipeline.run_proxy sy ~platform ~impl).Engine.elapsed in
            [
              platform.Spec.name;
              impl.Mpi_impl.name;
              Printf.sprintf "%.4f" original;
              Printf.sprintf "%.4f" proxy;
              Printf.sprintf "%.2f%%" (100.0 *. Evaluate.time_error ~estimated:proxy ~original);
            ])
          [ Mpi_impl.openmpi; Mpi_impl.mpich; Mpi_impl.mvapich ])
      [ Spec.platform_a; Spec.platform_b; Spec.platform_c ]
  in
  Siesta_util.Pretty_table.print
    ~header:[ "platform"; "impl"; "original(s)"; "proxy(s)"; "error" ]
    ~rows;
  print_endline "\nNote how the proxy tracks the 2-4x slowdown on the Xeon Phi (platform B)."
