(* Why lossless matters: Siesta vs the three baselines on one workload.

     dune exec examples/baseline_comparison.exe

   Traces SP@16 once, builds all four proxies (Siesta, Siesta-scaled x10,
   ScalaBench-style, Pilgrim-style), and scores them on the generation
   platform and after porting to the Xeon Phi — the condensed story of the
   paper's Figs. 6 and 9. *)

module Pipeline = Siesta.Pipeline
module Evaluate = Siesta.Evaluate
module Engine = Siesta_mpi.Engine
module Recorder = Siesta_trace.Recorder
module Scalabench = Siesta_baselines.Scalabench
module Pilgrim = Siesta_baselines.Pilgrim
module Spec = Siesta_platform.Spec

let nranks = 16

let () =
  let spec = Pipeline.spec ~workload:"SP" ~nranks () in
  let impl = spec.Pipeline.impl in
  let traced = Pipeline.trace spec in
  let sy = Pipeline.synthesize traced in
  let sy10 = Pipeline.synthesize ~factor:10.0 traced in
  let streams = Array.init nranks (Recorder.events traced.Pipeline.recorder) in
  let sb =
    Scalabench.synthesize ~platform:Spec.platform_a ~workload:"SP" ~nranks ~streams
      ~compute_table:(Recorder.compute_table traced.Pipeline.recorder)
  in
  let measure platform =
    let original = (Pipeline.run_original spec ~platform ~impl).Engine.elapsed in
    let siesta = (Pipeline.run_proxy sy ~platform ~impl).Engine.elapsed in
    let scaled = 10.0 *. (Pipeline.run_proxy sy10 ~platform ~impl).Engine.elapsed in
    let scalabench = (Engine.run ~platform ~impl ~nranks (Scalabench.program sb)).Engine.elapsed in
    let pilgrim =
      let merged = sy.Pipeline.sy_proxy.Siesta_synth.Proxy_ir.merged in
      (Engine.run ~platform ~impl ~nranks (Pilgrim.program merged)).Engine.elapsed
    in
    (original, [ ("Siesta", siesta); ("Siesta-scaled", scaled); ("ScalaBench", scalabench);
                 ("Pilgrim", pilgrim) ])
  in
  List.iter
    (fun platform ->
      let original, rows = measure platform in
      Printf.printf "\nplatform %s: original %.4f s\n" platform.Spec.name original;
      Siesta_util.Pretty_table.print ~header:[ "proxy"; "estimate(s)"; "time error" ]
        ~rows:
          (List.map
             (fun (name, t) ->
               [
                 name;
                 Printf.sprintf "%.4f" t;
                 Printf.sprintf "%.2f%%" (100.0 *. Evaluate.time_error ~estimated:t ~original);
               ])
             rows))
    [ Spec.platform_a; Spec.platform_b ];
  print_endline
    "\nOn A every proxy except Pilgrim is close; on B only Siesta follows the platform\n\
     (ScalaBench's recorded sleeps are frozen at their platform-A durations)."
