(* Figure 8: portability between platforms A and C.  MG, IS and SP at 16
   processes (the C server has 28 cores): proxies generated on one
   platform, executed on the other, against the original program re-run
   there.  Siesta's synthesized computation re-prices under the new CPU
   model; ScalaBench's recorded sleeps do not. *)

open Exp_common
module Scalabench = Siesta_baselines.Scalabench

let programs = [ "MG"; "IS"; "SP" ]
let nranks = 16

let direction ~from_p ~to_p label rows siesta_errs sb_errs =
  List.iter
    (fun name ->
      let s = Pipeline.spec ~platform:from_p ~workload:name ~nranks () in
      let impl = s.Pipeline.impl in
      let traced = Pipeline.trace s in
      let sy = Pipeline.synthesize traced in
      let recorder = traced.Pipeline.recorder in
      let streams = Array.init nranks (fun r -> Recorder.events recorder r) in
      let sb =
        match
          Scalabench.synthesize ~platform:from_p ~workload:name ~nranks ~streams
            ~compute_table:(Recorder.compute_table recorder)
        with
        | sb -> Some sb
        | exception Scalabench.Unsupported _ -> None
      in
      let original = (Pipeline.run_original s ~platform:to_p ~impl).Engine.elapsed in
      let siesta = (Pipeline.run_proxy sy ~platform:to_p ~impl).Engine.elapsed in
      let sb_time =
        Option.map
          (fun sb ->
            (Engine.run ~platform:to_p ~impl ~nranks (Scalabench.program sb)).Engine.elapsed)
          sb
      in
      siesta_errs := time_err ~estimated:siesta ~original :: !siesta_errs;
      Option.iter (fun t -> sb_errs := time_err ~estimated:t ~original :: !sb_errs) sb_time;
      rows :=
        [
          name;
          label;
          secs original;
          secs siesta;
          (match sb_time with Some t -> secs t | None -> "crash");
        ]
        :: !rows)
    programs

let run () =
  heading "Figure 8: portability between platforms A and C (16 processes)";
  let rows = ref [] and se = ref [] and be = ref [] in
  direction ~from_p:Spec.platform_a ~to_p:Spec.platform_c "A to C" rows se be;
  direction ~from_p:Spec.platform_c ~to_p:Spec.platform_a "C to A" rows se be;
  table
    ~header:[ "Program"; "Direction"; "Original(s)"; "Siesta(s)"; "ScalaBench(s)" ]
    ~rows:(List.rev !rows);
  Printf.printf "\nmean time error: Siesta %s | ScalaBench %s\n"
    (pct (Evaluate.mean !se))
    (pct (Evaluate.mean !be))
