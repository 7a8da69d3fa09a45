(* Figure 9: portability from platform A to platform B (Xeon Phi).  BT and
   CG at 16-64 processes; proxies generated on A, run on both platforms.
   The Phi's low frequency and narrow cores slow the original programs by
   2-3x; Siesta's synthesized computation follows, ScalaBench's fixed
   sleeps leave its time frozen at the platform-A value (the paper reports
   70.44% vs 13.68%). *)

open Exp_common
module Scalabench = Siesta_baselines.Scalabench

let cases = [ ("BT", [ 16; 36; 64 ]); ("CG", [ 16; 32; 64 ]) ]

let run () =
  heading "Figure 9: portability from platform A to platform B (BT, CG at 16-64 processes)";
  let rows = ref [] in
  let errs_a = ref [] and errs_b = ref [] and sb_errs_a = ref [] and sb_errs_b = ref [] in
  List.iter
    (fun (name, procs) ->
      List.iter
        (fun nranks ->
          let s = Pipeline.spec ~workload:name ~nranks () in
          let impl = s.Pipeline.impl in
          let traced = Pipeline.trace s in
          let sy = Pipeline.synthesize traced in
          let recorder = traced.Pipeline.recorder in
          let streams = Array.init nranks (fun r -> Recorder.events recorder r) in
          let sb =
            match
              Scalabench.synthesize ~platform:Spec.platform_a ~workload:name ~nranks ~streams
                ~compute_table:(Recorder.compute_table recorder)
            with
            | sb -> Some sb
            | exception Scalabench.Unsupported _ -> None
          in
          let eval platform errs sb_errs =
            let original = (Pipeline.run_original s ~platform ~impl).Engine.elapsed in
            let siesta = (Pipeline.run_proxy sy ~platform ~impl).Engine.elapsed in
            let sb_time =
              Option.map
                (fun sb ->
                  (Engine.run ~platform ~impl ~nranks (Scalabench.program sb)).Engine.elapsed)
                sb
            in
            errs := time_err ~estimated:siesta ~original :: !errs;
            Option.iter (fun t -> sb_errs := time_err ~estimated:t ~original :: !sb_errs) sb_time;
            (original, siesta, sb_time)
          in
          let oa, sa, ba = eval Spec.platform_a errs_a sb_errs_a in
          let ob, sbt, bb = eval Spec.platform_b errs_b sb_errs_b in
          let str = function Some t -> secs t | None -> "crash" in
          rows :=
            [
              name;
              string_of_int nranks;
              secs oa;
              secs sa;
              str ba;
              secs ob;
              secs sbt;
              str bb;
            ]
            :: !rows)
        procs)
    cases;
  table
    ~header:
      [ "Program"; "P"; "A orig"; "A Siesta"; "A ScalaB"; "B orig"; "B Siesta"; "B ScalaB" ]
    ~rows:(List.rev !rows);
  Printf.printf
    "\nmean time error on A: Siesta %s | ScalaBench %s\nmean time error on B: Siesta %s | ScalaBench %s\n"
    (pct (Evaluate.mean !errs_a))
    (pct (Evaluate.mean !sb_errs_a))
    (pct (Evaluate.mean !errs_b))
    (pct (Evaluate.mean !sb_errs_b))
