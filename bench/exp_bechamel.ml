(* Bechamel micro-benchmarks: one Test.make per table/figure driver,
   timing the core algorithm that experiment exercises:

   - Table 3  -> space-optimized Sequitur construction on an MG rank trace;
   - Fig. 4/5 -> one constrained QP proxy search (NNLS + refinement);
   - Fig. 6   -> full proxy replay of CG@16 in the simulated runtime;
   - Fig. 7   -> ScalaBench-style stream transformation;
   - Fig. 8/9 -> the LCS main-rule merge of two rank variants;
   - ablations-> the engine itself: one traced CG@16 execution;

   plus hot-path micro-comparisons for the merge:

   - Sequitur fed one symbol at a time, as the merge feeds each rank
     whose shape it has not seen;
   - generic DP LCS length vs the bit-parallel Myers length;
   - Hirschberg linear-memory LCS backtracking on ~1500-element inputs. *)

open Bechamel
open Toolkit
module Pipeline = Siesta.Pipeline
module Engine = Siesta_mpi.Engine
module Recorder = Siesta_trace.Recorder
module Sequitur = Siesta_grammar.Sequitur
module Proxy_search = Siesta_synth.Proxy_search
module Counters = Siesta_perf.Counters

let prepare () =
  let s = Pipeline.spec ~workload:"CG" ~nranks:16 () in
  let traced = Pipeline.trace s in
  let sy = Pipeline.synthesize traced in
  let seq =
    let streams = Array.init 16 (Recorder.events traced.Pipeline.recorder) in
    let table = Siesta_merge.Terminal_table.build streams in
    (Siesta_merge.Terminal_table.sequences table).(0)
  in
  (s, traced, sy, seq)

let hot_path_tests seq =
  (* synthetic int sequences with enough shared structure that the LCS is
     non-trivial: two noisy interleavings of a common ~1500-element core *)
  let rng = Siesta_util.Rng.create 2024 in
  let core = Array.init 1500 (fun _ -> Siesta_util.Rng.int rng 40) in
  let noisy () =
    Array.concat
      (List.concat_map
         (fun i ->
           if Siesta_util.Rng.int rng 10 = 0 then
             [ [| 1000 + Siesta_util.Rng.int rng 50 |]; [| core.(i) |] ]
           else [ [| core.(i) |] ])
         (List.init (Array.length core) Fun.id))
  in
  let a = noisy () and b = noisy () in
  [
    Test.make ~name:"hot/sequitur" (Staged.stage (fun () ->
        let b = Sequitur.create () in
        Array.iter (Sequitur.push b) seq;
        ignore (Sequitur.finalize b)));
    Test.make ~name:"hot/lcs-length-generic-dp" (Staged.stage (fun () ->
        ignore (Siesta_merge.Lcs.length ~eq:Int.equal a b)));
    Test.make ~name:"hot/lcs-length-bitparallel" (Staged.stage (fun () ->
        ignore (Siesta_merge.Lcs.length_int a b)));
    Test.make ~name:"hot/lcs-pairs-hirschberg" (Staged.stage (fun () ->
        ignore (Siesta_merge.Lcs.pairs_int a b)));
  ]

let tests () =
  let s, traced, sy, seq = prepare () in
  let target =
    Counters.of_work Siesta_platform.Spec.platform_a.Siesta_platform.Spec.cpu
      (Siesta_perf.Kernel.to_work
         (Siesta_perf.Kernel.streaming ~label:"bench" ~flops:2e7 ~bytes:8e7))
  in
  let streams = Array.init 16 (Recorder.events traced.Pipeline.recorder) in
  [
    Test.make ~name:"table3/sequitur-rank-trace" (Staged.stage (fun () ->
        ignore (Sequitur.of_seq seq)));
    Test.make ~name:"fig4-5/proxy-search-qp" (Staged.stage (fun () ->
        ignore (Proxy_search.search ~platform:Siesta_platform.Spec.platform_a target)));
    Test.make ~name:"fig6/proxy-replay-cg16" (Staged.stage (fun () ->
        ignore
          (Pipeline.run_proxy sy ~platform:s.Pipeline.platform ~impl:s.Pipeline.impl)));
    Test.make ~name:"fig7/scalabench-transform" (Staged.stage (fun () ->
        ignore
          (Siesta_baselines.Scalabench.synthesize ~platform:s.Pipeline.platform
             ~workload:"CG" ~nranks:16 ~streams
             ~compute_table:(Recorder.compute_table traced.Pipeline.recorder))));
    Test.make ~name:"fig8-9/merge-streams" (Staged.stage (fun () ->
        ignore (Siesta_merge.Pipeline.merge_streams ~nranks:16 streams)));
    Test.make ~name:"ablate/traced-engine-run" (Staged.stage (fun () ->
        let r = Recorder.create ~nranks:16 () in
        ignore
          (Engine.run ~platform:s.Pipeline.platform ~impl:s.Pipeline.impl ~nranks:16
             ~hook:(Recorder.hook r)
             (s.Pipeline.workload.Siesta_workloads.Registry.program ~nranks:16 ~iters:None))));
  ]
  @ hot_path_tests seq

let run () =
  Exp_common.heading "Bechamel micro-benchmarks (core algorithms per experiment)";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 1.0) ~kde:None () in
  let test = Test.make_grouped ~name:"siesta" ~fmt:"%s %s" (tests ()) in
  let raw = Benchmark.all cfg instances test in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with Some (v :: _) -> v | _ -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
    |> List.map (fun (name, ns) ->
           [
             name;
             (if Float.is_nan ns then "n/a"
              else if ns > 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
              else Printf.sprintf "%.1f us" (ns /. 1e3));
           ])
  in
  Exp_common.table ~header:[ "benchmark"; "time/run" ] ~rows
