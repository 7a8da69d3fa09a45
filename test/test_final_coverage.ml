(* Final coverage pass: implementation-profile behaviour, non-blocking
   collectives through the baselines, report variants, and corner cases
   not reached by the earlier suites. *)

module E = Siesta_mpi.Engine
module Call = Siesta_mpi.Call
module D = Siesta_mpi.Datatype
module Op = Siesta_mpi.Op
module Spec = Siesta_platform.Spec
module Impl = Siesta_platform.Mpi_impl
module Event = Siesta_trace.Event
module Recorder = Siesta_trace.Recorder
module Trace_io = Siesta_trace.Trace_io
module Codec = Siesta_store.Codec
module Rank_list = Siesta_merge.Rank_list
module Scalabench = Siesta_baselines.Scalabench
module G = Siesta_grammar.Grammar
module Q = Siesta_grammar.Sequitur
module K = Siesta_perf.Kernel

let platform = Spec.platform_a

(* ------------------------------------------------------------------ *)
(* MPI implementation profiles *)

let test_impl_eager_thresholds_differ_behaviour () =
  (* a 6000-byte send is eager under mpich (8 KiB threshold) but
     rendezvous under openmpi (4 KiB): under openmpi the sender must block
     on the late receiver, under mpich it must not *)
  let sender_done impl =
    let t = ref 0.0 in
    ignore
      (E.run ~platform ~impl ~nranks:2 (fun ctx ->
           if E.rank ctx = 0 then begin
             E.send ctx ~dest:1 ~tag:0 ~dt:D.Byte ~count:6000;
             t := E.wtime ctx
           end
           else begin
             E.sleep ctx 0.05;
             E.recv ctx ~src:0 ~tag:0 ~dt:D.Byte ~count:6000
           end));
    !t
  in
  Alcotest.(check bool) "openmpi blocks (rendezvous)" true (sender_done Impl.openmpi > 0.05);
  Alcotest.(check bool) "mpich does not (eager)" true (sender_done Impl.mpich < 0.01)

let test_impl_collective_factors_visible () =
  (* mpich's alltoall factor (1.15) vs mvapich's (0.95) shows directly *)
  let time impl =
    (E.run ~platform ~impl ~nranks:16 (fun ctx ->
         E.alltoall ctx (E.comm_world ctx) ~dt:D.Byte ~count:2000))
      .E.elapsed
  in
  Alcotest.(check bool) "mpich alltoall slower than mvapich" true
    (time Impl.mpich > time Impl.mvapich)

(* ------------------------------------------------------------------ *)
(* Non-blocking collectives through the stack *)

let nbc_program ctx =
  for _ = 1 to 3 do
    let r =
      E.iallreduce ctx (E.comm_world ctx) ~dt:D.Double ~count:128 ~op:Op.Sum
    in
    E.compute ctx (K.compute_bound ~label:"o" ~flops:5e5 ~div_frac:0.0);
    E.wait ctx r
  done

let traced_nbc () =
  let recorder = Recorder.create ~nranks:4 () in
  ignore
    (E.run ~platform ~impl:Impl.openmpi ~nranks:4 ~hook:(Recorder.hook recorder) nbc_program);
  recorder

let test_nbc_recorded_with_pooled_requests () =
  let recorder = traced_nbc () in
  let evs = Recorder.events recorder 0 in
  let iallreduces =
    Array.to_list evs
    |> List.filter_map (function Event.Iallreduce { req; _ } -> Some req | _ -> None)
  in
  Alcotest.(check (list int)) "pool slot 0 reused each iteration" [ 0; 0; 0 ] iallreduces

let test_nbc_event_roundtrip_through_codec () =
  let recorder = traced_nbc () in
  let t = Trace_io.of_recorder recorder in
  let meta =
    {
      Codec.tm_original_elapsed = 0.0;
      tm_instrumented_elapsed = 0.0;
      tm_original_calls = 0;
      tm_instrumented_calls = 0;
      tm_total_events = Recorder.total_events recorder;
      tm_raw_bytes = Recorder.raw_trace_bytes recorder;
    }
  in
  let _, pk = Codec.decode_trace (Codec.encode_trace ~meta (Trace_io.pack recorder)) in
  Alcotest.(check bool) "streams equal" true
    (t.Trace_io.streams = (Trace_io.of_packed pk).Trace_io.streams)

let test_scalabench_converts_nbc_to_blocking () =
  let recorder = traced_nbc () in
  let sb =
    Scalabench.synthesize ~platform ~workload:"nbc" ~nranks:4
      ~streams:(Array.init 4 (Recorder.events recorder))
      ~compute_table:(Recorder.compute_table recorder)
  in
  (* replay must run, and its elapsed time exceeds the original's: the
     conversion to blocking allreduce loses the overlap *)
  let original = (E.run ~platform ~impl:Impl.openmpi ~nranks:4 nbc_program).E.elapsed in
  let replayed =
    (E.run ~platform ~impl:Impl.openmpi ~nranks:4 (Scalabench.program sb)).E.elapsed
  in
  Alcotest.(check bool) "overlap lost in the baseline" true (replayed >= original)

(* ------------------------------------------------------------------ *)
(* Misc corners *)

let test_rank_list_serialized_bytes () =
  let cheap = Rank_list.of_list (List.init 64 Fun.id) in
  let strided = Rank_list.of_list (List.init 16 (fun i -> 2 * i)) in
  let general = Rank_list.of_list [ 0; 1; 5; 17; 40 ] in
  Alcotest.(check int) "range is 8 bytes" 8 (Rank_list.serialized_bytes cheap);
  Alcotest.(check int) "stride is 8 bytes" 8 (Rank_list.serialized_bytes strided);
  Alcotest.(check int) "general pays per member" 20 (Rank_list.serialized_bytes general)

let test_report_with_scaling_factor () =
  let spec = Siesta.Pipeline.spec ~iters:3 ~workload:"IS" ~nranks:8 () in
  let traced = Siesta.Pipeline.trace spec in
  let sy = Siesta.Pipeline.synthesize ~factor:5.0 traced in
  let timeline, _ = Siesta.Pipeline.record_timeline spec in
  let report = Siesta.Report.generate ~timeline sy in
  let contains needle =
    let n = String.length report and m = String.length needle in
    let rec go i = i + m <= n && (String.sub report i m = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "factor shown" true (contains "scaling factor: 5");
  Alcotest.(check bool) "estimate shown" true (contains "x5 =")

let test_engine_result_clean_for_workloads () =
  (* no workload leaves stranded messages *)
  List.iter
    (fun name ->
      let w = Siesta_workloads.Registry.find name in
      let res =
        E.run ~platform ~impl:Impl.openmpi ~nranks:16
          (w.Siesta_workloads.Registry.program ~nranks:16 ~iters:(Some 2))
      in
      Alcotest.(check int) (name ^ " strands nothing") 0 res.E.unreceived_messages)
    [ "BT"; "CG"; "MG"; "Sweep3d"; "Sod"; "BT-IO" ]

let test_mixed_blocking_and_nonblocking_barrier_generations () =
  (* the per-comm sequence numbers keep two barrier generations apart even
     when ranks interleave blocking and non-blocking joins *)
  ignore
    (E.run ~platform ~impl:Impl.openmpi ~nranks:2 (fun ctx ->
         let w = E.comm_world ctx in
         if E.rank ctx = 0 then begin
           let r = E.ibarrier ctx w in
           E.barrier ctx w;
           E.wait ctx r
         end
         else begin
           let r1 = E.ibarrier ctx w in
           let r2 = E.ibarrier ctx w in
           E.waitall ctx [ r1; r2 ]
         end))

let suite =
  [
    ("impl profiles: eager thresholds behave", `Quick, test_impl_eager_thresholds_differ_behaviour);
    ("impl profiles: collective factors visible", `Quick, test_impl_collective_factors_visible);
    ("NBC: pooled request numbering", `Quick, test_nbc_recorded_with_pooled_requests);
    ("NBC: trace_io roundtrip", `Quick, test_nbc_event_roundtrip_through_codec);
    ("NBC: baseline loses overlap", `Quick, test_scalabench_converts_nbc_to_blocking);
    ("rank-list export sizes", `Quick, test_rank_list_serialized_bytes);
    ("report with a scaling factor", `Quick, test_report_with_scaling_factor);
    ("workloads strand no messages", `Quick, test_engine_result_clean_for_workloads);
    ("mixed barrier generations ordered", `Quick, test_mixed_blocking_and_nonblocking_barrier_generations);
  ]
