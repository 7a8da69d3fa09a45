(* Integration tests: the end-to-end pipeline on real workloads. *)

module Pipeline = Siesta.Pipeline
module Evaluate = Siesta.Evaluate
module E = Siesta_mpi.Engine
module Recorder = Siesta_trace.Recorder
module Event = Siesta_trace.Event
module Spec = Siesta_platform.Spec
module Impl = Siesta_platform.Mpi_impl

let small_spec ?(workload = "CG") ?(nranks = 16) () =
  Pipeline.spec ~iters:3 ~workload ~nranks ()

let test_spec_constructor_validates () =
  Alcotest.check_raises "bad procs for BT"
    (Invalid_argument "BT cannot run on 60 processes") (fun () ->
      ignore (Pipeline.spec ~workload:"BT" ~nranks:60 ()));
  Alcotest.check_raises "unknown workload" Not_found (fun () ->
      ignore (Pipeline.spec ~workload:"LULESH" ~nranks:16 ()))

let test_trace_produces_overhead () =
  let traced = Pipeline.trace (small_spec ()) in
  Alcotest.(check bool) "overhead nonnegative" true (traced.Pipeline.overhead >= 0.0);
  Alcotest.(check bool) "overhead small" true (traced.Pipeline.overhead < 0.2);
  Alcotest.(check bool) "instrumented at least as slow" true
    (traced.Pipeline.instrumented.E.elapsed >= traced.Pipeline.original.E.elapsed)

let full_synthesis ?workload ?nranks () =
  Pipeline.synthesize (Pipeline.trace (small_spec ?workload ?nranks ()))

let test_synthesize_validates () =
  let sy = full_synthesis () in
  Siesta_merge.Merged.validate sy.Pipeline.sy_proxy.Siesta_synth.Proxy_ir.merged;
  Alcotest.(check (float 1e-9)) "factor 1" 1.0 sy.Pipeline.sy_factor

let test_table3_row_sane () =
  let traced = Pipeline.trace (small_spec ()) in
  let row = Evaluate.table3_row traced (Pipeline.synthesize traced) in
  Alcotest.(check string) "program" "CG" row.Evaluate.program;
  Alcotest.(check int) "processes" 16 row.Evaluate.processes;
  Alcotest.(check bool) "compression" true (row.Evaluate.size_c_bytes < row.Evaluate.trace_bytes);
  Alcotest.(check bool) "error bounded" true (row.Evaluate.error < 0.10)

let test_proxy_time_error_small_each_workload () =
  List.iter
    (fun workload ->
      let spec = small_spec ~workload () in
      let traced = Pipeline.trace spec in
      let sy = Pipeline.synthesize traced in
      let proxy =
        Pipeline.run_proxy sy ~platform:spec.Pipeline.platform ~impl:spec.Pipeline.impl
      in
      let err =
        Evaluate.time_error ~estimated:proxy.E.elapsed
          ~original:traced.Pipeline.original.E.elapsed
      in
      if err > 0.15 then Alcotest.failf "%s time error %.2f%%" workload (100.0 *. err))
    [ "CG"; "IS"; "MG"; "Sweep3d"; "Sod" ]

let test_proxy_comm_lossless_each_workload () =
  (* strongest end-to-end property: for every workload, the proxy's
     communication event stream equals the original's, rank by rank *)
  List.iter
    (fun workload ->
      let spec = small_spec ~workload () in
      let traced = Pipeline.trace spec in
      let sy = Pipeline.synthesize traced in
      let recorder2 = Recorder.create ~nranks:16 () in
      ignore
        (E.run ~platform:spec.Pipeline.platform ~impl:spec.Pipeline.impl ~nranks:16
           ~hook:(Recorder.hook recorder2)
           (Siesta_synth.Proxy_ir.program sy.Pipeline.sy_proxy));
      let comm_keys r rank =
        Recorder.events r rank |> Array.to_list
        |> List.filter (fun e -> not (Event.is_compute e))
        |> List.map Event.to_key
      in
      for rank = 0 to 15 do
        if comm_keys traced.Pipeline.recorder rank <> comm_keys recorder2 rank then
          Alcotest.failf "%s rank %d communication differs" workload rank
      done)
    [ "CG"; "IS"; "MG"; "BT"; "Sedov" ]

let test_counter_error_small () =
  let spec = small_spec ~workload:"MG" () in
  let traced = Pipeline.trace spec in
  let sy = Pipeline.synthesize traced in
  let proxy = Pipeline.run_proxy sy ~platform:spec.Pipeline.platform ~impl:spec.Pipeline.impl in
  let err = Evaluate.counter_error ~original:traced.Pipeline.original ~proxy in
  Alcotest.(check bool) (Printf.sprintf "counter error %.2f%%" (100.0 *. err)) true (err < 0.05)

let test_scaled_pipeline () =
  let spec = small_spec ~workload:"BT" () in
  let traced = Pipeline.trace spec in
  let sy = Pipeline.synthesize ~factor:10.0 traced in
  Alcotest.(check (float 1e-9)) "factor recorded" 10.0 sy.Pipeline.sy_factor;
  let proxy = Pipeline.run_proxy sy ~platform:spec.Pipeline.platform ~impl:spec.Pipeline.impl in
  let est = 10.0 *. proxy.E.elapsed in
  let err = Evaluate.time_error ~estimated:est ~original:traced.Pipeline.original.E.elapsed in
  Alcotest.(check bool) "scaled estimate accurate" true (err < 0.2);
  Alcotest.(check bool) "raw proxy fast" true
    (proxy.E.elapsed < 0.3 *. traced.Pipeline.original.E.elapsed)

let test_cross_platform_portability () =
  let spec = small_spec ~workload:"CG" () in
  let traced = Pipeline.trace spec in
  let sy = Pipeline.synthesize traced in
  List.iter
    (fun platform ->
      let original = (Pipeline.run_original spec ~platform ~impl:Impl.openmpi).E.elapsed in
      let proxy = (Pipeline.run_proxy sy ~platform ~impl:Impl.openmpi).E.elapsed in
      let err = Evaluate.time_error ~estimated:proxy ~original in
      if err > 0.25 then
        Alcotest.failf "platform %s error %.2f%%" platform.Spec.name (100.0 *. err))
    Spec.all

let test_cross_impl_portability () =
  let spec = small_spec ~workload:"IS" () in
  let traced = Pipeline.trace spec in
  let sy = Pipeline.synthesize traced in
  List.iter
    (fun impl ->
      let original =
        (Pipeline.run_original spec ~platform:Spec.platform_a ~impl).E.elapsed
      in
      let proxy = (Pipeline.run_proxy sy ~platform:Spec.platform_a ~impl).E.elapsed in
      let err = Evaluate.time_error ~estimated:proxy ~original in
      if err > 0.15 then
        Alcotest.failf "impl %s error %.2f%%" impl.Siesta_platform.Mpi_impl.name (100.0 *. err))
    Impl.all

let test_btio_pipeline_end_to_end () =
  (* the I/O extension: BT-IO traces, synthesizes, and replays losslessly *)
  let spec = Pipeline.spec ~iters:5 ~workload:"BT-IO" ~nranks:16 () in
  let traced = Pipeline.trace spec in
  let sy = Pipeline.synthesize traced in
  let proxy = Pipeline.run_proxy sy ~platform:spec.Pipeline.platform ~impl:spec.Pipeline.impl in
  let terr =
    Evaluate.time_error ~estimated:proxy.E.elapsed
      ~original:traced.Pipeline.original.E.elapsed
  in
  Alcotest.(check bool) (Printf.sprintf "time error %.2f%%" (100.0 *. terr)) true (terr < 0.10);
  (* lossless including the File_* events *)
  let recorder2 = Recorder.create ~nranks:16 () in
  ignore
    (E.run ~platform:spec.Pipeline.platform ~impl:spec.Pipeline.impl ~nranks:16
       ~hook:(Recorder.hook recorder2)
       (Siesta_synth.Proxy_ir.program sy.Pipeline.sy_proxy));
  let comm_keys r rank =
    Recorder.events r rank |> Array.to_list
    |> List.filter (fun e -> not (Event.is_compute e))
    |> List.map Event.to_key
  in
  for rank = 0 to 15 do
    Alcotest.(check (list string))
      (Printf.sprintf "rank %d incl. I/O" rank)
      (comm_keys traced.Pipeline.recorder rank)
      (comm_keys recorder2 rank)
  done;
  (* the generated C contains the MPI-IO calls *)
  let c = Siesta_synth.Codegen_c.generate sy.Pipeline.sy_proxy in
  let contains sub =
    let n = String.length c and m = String.length sub in
    let rec go i = i + m <= n && (String.sub c i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun m -> Alcotest.(check bool) m true (contains m))
    [ "MPI_File_open"; "MPI_File_write_all"; "MPI_File_read_all"; "MPI_File_close" ]

let test_nbc_pipeline_end_to_end () =
  (* non-blocking collectives flow through trace -> merge -> proxy -> C *)
  let nranks = 8 in
  let program ctx =
    for _ = 1 to 4 do
      let r = E.iallreduce ctx (E.comm_world ctx) ~dt:Siesta_mpi.Datatype.Double ~count:256
          ~op:Siesta_mpi.Op.Sum in
      E.compute ctx (Siesta_perf.Kernel.compute_bound ~label:"overlap" ~flops:1e6 ~div_frac:0.0);
      E.wait ctx r;
      let b = E.ibarrier ctx (E.comm_world ctx) in
      E.wait ctx b
    done
  in
  let platform = Spec.platform_a and impl = Impl.openmpi in
  let original = E.run ~platform ~impl ~nranks program in
  let recorder = Recorder.create ~nranks () in
  ignore (E.run ~platform ~impl ~nranks ~hook:(Recorder.hook recorder) program);
  let merged = Siesta_merge.Pipeline.merge_packed (Siesta_trace.Trace_io.pack recorder) in
  let proxy =
    Siesta_synth.Proxy_ir.synthesize ~platform ~impl ~merged
      ~compute_table:(Recorder.compute_table recorder) ()
  in
  let replayed = E.run ~platform ~impl ~nranks (Siesta_synth.Proxy_ir.program proxy) in
  let err = Evaluate.time_error ~estimated:replayed.E.elapsed ~original:original.E.elapsed in
  Alcotest.(check bool) (Printf.sprintf "time error %.2f%%" (100.0 *. err)) true (err < 0.12);
  (* losslessness incl. the NBC events *)
  let recorder2 = Recorder.create ~nranks () in
  ignore
    (E.run ~platform ~impl ~nranks ~hook:(Recorder.hook recorder2)
       (Siesta_synth.Proxy_ir.program proxy));
  let comm_keys r rank =
    Recorder.events r rank |> Array.to_list
    |> List.filter (fun e -> not (Event.is_compute e))
    |> List.map Event.to_key
  in
  for rank = 0 to nranks - 1 do
    Alcotest.(check (list string)) (Printf.sprintf "rank %d" rank)
      (comm_keys recorder rank) (comm_keys recorder2 rank)
  done;
  let c = Siesta_synth.Codegen_c.generate proxy in
  let contains sub =
    let n = String.length c and m = String.length sub in
    let rec go i = i + m <= n && (String.sub c i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "MPI_Iallreduce emitted" true (contains "MPI_Iallreduce");
  Alcotest.(check bool) "MPI_Ibarrier emitted" true (contains "MPI_Ibarrier")

let test_per_metric_errors () =
  let spec = small_spec () in
  let traced = Pipeline.trace spec in
  let sy = Pipeline.synthesize traced in
  let proxy = Pipeline.run_proxy sy ~platform:spec.Pipeline.platform ~impl:spec.Pipeline.impl in
  let breakdown =
    Evaluate.per_metric_errors ~original:traced.Pipeline.original ~proxy
  in
  Alcotest.(check int) "six metrics" 6 (List.length breakdown);
  let mean =
    List.fold_left (fun acc (_, e) -> acc +. e) 0.0 breakdown /. 6.0
  in
  let overall = Evaluate.counter_error ~original:traced.Pipeline.original ~proxy in
  (* metric-major vs rank-major averaging agree when every rank reports
     every metric, which CG does *)
  Alcotest.(check (float 1e-9)) "averages agree" overall mean

let test_report_generation () =
  let sy = full_synthesis () in
  let timeline, _ = Pipeline.record_timeline sy.Pipeline.sy_trace.Pipeline.ts_spec in
  let report = Siesta.Report.generate ~timeline sy in
  List.iter
    (fun needle ->
      let n = String.length report and m = String.length needle in
      let rec go i = i + m <= n && (String.sub report i m = needle || go (i + 1)) in
      if not (go 0) then Alcotest.failf "report lacks %S" needle)
    [
      "# Siesta proxy report: CG @ 16 ranks";
      "## Trace";
      "## Compression";
      "## Computation proxies";
      "## Validation";
      "six-counter error";
    ]

let test_evaluate_helpers () =
  Alcotest.(check (float 1e-9)) "time error" 0.5 (Evaluate.time_error ~estimated:1.5 ~original:1.0);
  Alcotest.(check (float 1e-9)) "zero original" 0.0 (Evaluate.time_error ~estimated:1.0 ~original:0.0);
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Evaluate.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (Evaluate.mean [])

let suite =
  [
    ("spec constructor validates", `Quick, test_spec_constructor_validates);
    ("tracing overhead measured", `Quick, test_trace_produces_overhead);
    ("synthesized artifact validates", `Quick, test_synthesize_validates);
    ("table 3 row is sane", `Quick, test_table3_row_sane);
    ("proxy time error small (5 workloads)", `Slow, test_proxy_time_error_small_each_workload);
    ("proxy communication lossless (5 workloads)", `Slow, test_proxy_comm_lossless_each_workload);
    ("proxy counter error small", `Quick, test_counter_error_small);
    ("scaled pipeline", `Quick, test_scaled_pipeline);
    ("cross-platform portability", `Quick, test_cross_platform_portability);
    ("cross-implementation portability", `Quick, test_cross_impl_portability);
    ("BT-IO end-to-end (I/O extension)", `Quick, test_btio_pipeline_end_to_end);
    ("non-blocking collectives end-to-end", `Quick, test_nbc_pipeline_end_to_end);
    ("per-metric error breakdown", `Quick, test_per_metric_errors);
    ("run report generation", `Quick, test_report_generation);
    ("evaluate helpers", `Quick, test_evaluate_helpers);
  ]
