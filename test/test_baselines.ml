(* Tests for the comparator reimplementations: MINIME, Pilgrim,
   ScalaBench. *)

module Minime = Siesta_baselines.Minime
module Pilgrim = Siesta_baselines.Pilgrim
module Scalabench = Siesta_baselines.Scalabench
module Proxy_search = Siesta_synth.Proxy_search
module Counters = Siesta_perf.Counters
module K = Siesta_perf.Kernel
module E = Siesta_mpi.Engine
module D = Siesta_mpi.Datatype
module Event = Siesta_trace.Event
module Recorder = Siesta_trace.Recorder
module Spec = Siesta_platform.Spec
module Impl = Siesta_platform.Mpi_impl

let platform = Spec.platform_a
let impl = Impl.openmpi

let target_of kernel = Counters.of_work platform.Spec.cpu (K.to_work kernel)

(* ------------------------------------------------------------------ *)
(* MINIME *)

let test_minime_converges () =
  let target = target_of (K.streaming ~label:"k" ~flops:1e6 ~bytes:8e6) in
  let sol = Minime.search ~platform ~target in
  Alcotest.(check bool) "under 25% on its own metrics" true (sol.Minime.ratio_error < 0.25);
  Array.iter (fun v -> if v < 0.0 then Alcotest.fail "negative repetition") sol.Minime.x

let test_minime_scales_to_instruction_count () =
  let target = target_of (K.compute_bound ~label:"k" ~flops:1e7 ~div_frac:0.02) in
  let sol = Minime.search ~platform ~target in
  let ratio = sol.Minime.achieved.Counters.ins /. target.Counters.ins in
  Alcotest.(check bool) "duration calibrated" true (ratio > 0.5 && ratio < 2.0)

let test_minime_vs_siesta () =
  (* the paper's Fig. 4 claim: the QP over six counters beats greedy
     three-ratio iteration on the three ratios themselves *)
  let kernels =
    [
      K.streaming ~label:"a" ~flops:2e6 ~bytes:1.6e7;
      K.compute_bound ~label:"b" ~flops:1e6 ~div_frac:0.05;
      K.streaming ~label:"c" ~flops:1e7 ~bytes:4e7;
    ]
  in
  let wins =
    List.filter
      (fun k ->
        let target = target_of k in
        let siesta = Proxy_search.search ~platform target in
        let minime = Minime.search ~platform ~target in
        Minime.ratio_error ~actual:siesta.Proxy_search.predicted ~reference:target
        <= minime.Minime.ratio_error +. 0.01)
      kernels
  in
  Alcotest.(check int) "siesta at least ties on every kernel" (List.length kernels)
    (List.length wins)

let test_minime_ratio_error_metric () =
  let c = target_of (K.compute_bound ~label:"k" ~flops:1e5 ~div_frac:0.0) in
  Alcotest.(check (float 1e-9)) "identical = 0" 0.0 (Minime.ratio_error ~actual:c ~reference:c)

(* ------------------------------------------------------------------ *)
(* Shared tracing helper *)

let ring ctx =
  let r = E.rank ctx and n = E.size ctx in
  for _ = 1 to 4 do
    E.compute ctx (K.streaming ~label:"k" ~flops:2e6 ~bytes:1.6e7);
    let rq = E.irecv ctx ~src:((r + n - 1) mod n) ~tag:1 ~dt:D.Double ~count:300 in
    E.send ctx ~dest:((r + 1) mod n) ~tag:1 ~dt:D.Double ~count:300;
    E.wait ctx rq;
    E.allreduce ctx (E.comm_world ctx) ~dt:D.Double ~count:1 ~op:Siesta_mpi.Op.Sum
  done

let traced ?(nranks = 8) program =
  let recorder = Recorder.create ~nranks () in
  let original = E.run ~platform ~impl ~nranks program in
  ignore (E.run ~platform ~impl ~nranks ~hook:(Recorder.hook recorder) program);
  (original, recorder)

(* ------------------------------------------------------------------ *)
(* Pilgrim *)

let test_pilgrim_drops_computation () =
  let original, recorder = traced ring in
  let merged = Siesta_merge.Pipeline.merge_packed (Siesta_trace.Trace_io.pack recorder) in
  let res = E.run ~platform ~impl ~nranks:8 (Pilgrim.program merged) in
  (* all computation gone: the replay must be much faster than the original *)
  Alcotest.(check bool) "no computation time" true (res.E.elapsed < 0.2 *. original.E.elapsed);
  Alcotest.(check (float 0.0)) "no instructions retired" 0.0
    res.E.per_rank_counters.(0).Counters.ins

let test_pilgrim_keeps_communication () =
  let _, recorder = traced ring in
  let merged = Siesta_merge.Pipeline.merge_packed (Siesta_trace.Trace_io.pack recorder) in
  let recorder2 = Recorder.create ~nranks:8 () in
  ignore (E.run ~platform ~impl ~nranks:8 ~hook:(Recorder.hook recorder2) (Pilgrim.program merged));
  let comm_count r =
    Array.length
      (Array.of_list
         (List.filter
            (fun e -> not (Event.is_compute e))
            (Array.to_list (Recorder.events r 0))))
  in
  Alcotest.(check int) "same communication calls" (comm_count recorder) (comm_count recorder2)

(* ------------------------------------------------------------------ *)
(* ScalaBench *)

let streams_of recorder nranks = Array.init nranks (Recorder.events recorder)

let test_scalabench_known_failures () =
  List.iter
    (fun (w, n, expect) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s@%d" w n)
        expect
        (Scalabench.known_failure ~workload:w ~nranks:n))
    [
      ("SP", 256, true);
      ("SP", 529, true);
      ("SP", 64, false);
      ("sod", 64, true);
      ("Sedov", 128, true);
      ("StirTurb", 512, true);
      ("BT", 529, false);
      ("CG", 256, false);
    ]

let test_scalabench_crashes_on_failure_list () =
  let _, recorder = traced ring in
  Alcotest.(check bool) "raises Unsupported" true
    (match
       Scalabench.synthesize ~platform ~workload:"Sod" ~nranks:8
         ~streams:(streams_of recorder 8)
         ~compute_table:(Recorder.compute_table recorder)
     with
    | exception Scalabench.Unsupported _ -> true
    | _ -> false)

let test_scalabench_crashes_on_structural_diversity () =
  (* every rank gets a structurally distinct stream: the RSD merge fails *)
  let nranks = 20 in
  let streams =
    Array.init nranks (fun r ->
        Array.init (3 + r) (fun i ->
            if i mod 2 = 0 then Event.Barrier { comm = 0 }
            else Event.Send { Event.rel_peer = 1; tag = 0; dt = D.Int; count = 1 }))
  in
  let ct = Siesta_trace.Compute_table.create ~threshold:0.05 in
  Alcotest.(check bool) "raises Unsupported" true
    (match
       Scalabench.synthesize ~platform ~workload:"X" ~nranks ~streams ~compute_table:ct
     with
    | exception Scalabench.Unsupported _ -> true
    | _ -> false)

let test_scalabench_replay_runs () =
  let original, recorder = traced ring in
  let sb =
    Scalabench.synthesize ~platform ~workload:"ring" ~nranks:8
      ~streams:(streams_of recorder 8)
      ~compute_table:(Recorder.compute_table recorder)
  in
  let res = E.run ~platform ~impl ~nranks:8 (Scalabench.program sb) in
  (* within a factor of two, but not exact: quantized sleeps and sizes *)
  let ratio = res.E.elapsed /. original.E.elapsed in
  Alcotest.(check bool) (Printf.sprintf "coarse time (ratio %.2f)" ratio) true
    (ratio > 0.5 && ratio < 2.0)

let test_scalabench_platform_blind () =
  (* the sleeps are recorded on A; replaying on B must NOT slow down the
     computation part — the defect Fig. 9 exposes *)
  let _, recorder = traced ring in
  let sb =
    Scalabench.synthesize ~platform ~workload:"ring" ~nranks:8
      ~streams:(streams_of recorder 8)
      ~compute_table:(Recorder.compute_table recorder)
  in
  let on_a = (E.run ~platform ~impl ~nranks:8 (Scalabench.program sb)).E.elapsed in
  let on_b =
    (E.run ~platform:Spec.platform_b ~impl ~nranks:8 (Scalabench.program sb)).E.elapsed
  in
  (* only the (small) communication part changes *)
  Alcotest.(check bool) "frozen across platforms" true (abs_float (on_b -. on_a) /. on_a < 0.2)

let test_scalabench_drops_waits_of_converted_isends () =
  let _, recorder = traced ring in
  let sb =
    Scalabench.synthesize ~platform ~workload:"ring" ~nranks:8
      ~streams:(streams_of recorder 8)
      ~compute_table:(Recorder.compute_table recorder)
  in
  (* replay must not raise (every remaining Wait has a live request) and
     the transformed stream contains no Isend *)
  ignore (E.run ~platform ~impl ~nranks:8 (Scalabench.program sb))

(* quantization units: ScalaTrace-style histogram bins *)
let test_scalabench_quantization_properties () =
  (* small counts unchanged; larger counts land on 1.5 * 2^k bin centres *)
  let q = Scalabench.quantize in
  Alcotest.(check int) "0" 0 (q 0);
  Alcotest.(check int) "1" 1 (q 1);
  Alcotest.(check int) "2" 2 (q 2);
  List.iter
    (fun c ->
      let b = q c in
      (* centre of [2^k, 2^(k+1)): within a factor of 1.5 of the input *)
      let ratio = float_of_int b /. float_of_int c in
      if ratio < 0.6 || ratio > 1.6 then Alcotest.failf "bin for %d is %d" c b;
      (* idempotent: a centre maps into its own bin *)
      Alcotest.(check int) (Printf.sprintf "idempotent %d" c) b (q b))
    [ 3; 7; 100; 1000; 4096; 100_000; 1_048_575 ]

let suite =
  [
    ("minime converges on its three ratios", `Quick, test_minime_converges);
    ("minime calibrates duration", `Quick, test_minime_scales_to_instruction_count);
    ("minime never beats the QP (Fig. 4)", `Quick, test_minime_vs_siesta);
    ("minime ratio-error metric", `Quick, test_minime_ratio_error_metric);
    ("pilgrim drops computation", `Quick, test_pilgrim_drops_computation);
    ("pilgrim keeps communication", `Quick, test_pilgrim_keeps_communication);
    ("scalabench known failure list", `Quick, test_scalabench_known_failures);
    ("scalabench crashes on the failure list", `Quick, test_scalabench_crashes_on_failure_list);
    ("scalabench crashes on structural diversity", `Quick, test_scalabench_crashes_on_structural_diversity);
    ("scalabench replay runs coarsely", `Quick, test_scalabench_replay_runs);
    ("scalabench sleeps are platform blind", `Quick, test_scalabench_platform_blind);
    ("scalabench isend conversion consistent", `Quick, test_scalabench_drops_waits_of_converted_isends);
    ("scalabench histogram quantization", `Quick, test_scalabench_quantization_properties);
  ]
