(* Tests for siesta_analysis: communication matrices and topology
   detection. *)

module Comm_matrix = Siesta_analysis.Comm_matrix
module Topology = Siesta_analysis.Topology
module Event = Siesta_trace.Event
module Recorder = Siesta_trace.Recorder
module E = Siesta_mpi.Engine
module D = Siesta_mpi.Datatype

let platform = Siesta_platform.Spec.platform_a
let impl = Siesta_platform.Mpi_impl.openmpi

(* the streams `siesta analyze` reads: the trace stage's packed trace *)
let matrix_of_workload ?(nranks = 64) workload =
  let s = Siesta.Pipeline.spec ~workload ~nranks () in
  let t =
    Siesta_trace.Trace_io.of_packed (Siesta.Pipeline.trace_stage s).Siesta.Pipeline.ts_trace
  in
  Comm_matrix.of_streams ~nranks t.Siesta_trace.Trace_io.streams

(* hand-built streams: rank r sends 2 x 100 bytes to r+1 *)
let ring_streams nranks =
  Array.make nranks
    [|
      Event.Send { Event.rel_peer = 1; tag = 0; dt = D.Byte; count = 100 };
      Event.Send { Event.rel_peer = 1; tag = 0; dt = D.Byte; count = 100 };
    |]

let test_matrix_accounting () =
  let m = Comm_matrix.of_streams ~nranks:4 (ring_streams 4) in
  Alcotest.(check int) "nranks" 4 (Comm_matrix.nranks m);
  Alcotest.(check int) "messages 0->1" 2 (Comm_matrix.messages m ~src:0 ~dst:1);
  Alcotest.(check int) "bytes 3->0 (wrap)" 200 (Comm_matrix.bytes m ~src:3 ~dst:0);
  Alcotest.(check int) "no reverse traffic" 0 (Comm_matrix.messages m ~src:1 ~dst:0);
  Alcotest.(check int) "total messages" 8 (Comm_matrix.total_messages m);
  Alcotest.(check int) "total bytes" 800 (Comm_matrix.total_bytes m);
  Alcotest.(check int) "edges" 4 (List.length (Comm_matrix.edges m))

let test_matrix_offsets () =
  let m = Comm_matrix.of_streams ~nranks:4 (ring_streams 4) in
  Alcotest.(check (list (pair int int))) "single +1 offset" [ (1, 8) ] (Comm_matrix.offsets m)

let test_matrix_wildcard_ignored () =
  let streams =
    [|
      [| Event.Recv { Event.rel_peer = Siesta_mpi.Call.any_source; tag = 0; dt = D.Int; count = 1 } |];
      [| Event.Send { Event.rel_peer = 3; tag = 0; dt = D.Int; count = 1 } |];
    |]
  in
  let m = Comm_matrix.of_streams ~nranks:2 streams in
  Alcotest.(check int) "only the send edge" 1 (Comm_matrix.total_messages m)

let test_matrix_render () =
  let m = Comm_matrix.of_streams ~nranks:4 (ring_streams 4) in
  let s = Comm_matrix.render m in
  Alcotest.(check bool) "renders" true (String.length s > 16);
  (* row 0: '.' '2' '.' '.' — 200 bytes = 10^2.3 *)
  Alcotest.(check bool) "heat digit" true (String.contains s '2')

let test_topology_ring () =
  let m = Comm_matrix.of_streams ~nranks:8 (ring_streams 8) in
  Alcotest.(check string) "ring" "ring" (Topology.to_string (Topology.classify m))

let test_topology_no_p2p () =
  let m = Comm_matrix.of_streams ~nranks:4 (Array.make 4 [| Event.Barrier { comm = 0 } |]) in
  Alcotest.(check bool) "no p2p" true (Topology.classify m = Topology.NoP2p)

let test_topology_of_workloads () =
  List.iter
    (fun (workload, expected) ->
      let m = matrix_of_workload workload in
      let got = Topology.classify m in
      Alcotest.(check string) workload expected (Topology.to_string got))
    [
      ("BT", "2-D grid (8 x 8)");
      ("SP", "2-D grid (8 x 8)");
      ("MG", "3-D grid (4 x 4 x 4)");
      ("CG", "butterfly (power-of-two exchanges)");
      ("IS", "no point-to-point traffic");
      ("Sweep3d", "2-D grid (16 x 4)");
    ]

let test_topology_dense () =
  (* everyone sends to everyone *)
  let nranks = 6 in
  let streams =
    Array.init nranks (fun _ ->
        Array.init (nranks - 1) (fun i ->
            Event.Send { Event.rel_peer = i + 1; tag = 0; dt = D.Int; count = 1 }))
  in
  let m = Comm_matrix.of_streams ~nranks streams in
  (* all offsets equally dominant: not a ring/grid; 30/36 edges -> dense *)
  Alcotest.(check bool) "dense" true (Topology.classify m = Topology.Dense)

(* ------------------------------------------------------------------ *)
(* Phases *)

module Phases = Siesta_analysis.Phases
module MPipe = Siesta_merge.Pipeline

let test_phases_detects_iterations () =
  let s = Siesta.Pipeline.spec ~iters:8 ~workload:"MG" ~nranks:16 () in
  let traced = Siesta.Pipeline.trace s in
  let merged =
    MPipe.merge_packed (Siesta_trace.Trace_io.pack traced.Siesta.Pipeline.recorder)
  in
  let phases = Phases.detect merged in
  Alcotest.(check bool) "found phases" true (phases <> []);
  (* the dominant phase is the 8-iteration V-cycle loop *)
  (match phases with
  | p :: _ ->
      Alcotest.(check int) "iteration count" 8 p.Phases.iterations;
      Alcotest.(check bool) "non-trivial body" true (p.Phases.events_per_iteration > 10)
  | [] -> ());
  (* every rank belongs to some phase *)
  let covered =
    List.concat_map (fun p -> Siesta_merge.Rank_list.to_list p.Phases.ranks) phases
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "all ranks in phases" 16 (List.length covered)

let test_phases_respects_threshold () =
  let stream =
    Array.concat
      (List.init 3 (fun _ ->
           [|
             Event.Barrier { comm = 0 };
             Event.Send { Event.rel_peer = 1; tag = 0; dt = D.Byte; count = 10 };
           |]))
  in
  let merged = MPipe.merge_streams ~nranks:2 [| stream; stream |] in
  Alcotest.(check (list pass)) "3 repeats below default threshold" []
    (Phases.detect merged);
  Alcotest.(check bool) "visible at min_iterations 3" true
    (Phases.detect ~min_iterations:3 merged <> [])

let test_phases_render () =
  let s = Siesta.Pipeline.spec ~iters:6 ~workload:"IS" ~nranks:8 () in
  let traced = Siesta.Pipeline.trace s in
  let merged =
    MPipe.merge_packed (Siesta_trace.Trace_io.pack traced.Siesta.Pipeline.recorder)
  in
  let text = Phases.render merged in
  (* the first iteration's computation clusters differ (cold start), so
     at least the remaining 5 compress into one phase *)
  Alcotest.(check bool) "mentions iterations" true
    (String.length text > 0
    &&
    let needle = "iterations x" in
    let n = String.length text and m = String.length needle in
    let rec go i = i + m <= n && (String.sub text i m = needle || go (i + 1)) in
    go 0);
  (match Phases.detect merged with
  | p :: _ -> Alcotest.(check bool) "at least 5 iterations" true (p.Phases.iterations >= 5)
  | [] -> Alcotest.fail "no phases in IS")

let suite =
  [
    ("matrix accounting", `Quick, test_matrix_accounting);
    ("matrix offsets", `Quick, test_matrix_offsets);
    ("matrix ignores wildcard receives", `Quick, test_matrix_wildcard_ignored);
    ("matrix heat-map rendering", `Quick, test_matrix_render);
    ("topology: ring", `Quick, test_topology_ring);
    ("topology: collectives only", `Quick, test_topology_no_p2p);
    ("topology: all workloads classify correctly", `Slow, test_topology_of_workloads);
    ("topology: dense", `Quick, test_topology_dense);
    ("phases: iteration detection", `Quick, test_phases_detects_iterations);
    ("phases: threshold", `Quick, test_phases_respects_threshold);
    ("phases: rendering", `Quick, test_phases_render);
  ]
