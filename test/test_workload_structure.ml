(* Structural validation of the workload skeletons: each program must
   communicate the way its real counterpart does — call mix, per-rank
   variation, and collective/point-to-point balance. *)

module W = Siesta_workloads
module E = Siesta_mpi.Engine
module Recorder = Siesta_trace.Recorder
module Event = Siesta_trace.Event
module Mpip = Siesta_trace.Mpip_report

let platform = Siesta_platform.Spec.platform_a
let impl = Siesta_platform.Mpi_impl.openmpi

let report_of ?(nranks = 16) name =
  let w = W.Registry.find name in
  let recorder = Recorder.create ~nranks () in
  ignore
    (E.run ~platform ~impl ~nranks ~hook:(Recorder.hook recorder)
       (w.W.Registry.program ~nranks ~iters:(Some 3)));
  (Mpip.of_streams ~nranks (Array.init nranks (Recorder.events recorder)), recorder)

let calls report name =
  match List.find_opt (fun s -> s.Mpip.name = name) report.Mpip.per_function with
  | Some s -> s.Mpip.calls
  | None -> 0

let test_bt_call_mix () =
  let r, _ = report_of "BT" in
  (* copy_faces: 4 isends + 4 irecvs + 1 waitall per rank per step *)
  Alcotest.(check int) "isend = irecv" (calls r "MPI_Isend") (calls r "MPI_Irecv");
  Alcotest.(check int) "waitall = isend/4" (calls r "MPI_Isend") (4 * calls r "MPI_Waitall");
  (* pipelined sweeps: blocking sends and receives balance globally *)
  Alcotest.(check int) "send = recv" (calls r "MPI_Send") (calls r "MPI_Recv");
  Alcotest.(check bool) "no alltoall in BT" true (calls r "MPI_Alltoall" = 0)

let test_cg_has_no_collectives_in_iterations () =
  let r, _ = report_of "CG" in
  (* CG reduces via explicit send/recv chains; only the final norm is an
     allreduce (1 per rank) plus the setup barrier *)
  Alcotest.(check int) "one allreduce per rank" 16 (calls r "MPI_Allreduce");
  Alcotest.(check int) "one barrier per rank" 16 (calls r "MPI_Barrier");
  Alcotest.(check bool) "dominated by p2p" true
    (calls r "MPI_Send" > 10 * calls r "MPI_Allreduce")

let test_is_has_no_p2p () =
  let r, _ = report_of "IS" in
  Alcotest.(check int) "no sends" 0 (calls r "MPI_Send");
  Alcotest.(check int) "no isends" 0 (calls r "MPI_Isend");
  Alcotest.(check bool) "alltoallv present" true (calls r "MPI_Alltoallv" > 0);
  (* 3 iterations + warm structure: alltoall = alltoallv per iteration *)
  Alcotest.(check int) "alltoall matches alltoallv" (calls r "MPI_Alltoall")
    (calls r "MPI_Alltoallv")

let test_mg_six_neighbor_exchange () =
  let r, _ = report_of "MG" ~nranks:8 in
  (* comm3 posts 2 irecvs + 2 sends per axis: sends = irecvs *)
  Alcotest.(check int) "send = irecv" (calls r "MPI_Send") (calls r "MPI_Irecv");
  Alcotest.(check bool) "allreduce per iteration" true (calls r "MPI_Allreduce" >= 8 * 3)

let test_sweep3d_boundary_asymmetry () =
  let _, recorder = report_of "Sweep3d" in
  (* corner ranks have fewer events than interior ranks (missing inflow
     or outflow faces) *)
  let events r = Array.length (Recorder.events recorder r) in
  let counts = List.init 16 events in
  let distinct = List.sort_uniq compare counts in
  Alcotest.(check bool) "several event-count classes" true (List.length distinct >= 3)

let test_flash_rank_irregularity () =
  let _, recorder = report_of "Sedov" in
  (* guard-cell message counts depend on per-rank block counts: streams
     must NOT be identical across ranks (that irregularity is what crashes
     RSD compressors) *)
  let key r =
    String.concat "|" (Array.to_list (Array.map Event.to_key (Recorder.events recorder r)))
  in
  let distinct = List.sort_uniq compare (List.init 16 key) in
  Alcotest.(check bool) "many distinct rank behaviours" true (List.length distinct > 8)

let test_btio_io_calls () =
  let r, _ = report_of "BT-IO" in
  Alcotest.(check int) "one open per rank" 16 (calls r "MPI_File_open");
  Alcotest.(check int) "one close per rank" 16 (calls r "MPI_File_close");
  Alcotest.(check int) "one read-back per rank" 16 (calls r "MPI_File_read_all");
  Alcotest.(check bool) "no independent io" true (calls r "MPI_File_write_at" = 0)

let test_event_rates_match_scale () =
  (* IS is collective-only: its per-rank event count must not grow with P *)
  let per_rank name nranks =
    let w = W.Registry.find name in
    let recorder = Recorder.create ~nranks () in
    ignore
      (E.run ~platform ~impl ~nranks ~hook:(Recorder.hook recorder)
         (w.W.Registry.program ~nranks ~iters:(Some 3)));
    Recorder.total_events recorder / nranks
  in
  Alcotest.(check int) "IS per-rank events scale-free" (per_rank "IS" 16) (per_rank "IS" 64);
  (* BT's pipeline gives interior ranks a constant event count as well *)
  Alcotest.(check bool) "BT per-rank events stable" true
    (abs (per_rank "BT" 16 - per_rank "BT" 64) * 10 < per_rank "BT" 16)

let test_collective_volumes_sane () =
  let r, _ = report_of "MG" ~nranks:8 in
  let f name =
    match List.find_opt (fun s -> s.Mpip.name = name) r.Mpip.per_function with
    | Some s -> s
    | None -> Alcotest.failf "no %s" name
  in
  let send = f "MPI_Send" in
  (* MG faces shrink by level: min payload well below max *)
  Alcotest.(check bool) "multi-level volumes" true
    (send.Mpip.max_bytes > 16 * max 1 send.Mpip.min_bytes)

let suite =
  [
    ("BT call mix", `Quick, test_bt_call_mix);
    ("CG avoids collectives in iterations", `Quick, test_cg_has_no_collectives_in_iterations);
    ("IS is collective-only", `Quick, test_is_has_no_p2p);
    ("MG six-neighbour exchange", `Quick, test_mg_six_neighbor_exchange);
    ("Sweep3d boundary asymmetry", `Quick, test_sweep3d_boundary_asymmetry);
    ("FLASH rank irregularity", `Quick, test_flash_rank_irregularity);
    ("BT-IO I/O call counts", `Quick, test_btio_io_calls);
    ("per-rank event rates vs scale", `Quick, test_event_rates_match_scale);
    ("multi-level message volumes (MG)", `Quick, test_collective_volumes_sane);
  ]
