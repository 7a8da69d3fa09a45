(* Tests for siesta_trace: handle pools, event encoding, computation-event
   clustering, and the recorder. *)

module E = Siesta_mpi.Engine
module Call = Siesta_mpi.Call
module D = Siesta_mpi.Datatype
module Op = Siesta_mpi.Op
module Event = Siesta_trace.Event
module Pools = Siesta_trace.Pools
module Compute_table = Siesta_trace.Compute_table
module Recorder = Siesta_trace.Recorder
module Counters = Siesta_perf.Counters
module K = Siesta_perf.Kernel
module Rng = Siesta_util.Rng

let platform = Siesta_platform.Spec.platform_a
let impl = Siesta_platform.Mpi_impl.openmpi

(* ------------------------------------------------------------------ *)
(* Pools *)

let test_pool_acquires_smallest () =
  let p = Pools.create () in
  Alcotest.(check int) "first" 0 (Pools.acquire p);
  Alcotest.(check int) "second" 1 (Pools.acquire p);
  Alcotest.(check int) "third" 2 (Pools.acquire p);
  Pools.release p 1;
  Alcotest.(check int) "reuses the hole" 1 (Pools.acquire p);
  Alcotest.(check int) "then grows" 3 (Pools.acquire p)

let test_pool_release_order_irrelevant () =
  let p = Pools.create () in
  let ids = List.init 5 (fun _ -> Pools.acquire p) in
  List.iter (Pools.release p) (List.rev ids);
  Alcotest.(check int) "live zero" 0 (Pools.live p);
  Alcotest.(check int) "smallest again" 0 (Pools.acquire p)

let test_pool_double_release_rejected () =
  let p = Pools.create () in
  let id = Pools.acquire p in
  Pools.release p id;
  Alcotest.(check bool) "double release raises" true
    (match Pools.release p id with exception Invalid_argument _ -> true | () -> false)

let test_pool_release_unacquired_rejected () =
  let p = Pools.create () in
  Alcotest.(check bool) "unacquired raises" true
    (match Pools.release p 3 with exception Invalid_argument _ -> true | () -> false)

let test_pool_loop_stability () =
  (* the property that makes traces compressible: a loop that acquires and
     releases k handles sees the same numbers every iteration *)
  let p = Pools.create () in
  let iteration () =
    let a = Pools.acquire p and b = Pools.acquire p in
    Pools.release p a;
    Pools.release p b;
    (a, b)
  in
  let first = iteration () in
  for _ = 1 to 20 do
    Alcotest.(check bool) "identical numbering" true (iteration () = first)
  done

let test_pool_random_consistency () =
  let rng = Rng.create 41 in
  let p = Pools.create () in
  let live = Hashtbl.create 16 in
  for _ = 1 to 2000 do
    if Hashtbl.length live = 0 || Rng.bool rng then begin
      let id = Pools.acquire p in
      if Hashtbl.mem live id then Alcotest.failf "double allocation of %d" id;
      Hashtbl.replace live id ()
    end
    else begin
      let keys = Hashtbl.fold (fun k () acc -> k :: acc) live [] in
      let id = List.nth keys (Rng.int rng (List.length keys)) in
      Pools.release p id;
      Hashtbl.remove live id
    end;
    Alcotest.(check int) "live count agrees" (Hashtbl.length live) (Pools.live p)
  done

(* ------------------------------------------------------------------ *)
(* Event *)

let p2p = { Event.rel_peer = 3; tag = 7; dt = D.Double; count = 100 }

let test_event_keys_distinguish () =
  let events =
    [
      Event.Send p2p;
      Event.Recv p2p;
      Event.Isend (p2p, 0);
      Event.Irecv (p2p, 0);
      Event.Send { p2p with Event.count = 101 };
      Event.Send { p2p with Event.tag = 8 };
      Event.Send { p2p with Event.rel_peer = 4 };
      Event.Send { p2p with Event.dt = D.Int };
      Event.Wait 0;
      Event.Wait 1;
      Event.Waitall [ 0; 1 ];
      Event.Barrier { comm = 0 };
      Event.Allreduce { comm = 0; dt = D.Double; count = 1; op = Op.Sum };
      Event.Allreduce { comm = 0; dt = D.Double; count = 1; op = Op.Max };
      Event.Compute 0;
      Event.Compute 1;
    ]
  in
  let keys = List.map Event.to_key events in
  Alcotest.(check int) "all keys distinct" (List.length events)
    (List.length (List.sort_uniq compare keys))

let test_event_key_stable () =
  Alcotest.(check string) "same event same key" (Event.to_key (Event.Send p2p))
    (Event.to_key (Event.Send { Event.rel_peer = 3; tag = 7; dt = D.Double; count = 100 }))

let test_event_is_compute () =
  Alcotest.(check bool) "compute" true (Event.is_compute (Event.Compute 3));
  Alcotest.(check bool) "send" false (Event.is_compute (Event.Send p2p))

let test_event_serialized_bytes_positive () =
  Alcotest.(check bool) "positive" true (Event.serialized_bytes (Event.Send p2p) > 0)

let all_event_shapes =
  [
    Event.Send p2p;
    Event.Recv { p2p with Event.rel_peer = Siesta_mpi.Call.any_source; tag = Siesta_mpi.Call.any_tag };
    Event.Isend (p2p, 2);
    Event.Irecv (p2p, 0);
    Event.Wait 5;
    Event.Waitall [ 0; 2; 4 ];
    Event.Waitall [];
    Event.Sendrecv { send = p2p; recv = { p2p with Event.count = 3 } };
    Event.Barrier { comm = 1 };
    Event.Bcast { comm = 0; root = 2; dt = D.Int; count = 9 };
    Event.Reduce { comm = 0; root = 1; dt = D.Float; count = 2; op = Op.Min };
    Event.Allreduce { comm = 0; dt = D.Double; count = 1; op = Op.Prod };
    Event.Alltoall { comm = 0; dt = D.Byte; count = 3 };
    Event.Alltoallv { comm = 0; dt = D.Int; send_counts = [| 1; 0; 5 |] };
    Event.Allgather { comm = 2; dt = D.Int; count = 7 };
    Event.Gather { comm = 0; root = 0; dt = D.Double; count = 11 };
    Event.Scatter { comm = 0; root = 3; dt = D.Double; count = 13 };
    Event.Scan { comm = 0; dt = D.Double; count = 4; op = Op.Sum };
    Event.Exscan { comm = 1; dt = D.Int; count = 2; op = Op.Max };
    Event.Reduce_scatter { comm = 0; dt = D.Double; count = 8; op = Op.Min };
    Event.File_open { comm = 0; file = 0 };
    Event.File_close { file = 0 };
    Event.File_write_all { file = 0; dt = D.Double; count = 1000 };
    Event.File_read_all { file = 1; dt = D.Double; count = 500 };
    Event.File_write_at { file = 0; dt = D.Byte; count = 64 };
    Event.File_read_at { file = 0; dt = D.Int; count = 32 };
    Event.Comm_split { comm = 0; color = 2; key = -1; newcomm = 1 };
    Event.Comm_dup { comm = 0; newcomm = 2 };
    Event.Comm_free { comm = 2 };
    Event.Compute 17;
  ]

let test_event_key_roundtrip () =
  List.iter
    (fun ev ->
      let key = Event.to_key ev in
      Alcotest.(check bool) key true (Event.of_key key = ev))
    all_event_shapes

let test_event_of_key_rejects_garbage () =
  List.iter
    (fun bad ->
      Alcotest.(check bool) bad true
        (match Event.of_key bad with exception Failure _ -> true | _ -> false))
    [
      "";
      "S";
      "S()";
      "S(1,2)";
      "XX(1)";
      "S(1,2,NOPE,3)";
      "AR(0,DOUBLE,1,NOPE)";
      "CP(x)";
      (* point-to-point keys carry no communicator *)
      "S(1,2,DOUBLE,3@1)";
    ]

let test_call_metadata () =
  let call = Call.Send { peer = 3; tag = 7; dt = D.Double; count = 100 } in
  Alcotest.(check string) "name" "MPI_Send" (Call.name call);
  Alcotest.(check int) "payload" 800 (Call.payload_bytes call);
  Alcotest.(check bool) "blocking p2p" true (Call.is_blocking_p2p call);
  Alcotest.(check bool) "isend not blocking" false
    (Call.is_blocking_p2p (Call.Isend ({ peer = 3; tag = 7; dt = D.Double; count = 1 }, 0)));
  Alcotest.(check bool) "to_string informative" true
    (String.length (Call.to_string call) > 10)

let test_event_name_and_payload () =
  Alcotest.(check string) "send name" "MPI_Send" (Event.name (Event.Send p2p));
  Alcotest.(check string) "compute name" "MPI_Compute" (Event.name (Event.Compute 0));
  Alcotest.(check int) "send bytes" 800 (Event.payload_bytes (Event.Send p2p));
  Alcotest.(check int) "wait bytes" 0 (Event.payload_bytes (Event.Wait 0));
  Alcotest.(check bool) "p2p" true (Event.is_p2p (Event.Irecv (p2p, 0)));
  Alcotest.(check bool) "not p2p" false (Event.is_p2p (Event.Barrier { comm = 0 }))

(* ------------------------------------------------------------------ *)
(* Compute_table *)

let counters ?(scale = 1.0) () =
  Counters.of_array
    [| 1e6 *. scale; 5e5 *. scale; 3e5 *. scale; 1e3 *. scale; 1e5 *. scale; 1e3 *. scale |]

let test_cluster_absorbs_noise () =
  let t = Compute_table.create ~threshold:0.05 in
  let a = Compute_table.classify t (counters ()) in
  let b = Compute_table.classify t (counters ~scale:1.02 ()) in
  Alcotest.(check int) "2% noise joins" a b;
  Alcotest.(check int) "one cluster" 1 (Compute_table.cluster_count t);
  Alcotest.(check int) "two members" 2 (Compute_table.members t a)

let test_cluster_separates_distinct () =
  let t = Compute_table.create ~threshold:0.05 in
  let a = Compute_table.classify t (counters ()) in
  let b = Compute_table.classify t (counters ~scale:3.0 ()) in
  Alcotest.(check bool) "separate clusters" true (a <> b);
  Alcotest.(check int) "two clusters" 2 (Compute_table.cluster_count t)

let test_cluster_centroid_is_mean () =
  let t = Compute_table.create ~threshold:0.5 in
  let id = Compute_table.classify t (counters ()) in
  ignore (Compute_table.classify t (counters ~scale:1.2 ()));
  let c = Compute_table.centroid t id in
  Alcotest.(check (float 1.0)) "running mean" (1.1e6) c.Counters.ins

let test_cluster_zero_threshold () =
  let t = Compute_table.create ~threshold:0.0 in
  ignore (Compute_table.classify t (counters ()));
  ignore (Compute_table.classify t (counters ~scale:1.001 ()));
  Alcotest.(check int) "exact matching only" 2 (Compute_table.cluster_count t)

let test_cluster_accounting () =
  let t = Compute_table.create ~threshold:0.05 in
  for i = 1 to 10 do
    ignore (Compute_table.classify t (counters ~scale:(float_of_int i) ()))
  done;
  Alcotest.(check int) "total assigned" 10 (Compute_table.total_assigned t);
  Alcotest.(check bool) "serialized grows" true (Compute_table.serialized_bytes t > 0);
  Alcotest.check_raises "unknown id" (Invalid_argument "Compute_table: unknown id 99")
    (fun () -> ignore (Compute_table.centroid t 99))

(* ------------------------------------------------------------------ *)
(* Recorder *)

let traced_run ?relative_ranks ?(nranks = 4) program =
  let recorder = Recorder.create ~nranks ?relative_ranks () in
  ignore (E.run ~platform ~impl ~nranks ~hook:(Recorder.hook recorder) program);
  recorder

let ring ctx =
  let r = E.rank ctx and n = E.size ctx in
  for _ = 1 to 3 do
    E.compute ctx (K.compute_bound ~label:"k" ~flops:1e5 ~div_frac:0.0);
    let rq = E.irecv ctx ~src:((r + n - 1) mod n) ~tag:2 ~dt:D.Double ~count:100 in
    E.send ctx ~dest:((r + 1) mod n) ~tag:2 ~dt:D.Double ~count:100;
    E.wait ctx rq;
    E.allreduce ctx (E.comm_world ctx) ~dt:D.Double ~count:1 ~op:Op.Sum
  done

let test_recorder_relative_ranks_dedupe () =
  let r = Recorder.create ~nranks:4 () in
  ignore (E.run ~platform ~impl ~nranks:4 ~hook:(Recorder.hook r) ring);
  (* with relative encoding, every rank's stream is identical *)
  let keys rank = Array.map Event.to_key (Recorder.events r rank) in
  let k0 = keys 0 in
  for rank = 1 to 3 do
    Alcotest.(check bool) (Printf.sprintf "rank %d identical" rank) true (keys rank = k0)
  done

let test_recorder_absolute_ranks_differ () =
  let r = traced_run ~relative_ranks:false ring in
  let keys rank = Array.map Event.to_key (Recorder.events r rank) in
  Alcotest.(check bool) "absolute encoding differs per rank" true (keys 0 <> keys 1)

let test_recorder_compute_events_interleaved () =
  let r = traced_run ring in
  let evs = Recorder.events r 0 in
  Alcotest.(check bool) "has compute events" true (Array.exists Event.is_compute evs);
  (* the first event of the ring body is a Compute (work precedes irecv) *)
  Alcotest.(check bool) "first is compute" true (Event.is_compute evs.(0))

let test_recorder_request_pool_stability () =
  let r = traced_run ring in
  let evs = Recorder.events r 0 in
  (* every Irecv must use pooled id 0 because the request is waited before
     the next loop iteration *)
  Array.iter
    (fun ev ->
      match ev with
      | Event.Irecv (_, slot) -> Alcotest.(check int) "slot 0 reused" 0 slot
      | Event.Wait slot -> Alcotest.(check int) "wait slot 0" 0 slot
      | _ -> ())
    evs

let test_recorder_comm_pool () =
  let program ctx =
    let sub = E.comm_split ctx (E.comm_world ctx) ~color:(E.rank ctx mod 2) ~key:0 in
    E.barrier ctx sub;
    E.comm_free ctx sub;
    let sub2 = E.comm_split ctx (E.comm_world ctx) ~color:0 ~key:0 in
    E.barrier ctx sub2;
    E.comm_free ctx sub2
  in
  let r = traced_run program in
  let evs = Recorder.events r 0 in
  let splits =
    Array.to_list evs
    |> List.filter_map (function Event.Comm_split { newcomm; _ } -> Some newcomm | _ -> None)
  in
  (* freed communicator numbers are reused: both splits get pool id 1 *)
  Alcotest.(check (list int)) "pool reuse" [ 1; 1 ] splits

let test_recorder_trace_size_accounting () =
  let r = traced_run ring in
  Alcotest.(check bool) "bytes positive" true (Recorder.raw_trace_bytes r > 0);
  (* per rank: 3 iters x (compute + irecv + send + wait + allreduce) + final compute? *)
  Alcotest.(check int) "events counted" (Recorder.total_events r)
    (Array.length (Recorder.events r 0)
    + Array.length (Recorder.events r 1)
    + Array.length (Recorder.events r 2)
    + Array.length (Recorder.events r 3))

(* ------------------------------------------------------------------ *)
(* Trace_io + Mpip_report *)

module Trace_io = Siesta_trace.Trace_io
module Mpip_report = Siesta_trace.Mpip_report

let test_trace_io_compute_table_restored () =
  let r = traced_run ring in
  let t = Trace_io.of_recorder r in
  let original = Recorder.compute_table r in
  let restored = Trace_io.compute_table t in
  Alcotest.(check int) "cluster count" (Compute_table.cluster_count original)
    (Compute_table.cluster_count restored);
  for cid = 0 to Compute_table.cluster_count original - 1 do
    Alcotest.(check int) "members" (Compute_table.members original cid)
      (Compute_table.members restored cid)
  done

(* qcheck: random events round-trip through to_key/of_key.  The
   generator draws every one of the 32 constructors. *)
let random_event_gen =
  QCheck.Gen.(
    let dt = oneofl [ D.Byte; D.Int; D.Float; D.Double ] in
    let op = oneofl [ Op.Sum; Op.Max; Op.Min; Op.Prod ] in
    let p2p =
      let* rel_peer = frequency [ (5, 0 -- 64); (1, return Siesta_mpi.Call.any_source) ] in
      let* tag = frequency [ (5, 0 -- 99); (1, return Siesta_mpi.Call.any_tag) ] in
      let* dt = dt in
      let* count = 0 -- 1_000_000 in
      return { Event.rel_peer; tag; dt; count }
    in
    oneof
      [
        map (fun p -> Event.Send p) p2p;
        map (fun p -> Event.Recv p) p2p;
        map2 (fun p r -> Event.Isend (p, r)) p2p (0 -- 30);
        map2 (fun p r -> Event.Irecv (p, r)) p2p (0 -- 30);
        map (fun r -> Event.Wait r) (0 -- 30);
        map (fun rs -> Event.Waitall rs) (list_size (0 -- 6) (0 -- 30));
        map2 (fun s r -> Event.Sendrecv { send = s; recv = r }) p2p p2p;
        map (fun c -> Event.Barrier { comm = c }) (0 -- 4);
        (let* comm = 0 -- 4 and* root = 0 -- 16 and* dt = dt and* count = 0 -- 100_000 in
         return (Event.Bcast { comm; root; dt; count }));
        (let* comm = 0 -- 4 and* root = 0 -- 16 and* dt = dt and* count = 0 -- 100_000
         and* op = op in
         return (Event.Reduce { comm; root; dt; count; op }));
        (let* comm = 0 -- 4 and* dt = dt and* count = 0 -- 100_000 and* op = op in
         return (Event.Allreduce { comm; dt; count; op }));
        (let* comm = 0 -- 4 and* dt = dt and* count = 0 -- 100_000 in
         return (Event.Alltoall { comm; dt; count }));
        (let* comm = 0 -- 4 and* dt = dt and* count = 0 -- 100_000 in
         return (Event.Allgather { comm; dt; count }));
        (let* comm = 0 -- 4 and* root = 0 -- 16 and* dt = dt and* count = 0 -- 100_000 in
         return (Event.Gather { comm; root; dt; count }));
        (let* comm = 0 -- 4 and* root = 0 -- 16 and* dt = dt and* count = 0 -- 100_000 in
         return (Event.Scatter { comm; root; dt; count }));
        (let* comm = 0 -- 4 and* dt = dt and* count = 0 -- 100_000 and* op = op in
         return (Event.Scan { comm; dt; count; op }));
        (let* comm = 0 -- 4 and* dt = dt and* count = 0 -- 100_000 and* op = op in
         return (Event.Exscan { comm; dt; count; op }));
        (let* comm = 0 -- 4 and* dt = dt and* counts = array_size (1 -- 12) (0 -- 5_000) in
         return (Event.Alltoallv { comm; dt; send_counts = counts }));
        (let* comm = 0 -- 4 and* dt = dt and* count = 0 -- 100_000 and* op = op in
         return (Event.Reduce_scatter { comm; dt; count; op }));
        (let* file = 0 -- 3 and* dt = dt and* count = 0 -- 100_000 in
         return (Event.File_write_all { file; dt; count }));
        (let* file = 0 -- 3 and* dt = dt and* count = 0 -- 100_000 in
         return (Event.File_read_all { file; dt; count }));
        (let* file = 0 -- 3 and* dt = dt and* count = 0 -- 100_000 in
         return (Event.File_write_at { file; dt; count }));
        (let* comm = 0 -- 4 and* file = 0 -- 3 in
         return (Event.File_open { comm; file }));
        map (fun file -> Event.File_close { file }) (0 -- 3);
        (let* file = 0 -- 3 and* dt = dt and* count = 0 -- 100_000 in
         return (Event.File_read_at { file; dt; count }));
        (let* comm = 0 -- 4 and* color = -1 -- 3 and* key = -1 -- 16 and* newcomm = 1 -- 5 in
         return (Event.Comm_split { comm; color; key; newcomm }));
        (let* comm = 0 -- 4 and* newcomm = 1 -- 5 in
         return (Event.Comm_dup { comm; newcomm }));
        map (fun comm -> Event.Comm_free { comm }) (1 -- 5);
        (let* comm = 0 -- 4 and* req = 0 -- 30 in
         return (Event.Ibarrier { comm; req }));
        (let* comm = 0 -- 4 and* root = 0 -- 16 and* dt = dt and* count = 0 -- 100_000
         and* req = 0 -- 30 in
         return (Event.Ibcast { comm; root; dt; count; req }));
        (let* comm = 0 -- 4 and* dt = dt and* count = 0 -- 100_000 and* op = op
         and* req = 0 -- 30 in
         return (Event.Iallreduce { comm; dt; count; op; req }));
        map (fun c -> Event.Compute c) (0 -- 500);
      ])

(* qcheck: [Call.record_bytes] sums field widths instead of printing;
   it must equal the length of the [Call.to_string] text plus the fixed
   24-byte field.  The generator picks the constructor by its dense
   index, so every one of the [Call.n_kinds] kinds is drawn. *)
let random_call_gen =
  QCheck.Gen.(
    let edge = oneofl [ min_int; max_int; -1; 0; 9; 10 ] in
    let decimal_boundary =
      (* 10^k - 1 and 10^k, either sign: where the printed width steps *)
      let* k = 0 -- 18 and* below = bool and* neg = bool in
      let p = int_of_float (10. ** float_of_int k) in
      let v = if below then p - 1 else p in
      return (if neg then -v else v)
    in
    let i = frequency [ (2, edge); (2, decimal_boundary); (1, small_signed_int); (2, int) ] in
    let dt = oneofl [ D.Byte; D.Int; D.Float; D.Double ] in
    let op = oneofl [ Op.Sum; Op.Max; Op.Min; Op.Prod ] in
    let p2p =
      let* peer = i and* tag = i and* dt = dt and* count = i in
      return { Call.peer; tag; dt; count }
    in
    (* empty, singleton and long lists *)
    let ints = list_size (oneof [ return 0; return 1; 2 -- 64 ]) i in
    let call = function
      | 0 -> map (fun p -> Call.Send p) p2p
      | 1 -> map (fun p -> Call.Recv p) p2p
      | 2 -> map2 (fun p r -> Call.Isend (p, r)) p2p i
      | 3 -> map2 (fun p r -> Call.Irecv (p, r)) p2p i
      | 4 -> map (fun r -> Call.Wait r) i
      | 5 -> map (fun rs -> Call.Waitall rs) ints
      | 6 -> map2 (fun send recv -> Call.Sendrecv { send; recv }) p2p p2p
      | 7 -> map (fun comm -> Call.Barrier { comm }) i
      | 8 ->
          let* comm = i and* root = i and* dt = dt and* count = i in
          return (Call.Bcast { comm; root; dt; count })
      | 9 ->
          let* comm = i and* root = i and* dt = dt and* count = i and* op = op in
          return (Call.Reduce { comm; root; dt; count; op })
      | 10 ->
          let* comm = i and* dt = dt and* count = i and* op = op in
          return (Call.Allreduce { comm; dt; count; op })
      | 11 ->
          let* comm = i and* dt = dt and* count = i in
          return (Call.Alltoall { comm; dt; count })
      | 12 ->
          let* comm = i and* dt = dt and* counts = ints in
          return (Call.Alltoallv { comm; dt; send_counts = Array.of_list counts })
      | 13 ->
          let* comm = i and* dt = dt and* count = i in
          return (Call.Allgather { comm; dt; count })
      | 14 ->
          let* comm = i and* root = i and* dt = dt and* count = i in
          return (Call.Gather { comm; root; dt; count })
      | 15 ->
          let* comm = i and* root = i and* dt = dt and* count = i in
          return (Call.Scatter { comm; root; dt; count })
      | 16 ->
          let* comm = i and* dt = dt and* count = i and* op = op in
          return (Call.Scan { comm; dt; count; op })
      | 17 ->
          let* comm = i and* dt = dt and* count = i and* op = op in
          return (Call.Exscan { comm; dt; count; op })
      | 18 ->
          let* comm = i and* dt = dt and* count = i and* op = op in
          return (Call.Reduce_scatter { comm; dt; count; op })
      | 19 ->
          let* comm = i and* req = i in
          return (Call.Ibarrier { comm; req })
      | 20 ->
          let* comm = i and* root = i and* dt = dt and* count = i and* req = i in
          return (Call.Ibcast { comm; root; dt; count; req })
      | 21 ->
          let* comm = i and* dt = dt and* count = i and* op = op and* req = i in
          return (Call.Iallreduce { comm; dt; count; op; req })
      | 22 ->
          let* comm = i and* color = i and* key = i and* newcomm = i in
          return (Call.Comm_split { comm; color; key; newcomm })
      | 23 ->
          let* comm = i and* newcomm = i in
          return (Call.Comm_dup { comm; newcomm })
      | 24 -> map (fun comm -> Call.Comm_free { comm }) i
      | 25 ->
          let* comm = i and* file = i in
          return (Call.File_open { comm; file })
      | 26 -> map (fun file -> Call.File_close { file }) i
      | 27 ->
          let* file = i and* dt = dt and* count = i in
          return (Call.File_write_all { file; dt; count })
      | 28 ->
          let* file = i and* dt = dt and* count = i in
          return (Call.File_read_all { file; dt; count })
      | 29 ->
          let* file = i and* dt = dt and* count = i in
          return (Call.File_write_at { file; dt; count })
      | 30 ->
          let* file = i and* dt = dt and* count = i in
          return (Call.File_read_at { file; dt; count })
      | k -> invalid_arg (Printf.sprintf "random_call_gen: no generator for kind %d" k)
    in
    let* k = 0 -- (Call.n_kinds - 1) in
    let* c = call k in
    (* a generator filed under the wrong index would leave its kind untested *)
    assert (Call.index c = k);
    return c)

let prop_record_bytes_is_text_length =
  QCheck.Test.make ~count:3000 ~name:"record_bytes = length of to_string + 24"
    (QCheck.make ~print:Call.to_string random_call_gen)
    (fun c -> Call.record_bytes c = String.length (Call.to_string c) + 24)

let prop_event_key_roundtrip =
  QCheck.Test.make ~count:500 ~name:"random event keys round-trip"
    (QCheck.make ~print:Event.to_key random_event_gen)
    (fun ev -> Event.of_key (Event.to_key ev) = ev)

(* qcheck: [map_counts] reaches every count an event carries, and
   nothing else: the identity leaves the event equal, and doubling every
   count doubles the payload (both Sendrecv sides, each Alltoallv
   entry). *)
let prop_map_counts =
  QCheck.Test.make ~count:1000 ~name:"map_counts reaches every count"
    (QCheck.make ~print:Event.to_key random_event_gen)
    (fun ev ->
      Event.map_counts (fun _ c -> c) ev = ev
      && Event.payload_bytes (Event.map_counts (fun _ c -> 2 * c) ev)
         = 2 * Event.payload_bytes ev)

(* Both maps visit a Sendrecv's send side before its receive side: the
   scale model pairs the values it collects with the fields it rebuilds
   by that order, and Divergence.perturb bumps the first count. *)
let test_event_traversal_order () =
  let side rel_peer count = { Event.rel_peer; tag = 0; dt = D.Int; count } in
  let ev = Event.Sendrecv { send = side 1 10; recv = side 2 20 } in
  let seen = ref [] in
  let note v = seen := v :: !seen; v in
  ignore (Event.map_counts (fun _ c -> note c) ev : Event.t);
  ignore (Event.map_peers note ev : Event.t);
  Alcotest.(check (list int)) "send side first" [ 10; 20; 1; 2 ] (List.rev !seen)

(* qcheck: [map_peers] reaches one peer per point-to-point side, identity
   maps return the event, and the counts and peers collected by one
   traversal, handed back in order to another over the event with every
   count and peer zeroed, rebuild it. *)
let prop_traversals_rebuild =
  QCheck.Test.make ~count:1000 ~name:"count and peer traversals rebuild the event"
    (QCheck.make ~print:Event.to_key random_event_gen)
    (fun ev ->
      let collect map =
        let acc = ref [] in
        ignore (map (fun v -> acc := v :: !acc; v) ev : Event.t);
        ref (List.rev !acc)
      in
      let counts = collect (fun f -> Event.map_counts (fun _ c -> f c)) in
      let peers = collect Event.map_peers in
      let sides = match ev with Event.Sendrecv _ -> 2 | _ -> if Event.is_p2p ev then 1 else 0 in
      let pop values _ =
        match !values with
        | v :: rest -> values := rest; v
        | [] -> failwith "more fields than collected values"
      in
      let zeroed = Event.map_peers (fun _ -> 0) (Event.map_counts (fun _ _ -> 0) ev) in
      List.length !peers = sides
      && Event.map_peers Fun.id ev = ev
      && Event.map_peers (pop peers) (Event.map_counts (fun _ c -> pop counts c) zeroed) = ev
      && !counts = [] && !peers = [])

(* One event of each kind, with the request, communicator and file
   numbers [iter_slots] must report for it, in visiting order.  Roots,
   colors, keys and counts use numbers no slot does. *)
let test_event_iter_slots () =
  let p = { Event.rel_peer = 90; tag = 91; dt = D.Int; count = 92 } in
  let dt = D.Int and op = Op.Sum and root = 93 and count = 94 in
  let cases =
    [
      (Event.Send p, [], [], []);
      (Event.Recv p, [], [], []);
      (Event.Isend (p, 3), [ 3 ], [], []);
      (Event.Irecv (p, 4), [ 4 ], [], []);
      (Event.Wait 5, [ 5 ], [], []);
      (Event.Waitall [ 6; 7 ], [ 6; 7 ], [], []);
      (Event.Sendrecv { send = p; recv = p }, [], [], []);
      (Event.Barrier { comm = 1 }, [], [ 1 ], []);
      (Event.Bcast { comm = 2; root; dt; count }, [], [ 2 ], []);
      (Event.Reduce { comm = 3; root; dt; count; op }, [], [ 3 ], []);
      (Event.Allreduce { comm = 4; dt; count; op }, [], [ 4 ], []);
      (Event.Alltoall { comm = 5; dt; count }, [], [ 5 ], []);
      (Event.Alltoallv { comm = 6; dt; send_counts = [| count; count |] }, [], [ 6 ], []);
      (Event.Allgather { comm = 7; dt; count }, [], [ 7 ], []);
      (Event.Gather { comm = 8; root; dt; count }, [], [ 8 ], []);
      (Event.Scatter { comm = 9; root; dt; count }, [], [ 9 ], []);
      (Event.Scan { comm = 10; dt; count; op }, [], [ 10 ], []);
      (Event.Exscan { comm = 11; dt; count; op }, [], [ 11 ], []);
      (Event.Reduce_scatter { comm = 12; dt; count; op }, [], [ 12 ], []);
      (Event.Ibarrier { comm = 13; req = 8 }, [ 8 ], [ 13 ], []);
      (Event.Ibcast { comm = 14; root; dt; count; req = 9 }, [ 9 ], [ 14 ], []);
      (Event.Iallreduce { comm = 15; dt; count; op; req = 10 }, [ 10 ], [ 15 ], []);
      (Event.Comm_split { comm = 16; color = 95; key = 96; newcomm = 17 }, [], [ 16; 17 ], []);
      (Event.Comm_dup { comm = 18; newcomm = 19 }, [], [ 18; 19 ], []);
      (Event.Comm_free { comm = 20 }, [], [ 20 ], []);
      (Event.File_open { comm = 21; file = 1 }, [], [ 21 ], [ 1 ]);
      (Event.File_close { file = 2 }, [], [], [ 2 ]);
      (Event.File_write_all { file = 3; dt; count }, [], [], [ 3 ]);
      (Event.File_read_all { file = 4; dt; count }, [], [], [ 4 ]);
      (Event.File_write_at { file = 5; dt; count }, [], [], [ 5 ]);
      (Event.File_read_at { file = 6; dt; count }, [], [], [ 6 ]);
      (Event.Compute 7, [], [], []);
    ]
  in
  let kinds = List.sort_uniq compare (List.map (fun (ev, _, _, _) -> Event.name ev) cases) in
  Alcotest.(check int) "every kind once" 32 (List.length kinds);
  List.iter
    (fun (ev, reqs, comms, files) ->
      let got = Array.make 3 [] in
      let add k v = got.(k) <- v :: got.(k) in
      Event.iter_slots ~req:(add 0) ~comm:(add 1) ~file:(add 2) ev;
      Alcotest.(check (list (list int)))
        (Event.to_key ev) [ reqs; comms; files ]
        (List.map List.rev (Array.to_list got)))
    cases

(* A Wait on a slot no Isend bound is a broken stream: the replayer
   names the slot instead of failing on a table lookup. *)
let test_replay_unbound_slot () =
  let wait_unbound ctx =
    let r = Siesta_trace.Replay.create ctx ~compute:ignore in
    Siesta_trace.Replay.exec r (Event.Wait 3)
  in
  match E.run ~platform ~impl ~nranks:1 wait_unbound with
  | _ -> Alcotest.fail "a Wait on an unbound slot replayed"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "names the slot" "Replay: unbound request slot 3" msg

let test_mpip_report () =
  let r = traced_run ring in
  let rep = Mpip_report.of_streams ~nranks:4 (Array.init 4 (Recorder.events r)) in
  Alcotest.(check int) "nranks" 4 rep.Mpip_report.nranks;
  Alcotest.(check int) "events add up" rep.Mpip_report.total_events
    (rep.Mpip_report.comm_events + rep.Mpip_report.compute_events);
  Alcotest.(check int) "matches recorder" (Recorder.total_events r) rep.Mpip_report.total_events;
  let find name =
    List.find_opt (fun s -> s.Mpip_report.name = name) rep.Mpip_report.per_function
  in
  (* ring: 3 iterations x 4 ranks of each call *)
  (match find "MPI_Send" with
  | Some s -> Alcotest.(check int) "sends" 12 s.Mpip_report.calls
  | None -> Alcotest.fail "no MPI_Send row");
  (match find "MPI_Allreduce" with
  | Some s -> Alcotest.(check int) "allreduces" 12 s.Mpip_report.calls
  | None -> Alcotest.fail "no MPI_Allreduce row");
  let text = Mpip_report.render rep in
  Alcotest.(check bool) "renders sections" true (String.length text > 200);
  (* histogram bucket: sends of 800 bytes land in the 1024 bucket *)
  Alcotest.(check bool) "histogram has 1024 bucket" true
    (List.mem_assoc 1024 rep.Mpip_report.size_histogram)

let test_recorder_cluster_threshold_effect () =
  let count threshold =
    let recorder = Recorder.create ~nranks:4 ~cluster_threshold:threshold () in
    ignore (E.run ~platform ~impl ~nranks:4 ~hook:(Recorder.hook recorder) ring);
    Compute_table.cluster_count (Recorder.compute_table recorder)
  in
  Alcotest.(check bool) "tight threshold makes more clusters" true (count 0.0001 >= count 0.3)

let suite =
  [
    ("pool acquires smallest free number", `Quick, test_pool_acquires_smallest);
    ("pool release order irrelevant", `Quick, test_pool_release_order_irrelevant);
    ("pool double release rejected", `Quick, test_pool_double_release_rejected);
    ("pool unacquired release rejected", `Quick, test_pool_release_unacquired_rejected);
    ("pool loop numbering stability", `Quick, test_pool_loop_stability);
    ("pool random workload consistency", `Quick, test_pool_random_consistency);
    ("event keys distinguish parameters", `Quick, test_event_keys_distinguish);
    ("event keys stable", `Quick, test_event_key_stable);
    ("event is_compute", `Quick, test_event_is_compute);
    ("event serialized size positive", `Quick, test_event_serialized_bytes_positive);
    ("event key roundtrip (all shapes)", `Quick, test_event_key_roundtrip);
    ("event of_key rejects garbage", `Quick, test_event_of_key_rejects_garbage);
    ("event name and payload", `Quick, test_event_name_and_payload);
    ("call metadata", `Quick, test_call_metadata);
    ("clustering absorbs counter noise", `Quick, test_cluster_absorbs_noise);
    ("clustering separates distinct events", `Quick, test_cluster_separates_distinct);
    ("cluster centroid is the running mean", `Quick, test_cluster_centroid_is_mean);
    ("zero threshold clusters exactly", `Quick, test_cluster_zero_threshold);
    ("cluster accounting and errors", `Quick, test_cluster_accounting);
    ("relative ranks dedupe SPMD streams", `Quick, test_recorder_relative_ranks_dedupe);
    ("absolute ranks keep streams distinct", `Quick, test_recorder_absolute_ranks_differ);
    ("compute events interleaved", `Quick, test_recorder_compute_events_interleaved);
    ("request pool numbering stable across loops", `Quick, test_recorder_request_pool_stability);
    ("communicator pool reuses freed numbers", `Quick, test_recorder_comm_pool);
    ("trace size accounting", `Quick, test_recorder_trace_size_accounting);
    ("cluster threshold controls cluster count", `Quick, test_recorder_cluster_threshold_effect);
    ("trace_io restores the compute table", `Quick, test_trace_io_compute_table_restored);
    ("mpiP-style report", `Quick, test_mpip_report);
    QCheck_alcotest.to_alcotest prop_record_bytes_is_text_length;
    QCheck_alcotest.to_alcotest prop_event_key_roundtrip;
    QCheck_alcotest.to_alcotest prop_map_counts;
    ("event maps visit a Sendrecv's send side first", `Quick, test_event_traversal_order);
    QCheck_alcotest.to_alcotest prop_traversals_rebuild;
    ("event iter_slots reports every slot of each kind", `Quick, test_event_iter_slots);
    ("replay names an unbound request slot", `Quick, test_replay_unbound_slot);
  ]
