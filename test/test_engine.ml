(* Tests for the discrete-event MPI runtime. *)

module E = Siesta_mpi.Engine
module Call = Siesta_mpi.Call
module D = Siesta_mpi.Datatype
module Op = Siesta_mpi.Op
module K = Siesta_perf.Kernel
module Spec = Siesta_platform.Spec
module Impl = Siesta_platform.Mpi_impl
module Rng = Siesta_util.Rng

let platform = Spec.platform_a
let impl = Impl.openmpi
let run ?hook ?seed ~nranks program = E.run ~platform ~impl ~nranks ?hook ?seed program

let kernel = K.compute_bound ~label:"k" ~flops:1e5 ~div_frac:0.01

(* ------------------------------------------------------------------ *)

let test_rank_and_size () =
  let seen = Array.make 4 (-1) in
  ignore
    (run ~nranks:4 (fun ctx ->
         seen.(E.rank ctx) <- E.rank ctx;
         Alcotest.(check int) "size" 4 (E.size ctx);
         Alcotest.(check int) "world size" 4 (E.comm_size ctx (E.comm_world ctx));
         Alcotest.(check int) "world rank" (E.rank ctx) (E.comm_rank ctx (E.comm_world ctx))));
  Alcotest.(check bool) "all ranks ran" true (seen = [| 0; 1; 2; 3 |])

let test_compute_advances_clock () =
  let res =
    run ~nranks:1 (fun ctx ->
        Alcotest.(check (float 0.0)) "starts at zero" 0.0 (E.wtime ctx);
        E.compute ctx kernel;
        Alcotest.(check bool) "advanced" true (E.wtime ctx > 0.0))
  in
  Alcotest.(check bool) "elapsed positive" true (res.E.elapsed > 0.0);
  Alcotest.(check bool) "counters recorded" true
    (res.E.per_rank_counters.(0).Siesta_perf.Counters.ins > 0.0)

let test_sleep_no_counters () =
  let res =
    run ~nranks:1 (fun ctx ->
        E.sleep ctx 0.5;
        Alcotest.(check (float 1e-12)) "slept" 0.5 (E.wtime ctx))
  in
  Alcotest.(check (float 0.0)) "no counters" 0.0
    res.E.per_rank_counters.(0).Siesta_perf.Counters.ins

let test_eager_send_recv () =
  let recv_time = ref 0.0 and send_done = ref 0.0 in
  ignore
    (run ~nranks:2 (fun ctx ->
         if E.rank ctx = 0 then begin
           E.send ctx ~dest:1 ~tag:1 ~dt:D.Double ~count:8;
           send_done := E.wtime ctx
         end
         else begin
           E.recv ctx ~src:0 ~tag:1 ~dt:D.Double ~count:8;
           recv_time := E.wtime ctx
         end));
  Alcotest.(check bool) "receiver waits for the wire" true (!recv_time > !send_done);
  Alcotest.(check bool) "eager sender does not block" true
    (!send_done < impl.Impl.call_overhead_s *. 2.0)

let test_rendezvous_send_blocks () =
  (* a rendezvous-size send cannot complete before the receiver posts *)
  let send_done = ref 0.0 in
  let recv_posted_at = 0.1 in
  ignore
    (run ~nranks:2 (fun ctx ->
         if E.rank ctx = 0 then begin
           E.send ctx ~dest:1 ~tag:1 ~dt:D.Double ~count:100_000;
           send_done := E.wtime ctx
         end
         else begin
           E.sleep ctx recv_posted_at;
           E.recv ctx ~src:0 ~tag:1 ~dt:D.Double ~count:100_000
         end));
  Alcotest.(check bool) "sender blocked until post" true (!send_done > recv_posted_at)

let test_isend_irecv_wait () =
  let overlap_ok = ref false in
  ignore
    (run ~nranks:2 (fun ctx ->
         if E.rank ctx = 0 then begin
           let r = E.isend ctx ~dest:1 ~tag:3 ~dt:D.Double ~count:64 in
           let before = E.wtime ctx in
           E.compute ctx kernel;
           overlap_ok := E.wtime ctx > before;
           E.wait ctx r
         end
         else begin
           let r = E.irecv ctx ~src:0 ~tag:3 ~dt:D.Double ~count:64 in
           E.compute ctx kernel;
           E.wait ctx r
         end));
  Alcotest.(check bool) "computation overlapped the transfer" true !overlap_ok

let test_waitall () =
  ignore
    (run ~nranks:3 (fun ctx ->
         let n = E.size ctx and me = E.rank ctx in
         let reqs =
           List.concat_map
             (fun peer ->
               if peer = me then []
               else
                 [
                   E.irecv ctx ~src:peer ~tag:9 ~dt:D.Int ~count:4;
                   E.isend ctx ~dest:peer ~tag:9 ~dt:D.Int ~count:4;
                 ])
             (List.init n Fun.id)
         in
         E.waitall ctx reqs))

let test_fifo_matching_per_channel () =
  (* two same-tag messages must match posted receives in order; the
     payload sizes let us observe which arrived first via timing *)
  let t_first = ref 0.0 and t_second = ref 0.0 in
  ignore
    (run ~nranks:2 (fun ctx ->
         if E.rank ctx = 0 then begin
           E.send ctx ~dest:1 ~tag:4 ~dt:D.Byte ~count:1;
           E.send ctx ~dest:1 ~tag:4 ~dt:D.Byte ~count:4000
         end
         else begin
           E.recv ctx ~src:0 ~tag:4 ~dt:D.Byte ~count:1;
           t_first := E.wtime ctx;
           E.recv ctx ~src:0 ~tag:4 ~dt:D.Byte ~count:4000;
           t_second := E.wtime ctx
         end));
  Alcotest.(check bool) "order preserved" true (!t_second > !t_first)

let test_tag_selectivity () =
  (* rank 1 receives tag 2 first although tag 1 was sent first *)
  ignore
    (run ~nranks:2 (fun ctx ->
         if E.rank ctx = 0 then begin
           E.send ctx ~dest:1 ~tag:1 ~dt:D.Int ~count:1;
           E.send ctx ~dest:1 ~tag:2 ~dt:D.Int ~count:1
         end
         else begin
           E.recv ctx ~src:0 ~tag:2 ~dt:D.Int ~count:1;
           E.recv ctx ~src:0 ~tag:1 ~dt:D.Int ~count:1
         end))

let test_any_source_and_any_tag () =
  ignore
    (run ~nranks:3 (fun ctx ->
         match E.rank ctx with
         | 0 ->
             E.recv ctx ~src:Call.any_source ~tag:7 ~dt:D.Int ~count:1;
             E.recv ctx ~src:Call.any_source ~tag:Call.any_tag ~dt:D.Int ~count:1
         | 1 -> E.send ctx ~dest:0 ~tag:7 ~dt:D.Int ~count:1
         | _ -> E.send ctx ~dest:0 ~tag:99 ~dt:D.Int ~count:1))

let test_sendrecv_exchange () =
  (* the classic head-to-head exchange that deadlocks with blocking
     send/recv pairs must work with sendrecv *)
  ignore
    (run ~nranks:2 (fun ctx ->
         let peer = 1 - E.rank ctx in
         E.sendrecv ctx ~dest:peer ~send_tag:5 ~src:peer ~recv_tag:5 ~dt:D.Double
           ~send_count:50_000 ~recv_count:50_000))

let test_barrier_synchronizes () =
  let after = Array.make 4 0.0 in
  ignore
    (run ~nranks:4 (fun ctx ->
         E.sleep ctx (0.01 *. float_of_int (E.rank ctx + 1));
         E.barrier ctx (E.comm_world ctx);
         after.(E.rank ctx) <- E.wtime ctx));
  (* everyone leaves the barrier no earlier than the slowest arriver *)
  Array.iter (fun t -> Alcotest.(check bool) "left after slowest" true (t >= 0.04)) after

let test_allreduce_uniform_finish () =
  let finish = Array.make 4 0.0 in
  ignore
    (run ~nranks:4 (fun ctx ->
         E.sleep ctx (0.005 *. float_of_int (E.rank ctx));
         E.allreduce ctx (E.comm_world ctx) ~dt:D.Double ~count:16 ~op:Op.Sum;
         finish.(E.rank ctx) <- E.wtime ctx));
  let f0 = finish.(0) in
  Array.iter (fun t -> Alcotest.(check (float 1e-9)) "same finish" f0 t) finish

let test_collective_cost_grows () =
  let time count nranks =
    (E.run ~platform ~impl ~nranks (fun ctx ->
         E.bcast ctx (E.comm_world ctx) ~root:0 ~dt:D.Double ~count))
      .E.elapsed
  in
  Alcotest.(check bool) "bigger payload costs more" true (time 100_000 8 > time 10 8);
  Alcotest.(check bool) "more ranks cost more" true (time 1000 64 > time 1000 4)

let test_gather_scatter_allgather_alltoall () =
  ignore
    (run ~nranks:8 (fun ctx ->
         let w = E.comm_world ctx in
         E.gather ctx w ~root:0 ~dt:D.Int ~count:10;
         E.scatter ctx w ~root:0 ~dt:D.Int ~count:10;
         E.allgather ctx w ~dt:D.Int ~count:10;
         E.alltoall ctx w ~dt:D.Int ~count:10;
         E.reduce ctx w ~root:3 ~dt:D.Double ~count:5 ~op:Op.Max;
         E.alltoallv ctx w ~dt:D.Int ~send_counts:(Array.init 8 (fun i -> i))))

let test_file_io () =
  let res =
    run ~nranks:4 (fun ctx ->
        let w = E.comm_world ctx in
        let f = E.file_open ctx w in
        E.file_write_all ctx f ~dt:D.Double ~count:100_000;
        E.file_read_all ctx f ~dt:D.Double ~count:100_000;
        E.file_write_at ctx f ~dt:D.Double ~count:1_000;
        E.file_close ctx f)
  in
  Alcotest.(check bool) "io time charged" true (res.E.elapsed > 1e-4);
  Alcotest.(check int) "five I/O calls per rank" 20 res.E.total_calls

let test_file_io_collective_sync () =
  (* a collective write finishes all ranks together *)
  let finish = Array.make 4 0.0 in
  ignore
    (run ~nranks:4 (fun ctx ->
         let f = E.file_open ctx (E.comm_world ctx) in
         E.sleep ctx (0.01 *. float_of_int (E.rank ctx));
         E.file_write_all ctx f ~dt:D.Double ~count:1000;
         finish.(E.rank ctx) <- E.wtime ctx;
         E.file_close ctx f));
  Array.iter (fun t -> Alcotest.(check (float 1e-9)) "synchronized" finish.(0) t) finish

let test_file_io_bandwidth_model () =
  let time_of platform =
    (E.run ~platform ~impl ~nranks:4 (fun ctx ->
         let f = E.file_open ctx (E.comm_world ctx) in
         E.file_write_all ctx f ~dt:D.Double ~count:10_000_000;
         E.file_close ctx f))
      .E.elapsed
  in
  (* platform C's local SSD (2 GB/s) is much slower than A's Lustre *)
  Alcotest.(check bool) "ssd slower than lustre" true
    (time_of Spec.platform_c > 2.0 *. time_of Spec.platform_a)

let test_scan_family () =
  let res =
    run ~nranks:8 (fun ctx ->
        let w = E.comm_world ctx in
        E.scan ctx w ~dt:D.Double ~count:4 ~op:Op.Sum;
        E.exscan ctx w ~dt:D.Double ~count:4 ~op:Op.Sum;
        E.reduce_scatter ctx w ~dt:D.Double ~count:16 ~op:Op.Sum)
  in
  Alcotest.(check int) "three calls per rank" 24 res.E.total_calls;
  Alcotest.(check bool) "time charged" true (res.E.elapsed > 0.0)

let test_alltoallv_validates_counts () =
  Alcotest.check_raises "count mismatch"
    (Invalid_argument "Engine.alltoallv: send_counts size mismatch") (fun () ->
      ignore
        (run ~nranks:2 (fun ctx ->
             E.alltoallv ctx (E.comm_world ctx) ~dt:D.Int ~send_counts:[| 1 |])))

let test_comm_split () =
  ignore
    (run ~nranks:8 (fun ctx ->
         let r = E.rank ctx in
         let sub = E.comm_split ctx (E.comm_world ctx) ~color:(r mod 2) ~key:r in
         Alcotest.(check int) "subgroup size" 4 (E.comm_size ctx sub);
         Alcotest.(check int) "subgroup rank" (r / 2) (E.comm_rank ctx sub);
         (* collectives work on the sub-communicator *)
         E.allreduce ctx sub ~dt:D.Double ~count:1 ~op:Op.Sum;
         E.barrier ctx sub;
         E.comm_free ctx sub))

let test_comm_split_by_key_order () =
  ignore
    (run ~nranks:4 (fun ctx ->
         let r = E.rank ctx in
         (* reversed keys reverse the sub-ranks *)
         let sub = E.comm_split ctx (E.comm_world ctx) ~color:0 ~key:(-r) in
         Alcotest.(check int) "reversed" (3 - r) (E.comm_rank ctx sub)))

let test_comm_dup () =
  ignore
    (run ~nranks:4 (fun ctx ->
         let d = E.comm_dup ctx (E.comm_world ctx) in
         Alcotest.(check int) "same size" 4 (E.comm_size ctx d);
         Alcotest.(check bool) "fresh id" true (E.comm_id ctx d <> E.comm_id ctx (E.comm_world ctx));
         E.barrier ctx d))

(* comm_dup runs comm_split's id agreement with one color, keyed by the
   communicator rank: each rank keeps its rank, also in a split
   communicator whose order is not the world's, and a dup meeting a
   split is a mismatch. *)
let test_comm_dup_keeps_ranks () =
  ignore
    (run ~nranks:6 (fun ctx ->
         let r = E.rank ctx in
         let sub = E.comm_split ctx (E.comm_world ctx) ~color:(r mod 2) ~key:(-r) in
         let d = E.comm_dup ctx sub in
         Alcotest.(check int) "same size" (E.comm_size ctx sub) (E.comm_size ctx d);
         Alcotest.(check int) "same rank" (E.comm_rank ctx sub) (E.comm_rank ctx d);
         Alcotest.(check bool) "fresh id" true (E.comm_id ctx d <> E.comm_id ctx sub);
         E.allreduce ctx d ~dt:D.Int ~count:1 ~op:Op.Sum));
  match
    run ~nranks:2 (fun ctx ->
        let world = E.comm_world ctx in
        if E.rank ctx = 0 then ignore (E.comm_dup ctx world : E.comm)
        else ignore (E.comm_split ctx world ~color:0 ~key:0 : E.comm))
  with
  | _ -> Alcotest.fail "a dup against a split was not detected"
  | exception E.Collective_mismatch _ -> ()

let test_collective_mismatch_detected () =
  let act () =
    ignore
      (run ~nranks:2 (fun ctx ->
           if E.rank ctx = 0 then E.barrier ctx (E.comm_world ctx)
           else E.allreduce ctx (E.comm_world ctx) ~dt:D.Int ~count:1 ~op:Op.Sum))
  in
  match act () with
  | () -> Alcotest.fail "mismatch not detected"
  | exception E.Collective_mismatch _ -> ()

(* The [Deadlock] message names every blocked rank and what it waits on:
   a request id, or the kind of collective it joined. *)
let check_deadlock ~expected act =
  match act () with
  | _ -> Alcotest.fail "deadlock not detected"
  | exception E.Deadlock msg -> Alcotest.(check string) "deadlock message" expected msg

let test_deadlock_unmatched_recv () =
  check_deadlock ~expected:"1 rank(s) blocked: rank 0 on request 0" (fun () ->
      run ~nranks:2 (fun ctx -> if E.rank ctx = 0 then E.recv ctx ~src:1 ~tag:1 ~dt:D.Int ~count:1))

let test_deadlock_skipped_barrier () =
  (* ranks 0 and 1 wait in a barrier that rank 2 never joins *)
  check_deadlock
    ~expected:"2 rank(s) blocked: rank 0 on collective barrier; rank 1 on collective barrier"
    (fun () -> run ~nranks:3 (fun ctx -> if E.rank ctx < 2 then E.barrier ctx (E.comm_world ctx)))

let test_deadlock_circular_rendezvous () =
  (* both ranks issue rendezvous-size blocking sends head-to-head *)
  let act () =
    run ~nranks:2 (fun ctx ->
        let peer = 1 - E.rank ctx in
        E.send ctx ~dest:peer ~tag:1 ~dt:D.Double ~count:1_000_000;
        E.recv ctx ~src:peer ~tag:1 ~dt:D.Double ~count:1_000_000)
  in
  check_deadlock ~expected:"2 rank(s) blocked: rank 0 on request 0; rank 1 on request 1" act

let test_eager_head_to_head_completes () =
  (* the same pattern below the eager threshold must complete *)
  ignore
    (run ~nranks:2 (fun ctx ->
         let peer = 1 - E.rank ctx in
         E.send ctx ~dest:peer ~tag:1 ~dt:D.Byte ~count:16;
         E.recv ctx ~src:peer ~tag:1 ~dt:D.Byte ~count:16))

let ring_program ctx =
  let r = E.rank ctx and n = E.size ctx in
  for _ = 1 to 5 do
    E.compute ctx kernel;
    let rq = E.irecv ctx ~src:((r + n - 1) mod n) ~tag:2 ~dt:D.Double ~count:500 in
    E.send ctx ~dest:((r + 1) mod n) ~tag:2 ~dt:D.Double ~count:500;
    E.wait ctx rq;
    E.allreduce ctx (E.comm_world ctx) ~dt:D.Double ~count:1 ~op:Op.Sum
  done

let test_determinism () =
  let a = run ~seed:5 ~nranks:8 ring_program in
  let b = run ~seed:5 ~nranks:8 ring_program in
  Alcotest.(check (float 0.0)) "same elapsed" a.E.elapsed b.E.elapsed;
  Alcotest.(check bool) "same per-rank clocks" true (a.E.per_rank_elapsed = b.E.per_rank_elapsed);
  let c = run ~seed:6 ~nranks:8 ring_program in
  (* counter noise differs across seeds even though structure is equal *)
  Alcotest.(check bool) "same call count across seeds" true (a.E.total_calls = c.E.total_calls)

let test_clock_monotonic () =
  ignore
    (run ~nranks:4 (fun ctx ->
         let last = ref 0.0 in
         let check () =
           if E.wtime ctx < !last then Alcotest.fail "clock went backwards";
           last := E.wtime ctx
         in
         for _ = 1 to 3 do
           E.compute ctx kernel;
           check ();
           let rq = E.irecv ctx ~src:((E.rank ctx + 3) mod 4) ~tag:2 ~dt:D.Int ~count:10 in
           check ();
           E.send ctx ~dest:((E.rank ctx + 1) mod 4) ~tag:2 ~dt:D.Int ~count:10;
           check ();
           E.wait ctx rq;
           check ();
           E.barrier ctx (E.comm_world ctx);
           check ()
         done))

let test_hook_sees_all_calls () =
  let calls = ref [] in
  let hook =
    {
      E.on_event = (fun ~rank ~papi:_ ~call -> calls := (rank, Call.name call) :: !calls);
      per_event_overhead = 0.0;
    }
  in
  ignore
    (run ~hook ~nranks:2 (fun ctx ->
         if E.rank ctx = 0 then E.send ctx ~dest:1 ~tag:1 ~dt:D.Int ~count:1
         else E.recv ctx ~src:0 ~tag:1 ~dt:D.Int ~count:1;
         E.barrier ctx (E.comm_world ctx)));
  let names = List.map snd !calls in
  Alcotest.(check bool) "send seen" true (List.mem "MPI_Send" names);
  Alcotest.(check bool) "recv seen" true (List.mem "MPI_Recv" names);
  Alcotest.(check int) "2 barriers" 2
    (List.length (List.filter (fun n -> n = "MPI_Barrier") names))

let test_hook_overhead_charged () =
  let base = run ~nranks:2 ring_program in
  let hook = { E.on_event = (fun ~rank:_ ~papi:_ ~call:_ -> ()); per_event_overhead = 1e-4 } in
  let hooked = run ~hook ~nranks:2 ring_program in
  Alcotest.(check bool) "instrumentation slows the run" true
    (hooked.E.elapsed > base.E.elapsed +. 1e-4)

let test_total_calls_counted () =
  let res = run ~nranks:4 ring_program in
  (* per rank per iteration: irecv + send + wait + allreduce = 4; 5 iters *)
  Alcotest.(check int) "call count" (4 * 5 * 4) res.E.total_calls

let test_estimate_p2p () =
  let est bytes = E.estimate_p2p_seconds ~platform ~impl ~same_node:false ~bytes in
  Alcotest.(check bool) "monotone in volume" true (est 1_000_000 > est 100);
  let below = est impl.Impl.eager_threshold_bytes in
  let above = est (impl.Impl.eager_threshold_bytes + 1) in
  Alcotest.(check bool) "rendezvous step" true
    (above -. below > impl.Impl.rendezvous_extra_s *. 0.9);
  Alcotest.(check bool) "intra-node cheaper" true
    (E.estimate_p2p_seconds ~platform ~impl ~same_node:true ~bytes:1000 < est 1000)

let test_nonblocking_collectives () =
  (* computation overlaps an in-flight iallreduce; the wait then costs
     nothing extra because everyone has long arrived *)
  let res =
    run ~nranks:4 (fun ctx ->
        let w = E.comm_world ctx in
        let r1 = E.iallreduce ctx w ~dt:D.Double ~count:1000 ~op:Op.Sum in
        E.compute ctx kernel;
        E.wait ctx r1;
        let r2 = E.ibarrier ctx w in
        let r3 = E.ibcast ctx w ~root:0 ~dt:D.Int ~count:16 in
        E.waitall ctx [ r2; r3 ])
  in
  Alcotest.(check bool) "completed" true (res.E.elapsed > 0.0);
  Alcotest.(check int) "five calls per rank" 20 res.E.total_calls

let test_nonblocking_collective_overlap_pays_off () =
  (* blocking: the barrier serializes before the compute; non-blocking:
     compute proceeds while the collective is in flight *)
  let blocking =
    (run ~nranks:2 (fun ctx ->
         E.allreduce ctx (E.comm_world ctx) ~dt:D.Double ~count:500_000 ~op:Op.Sum;
         E.compute ctx (K.compute_bound ~label:"k" ~flops:1e8 ~div_frac:0.0)))
      .E.elapsed
  in
  let nonblocking =
    (run ~nranks:2 (fun ctx ->
         let r = E.iallreduce ctx (E.comm_world ctx) ~dt:D.Double ~count:500_000 ~op:Op.Sum in
         E.compute ctx (K.compute_bound ~label:"k" ~flops:1e8 ~div_frac:0.0);
         E.wait ctx r))
      .E.elapsed
  in
  Alcotest.(check bool) "overlap helps" true (nonblocking < blocking)

let test_multiple_inflight_collectives_ordered () =
  (* two ibarriers outstanding at once; completion times are ordered *)
  ignore
    (run ~nranks:3 (fun ctx ->
         let w = E.comm_world ctx in
         let r1 = E.ibarrier ctx w in
         let r2 = E.ibarrier ctx w in
         E.wait ctx r2;
         E.wait ctx r1))

let test_unreceived_messages_reported () =
  (* a send without a matching receive is flagged in the result *)
  let res =
    run ~nranks:2 (fun ctx ->
        if E.rank ctx = 0 then E.send ctx ~dest:1 ~tag:1 ~dt:D.Byte ~count:4)
  in
  Alcotest.(check int) "one stranded message" 1 res.E.unreceived_messages;
  let clean = run ~nranks:2 ring_program in
  Alcotest.(check int) "clean programs strand nothing" 0 clean.E.unreceived_messages

let test_invalid_nranks () =
  Alcotest.check_raises "zero ranks" (Invalid_argument "Engine.run: nranks must be positive")
    (fun () -> ignore (run ~nranks:0 (fun _ -> ())))

(* Random matched communication patterns never deadlock and always
   complete: pick a random permutation; every rank sends to its image and
   receives from its preimage, with random sizes/tags, plus random
   collectives interleaved at the same program points on every rank. *)
let test_random_matched_patterns () =
  let rng = Rng.create 77 in
  for _trial = 1 to 40 do
    let n = 2 + Rng.int rng 7 in
    let perm = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done;
    let inverse = Array.make n 0 in
    Array.iteri (fun i v -> inverse.(v) <- i) perm;
    let rounds = 1 + Rng.int rng 4 in
    let sizes = Array.init rounds (fun _ -> 1 + Rng.int rng 50_000) in
    let colls = Array.init rounds (fun _ -> Rng.int rng 3) in
    let res =
      run ~nranks:n (fun ctx ->
          let r = E.rank ctx in
          for k = 0 to rounds - 1 do
            let rq = E.irecv ctx ~src:inverse.(r) ~tag:k ~dt:D.Byte ~count:sizes.(k) in
            E.send ctx ~dest:perm.(r) ~tag:k ~dt:D.Byte ~count:sizes.(k);
            E.wait ctx rq;
            match colls.(k) with
            | 0 -> E.barrier ctx (E.comm_world ctx)
            | 1 -> E.allreduce ctx (E.comm_world ctx) ~dt:D.Double ~count:4 ~op:Op.Sum
            | _ -> E.bcast ctx (E.comm_world ctx) ~root:(k mod n) ~dt:D.Int ~count:32
          done)
    in
    Alcotest.(check bool) "progressed" true (res.E.elapsed > 0.0)
  done

let suite =
  [
    ("rank/size/comm accessors", `Quick, test_rank_and_size);
    ("compute advances clock and counters", `Quick, test_compute_advances_clock);
    ("sleep advances clock only", `Quick, test_sleep_no_counters);
    ("eager send completes immediately, recv waits", `Quick, test_eager_send_recv);
    ("rendezvous send blocks until recv posts", `Quick, test_rendezvous_send_blocks);
    ("isend/irecv overlap computation", `Quick, test_isend_irecv_wait);
    ("waitall over mixed requests", `Quick, test_waitall);
    ("FIFO matching per channel", `Quick, test_fifo_matching_per_channel);
    ("tag selectivity", `Quick, test_tag_selectivity);
    ("any_source / any_tag wildcards", `Quick, test_any_source_and_any_tag);
    ("sendrecv avoids head-to-head deadlock", `Quick, test_sendrecv_exchange);
    ("barrier synchronizes", `Quick, test_barrier_synchronizes);
    ("allreduce finishes all ranks together", `Quick, test_allreduce_uniform_finish);
    ("collective cost grows with size and ranks", `Quick, test_collective_cost_grows);
    ("gather/scatter/allgather/alltoall(v)/reduce", `Quick, test_gather_scatter_allgather_alltoall);
    ("scan/exscan/reduce_scatter", `Quick, test_scan_family);
    ("MPI-IO basic operations", `Quick, test_file_io);
    ("MPI-IO collective synchronization", `Quick, test_file_io_collective_sync);
    ("MPI-IO bandwidth model", `Quick, test_file_io_bandwidth_model);
    ("alltoallv validates counts", `Quick, test_alltoallv_validates_counts);
    ("comm_split groups and sub-collectives", `Quick, test_comm_split);
    ("comm_split orders by key", `Quick, test_comm_split_by_key_order);
    ("comm_dup", `Quick, test_comm_dup);
    ("comm_dup keeps communicator ranks", `Quick, test_comm_dup_keeps_ranks);
    ("collective mismatch detected", `Quick, test_collective_mismatch_detected);
    ("deadlock: unmatched recv", `Quick, test_deadlock_unmatched_recv);
    ("deadlock: skipped barrier", `Quick, test_deadlock_skipped_barrier);
    ("deadlock: circular rendezvous sends", `Quick, test_deadlock_circular_rendezvous);
    ("eager head-to-head completes", `Quick, test_eager_head_to_head_completes);
    ("determinism per seed", `Quick, test_determinism);
    ("per-rank clock monotonicity", `Quick, test_clock_monotonic);
    ("hook sees every call", `Quick, test_hook_sees_all_calls);
    ("hook overhead charged to the clock", `Quick, test_hook_overhead_charged);
    ("total_calls accounting", `Quick, test_total_calls_counted);
    ("p2p time estimator", `Quick, test_estimate_p2p);
    ("non-blocking collectives", `Quick, test_nonblocking_collectives);
    ("non-blocking collective overlap", `Quick, test_nonblocking_collective_overlap_pays_off);
    ("multiple in-flight collectives", `Quick, test_multiple_inflight_collectives_ordered);
    ("unreceived messages reported", `Quick, test_unreceived_messages_reported);
    ("invalid nranks rejected", `Quick, test_invalid_nranks);
    ("random matched patterns never deadlock", `Slow, test_random_matched_patterns);
  ]
