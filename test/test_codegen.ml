(* Unit tests of the C code generator on hand-built proxy structures: the
   emitted statements for each event type, the rank-list branch
   conditions, and the computation-function layout. *)

module Merged = Siesta_merge.Merged
module Rank_list = Siesta_merge.Rank_list
module Grammar = Siesta_grammar.Grammar
module Event = Siesta_trace.Event
module Proxy_ir = Siesta_synth.Proxy_ir
module Codegen_c = Siesta_synth.Codegen_c
module Shrink = Siesta_synth.Shrink
module D = Siesta_mpi.Datatype
module Op = Siesta_mpi.Op

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  m = 0 || go 0

let check_contains code needle =
  if not (contains code needle) then Alcotest.failf "generated C lacks %S" needle

(* a proxy whose main rule executes the given terminals once each, on the
   given rank lists (default: all of a 4-rank program) *)
let proxy_of ?(nranks = 4) ?(mains = None) terminals =
  let all = Rank_list.of_list (List.init nranks Fun.id) in
  let default_main =
    List.mapi (fun i _ -> { Merged.sym = Grammar.T i; reps = 1; ranks = all }) terminals
  in
  let mains, main_ranks =
    match mains with
    | None -> ([| default_main |], [| all |])
    | Some (m, r) -> (m, r)
  in
  let compute_count =
    List.fold_left
      (fun acc ev -> match ev with Event.Compute c -> max acc (c + 1) | _ -> acc)
      0 terminals
  in
  let x = Array.make 11 0.0 in
  x.(0) <- 5.0;
  x.(9) <- 3.0;
  x.(10) <- 5.0;
  {
    Proxy_ir.merged =
      {
        Merged.nranks;
        terminals = Array.of_list terminals;
        rules = [||];
        mains;
        main_ranks;
      };
    combos = Array.make (max 1 compute_count) x;
    combo_errors = Array.make (max 1 compute_count) 0.01;
    shrink = Shrink.identity;
    generated_on = "A";
  }

let gen ?nranks ?mains terminals = Codegen_c.generate (proxy_of ?nranks ?mains terminals)

let p2p = { Event.rel_peer = 3; tag = 7; dt = D.Double; count = 100 }

let test_send_recv_emission () =
  let c = gen [ Event.Send p2p; Event.Recv p2p ] in
  check_contains c "MPI_Send(sbuf, 100, MPI_DOUBLE, PEER(3), 7, comms[0]);";
  check_contains c "MPI_Recv(rbuf, 100, MPI_DOUBLE, PEER(3), 7, comms[0], MPI_STATUS_IGNORE);"

let test_wildcard_emission () =
  let c =
    gen
      [
        Event.Recv
          { Event.rel_peer = Siesta_mpi.Call.any_source; tag = Siesta_mpi.Call.any_tag;
            dt = D.Int; count = 1 };
      ]
  in
  check_contains c "MPI_ANY_SOURCE";
  check_contains c "MPI_ANY_TAG"

let test_nonblocking_emission () =
  let c = gen [ Event.Irecv (p2p, 2); Event.Isend (p2p, 0); Event.Waitall [ 0; 2 ] ] in
  check_contains c "&reqs[2]);";
  check_contains c "MPI_Isend(sbuf, 100, MPI_DOUBLE, PEER(3), 7, comms[0], &reqs[0]);";
  (* 0 and 2 are not contiguous: two separate waits *)
  check_contains c "MPI_Wait(&reqs[0], MPI_STATUS_IGNORE);";
  check_contains c "MPI_Wait(&reqs[2], MPI_STATUS_IGNORE);";
  check_contains c "static MPI_Request reqs[3];"

let test_contiguous_waitall_emission () =
  let c = gen [ Event.Irecv (p2p, 0); Event.Irecv (p2p, 1); Event.Waitall [ 1; 0 ] ] in
  check_contains c "MPI_Waitall(2, &reqs[0], MPI_STATUSES_IGNORE);"

let test_alltoallv_emission () =
  let c =
    gen [ Event.Alltoallv { comm = 0; dt = D.Int; send_counts = [| 1; 2; 3; 4 |] } ]
  in
  check_contains c "t_0_counts[] = { 1, 2, 3, 4 };";
  check_contains c "t_0_displs[] = { 0, 1, 3, 6 };";
  check_contains c "MPI_Alltoallv(sbuf,"

let test_collective_emissions () =
  let c =
    gen
      [
        Event.Bcast { comm = 0; root = 2; dt = D.Int; count = 5 };
        Event.Reduce { comm = 0; root = 1; dt = D.Double; count = 3; op = Op.Max };
        Event.Scan { comm = 0; dt = D.Double; count = 2; op = Op.Sum };
      ]
  in
  check_contains c "MPI_Bcast(sbuf, 5, MPI_INT, 2, comms[0]);";
  check_contains c "MPI_Reduce(sbuf, rbuf, 3, MPI_DOUBLE, MPI_MAX, 1, comms[0]);";
  check_contains c "MPI_Scan(sbuf, rbuf, 2, MPI_DOUBLE, MPI_SUM, comms[0]);"

let test_comm_management_emission () =
  let c =
    gen
      [
        Event.Comm_split { comm = 0; color = 1; key = 0; newcomm = 1 };
        Event.Barrier { comm = 1 };
        Event.Comm_free { comm = 1 };
      ]
  in
  check_contains c "MPI_Comm_split(comms[0], 1, 0, &comms[1]);";
  check_contains c "MPI_Barrier(comms[1]);";
  check_contains c "MPI_Comm_free(&comms[1]);";
  check_contains c "static MPI_Comm comms[2];"

let test_compute_function_layout () =
  let c = gen [ Event.Compute 0 ] in
  check_contains c "static void compute_0(void)";
  (* block 1 runs 5 times; block 10 three; block 11 remainder = 0 *)
  check_contains c "for (long r0 = 0; r0 < 5L; r0++)";
  check_contains c "i1 = i2 + i3;";
  check_contains c "for (long r9 = 0; r9 < 3L; r9++);";
  check_contains c "compute_0();"

let test_rank_list_conditions () =
  let t = Event.Barrier { comm = 0 } in
  let entry ranks = { Merged.sym = Grammar.T 0; reps = 1; ranks } in
  let nranks = 8 in
  let all = Rank_list.of_list (List.init nranks Fun.id) in
  let mains =
    Some
      ( [|
          [
            entry all;
            entry (Rank_list.of_list [ 2; 3; 4 ]);
            entry (Rank_list.of_list [ 0; 2; 4; 6 ]);
            entry (Rank_list.of_list [ 1; 5; 6 ]);
            entry (Rank_list.of_list [ 3 ]);
          ];
        |],
        [| all |] )
  in
  let c = gen ~nranks ~mains [ t ] in
  check_contains c "rank >= 2 && rank <= 4";
  check_contains c "rank >= 0 && rank <= 6 && (rank - 0) % 2 == 0";
  check_contains c "in_set(rl_0, 3)";
  check_contains c "static const int rl_0[] = { 1, 5, 6 };";
  check_contains c "rank == 3"

let test_repetition_loops () =
  let t = Event.Barrier { comm = 0 } in
  let all = Rank_list.of_list [ 0; 1 ] in
  let mains = Some ([| [ { Merged.sym = Grammar.T 0; reps = 42; ranks = all } ] |], [| all |]) in
  let c = gen ~nranks:2 ~mains [ t ] in
  check_contains c "for (long k = 0; k < 42L; k++) { t_0(); }"

let test_rule_functions () =
  let t = Event.Barrier { comm = 0 } in
  let all = Rank_list.of_list [ 0; 1 ] in
  let proxy =
    {
      (proxy_of ~nranks:2 [ t ])
      with
      Proxy_ir.merged =
        {
          Merged.nranks = 2;
          terminals = [| t |];
          rules = [| [ { Grammar.sym = Grammar.T 0; reps = 3 } ] |];
          mains = [| [ { Merged.sym = Grammar.N 0; reps = 2; ranks = all } ] |];
          main_ranks = [| all |];
        };
    }
  in
  let c = Codegen_c.generate proxy in
  check_contains c "static void rule_0(void)";
  check_contains c "for (long k = 0; k < 3L; k++) { t_0(); }";
  check_contains c "for (long k = 0; k < 2L; k++) { rule_0(); }"

let test_io_emission () =
  let c =
    gen
      [
        Event.File_open { comm = 0; file = 0 };
        Event.File_write_at { file = 0; dt = D.Double; count = 10 };
        Event.File_close { file = 0 };
      ]
  in
  check_contains c "MPI_File_open(comms[0]";
  check_contains c "MPI_File_write_at(files[0], (MPI_Offset)rank * 80, sbuf, 10, MPI_DOUBLE";
  check_contains c "MPI_File_close(&files[0]);";
  check_contains c "static MPI_File files[1];"

let test_size_guard_in_main () =
  let c = gen ~nranks:4 [ Event.Barrier { comm = 0 } ] in
  check_contains c "if (size != 4)";
  check_contains c "MPI_Abort(MPI_COMM_WORLD, 1);"

let suite =
  [
    ("send/recv statements", `Quick, test_send_recv_emission);
    ("wildcard source and tag", `Quick, test_wildcard_emission);
    ("non-blocking + scattered waitall", `Quick, test_nonblocking_emission);
    ("contiguous waitall", `Quick, test_contiguous_waitall_emission);
    ("alltoallv counts and displacements", `Quick, test_alltoallv_emission);
    ("collective statements", `Quick, test_collective_emissions);
    ("communicator management", `Quick, test_comm_management_emission);
    ("computation function layout", `Quick, test_compute_function_layout);
    ("rank-list branch conditions", `Quick, test_rank_list_conditions);
    ("repetition loops", `Quick, test_repetition_loops);
    ("rule functions", `Quick, test_rule_functions);
    ("MPI-IO statements", `Quick, test_io_emission);
    ("rank-count guard", `Quick, test_size_guard_in_main);
  ]
