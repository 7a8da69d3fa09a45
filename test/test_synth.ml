(* Tests for siesta_synth: the proxy-search QP, shrinking, the proxy IR
   replay, and the C code generator. *)

module Proxy_search = Siesta_synth.Proxy_search
module Shrink = Siesta_synth.Shrink
module Proxy_ir = Siesta_synth.Proxy_ir
module Codegen_c = Siesta_synth.Codegen_c
module Block = Siesta_blocks.Block
module Counters = Siesta_perf.Counters
module K = Siesta_perf.Kernel
module Spec = Siesta_platform.Spec
module Impl = Siesta_platform.Mpi_impl
module E = Siesta_mpi.Engine
module D = Siesta_mpi.Datatype
module Recorder = Siesta_trace.Recorder
module Event = Siesta_trace.Event
module Rng = Siesta_util.Rng

let platform = Spec.platform_a
let impl = Impl.openmpi

(* ------------------------------------------------------------------ *)
(* Proxy_search *)

let test_search_feasible_targets_near_exact () =
  let rng = Rng.create 61 in
  for _ = 1 to 50 do
    let x = Array.init 11 (fun _ -> float_of_int (Rng.int rng 5000)) in
    let s = ref 0.0 in
    for j = 0 to 8 do
      s := !s +. x.(j)
    done;
    x.(10) <- !s +. float_of_int (Rng.int rng 5000);
    let target = Proxy_search.predict ~platform ~x in
    if target.Counters.ins > 0.0 then begin
      let sol = Proxy_search.search ~platform target in
      if sol.Proxy_search.error > 0.01 then
        Alcotest.failf "feasible target missed by %.3f%%" (100.0 *. sol.Proxy_search.error)
    end
  done

let test_search_solution_feasible () =
  let targets =
    [
      K.streaming ~label:"a" ~flops:1e6 ~bytes:8e6;
      K.streaming ~label:"b" ~flops:1e8 ~bytes:1e8;
      K.compute_bound ~label:"c" ~flops:5e5 ~div_frac:0.05;
      K.compute_bound ~label:"d" ~flops:1e4 ~div_frac:0.0;
    ]
  in
  List.iter
    (fun k ->
      let target = Counters.of_work platform.Spec.cpu (K.to_work k) in
      let sol = Proxy_search.search ~platform target in
      (match Block.validate_combination sol.Proxy_search.x with
      | Ok () -> ()
      | Error e -> Alcotest.failf "infeasible combination: %s" e);
      Array.iter
        (fun v ->
          if Float.rem v 1.0 <> 0.0 then Alcotest.failf "non-integer repetition %f" v)
        sol.Proxy_search.x)
    targets

let test_search_realistic_kernels_accurate () =
  let k = K.streaming ~label:"halo" ~flops:2e6 ~bytes:1.6e7 in
  let target = Counters.of_work platform.Spec.cpu (K.to_work k) in
  let sol = Proxy_search.search ~platform target in
  Alcotest.(check bool) "under 10% on six metrics" true (sol.Proxy_search.error < 0.10)

let test_search_rejects_zero_target () =
  Alcotest.check_raises "all-zero" (Invalid_argument "Proxy_search.search: all-zero target")
    (fun () -> ignore (Proxy_search.search ~platform Counters.zero))

let test_search_without_constraint () =
  let target =
    Counters.of_work platform.Spec.cpu
      (K.to_work (K.compute_bound ~label:"c" ~flops:1e6 ~div_frac:0.01))
  in
  let sol = Proxy_search.search ~loop_constraint:false ~platform target in
  (* without the constraint the continuous optimum is at least as good *)
  let with_c = Proxy_search.search ~platform target in
  Alcotest.(check bool) "unconstrained objective no worse" true
    (sol.Proxy_search.objective <= with_c.Proxy_search.objective +. 1e-9)

let test_predict_cross_platform () =
  let x = Array.make 11 100.0 in
  x.(10) <- 2000.0;
  let a = Proxy_search.predict ~platform:Spec.platform_a ~x in
  let b = Proxy_search.predict ~platform:Spec.platform_b ~x in
  Alcotest.(check (float 1e-6)) "same instructions" a.Counters.ins b.Counters.ins;
  Alcotest.(check bool) "more cycles on the Phi" true (b.Counters.cyc > a.Counters.cyc)

(* ------------------------------------------------------------------ *)
(* Shrink *)

let test_shrink_identity () =
  let t = Shrink.identity in
  Alcotest.(check (float 1e-9)) "factor 1" 1.0 (Shrink.factor t);
  Alcotest.(check int) "counts unchanged" 1234 (Shrink.shrink_count t ~dt:D.Double 1234);
  let c = Counters.of_array [| 6.0; 5.0; 4.0; 3.0; 2.0; 1.0 |] in
  Alcotest.(check bool) "counters unchanged" true (Shrink.shrink_counters t c = c)

let test_shrink_reduces_volume () =
  let t = Shrink.fit ~platform ~impl ~factor:10.0 in
  let big = Shrink.shrink_count t ~dt:D.Double 1_000_000 in
  Alcotest.(check bool) "volume reduced" true (big < 1_000_000);
  Alcotest.(check bool) "volume nonnegative" true (big >= 0);
  (* roughly: time(v')/time(v) ~ 1/10 for bandwidth-dominated volumes *)
  let t_orig =
    E.estimate_p2p_seconds ~platform ~impl ~same_node:false ~bytes:8_000_000
  in
  let t_shrunk =
    E.estimate_p2p_seconds ~platform ~impl ~same_node:false ~bytes:(8 * big)
  in
  Alcotest.(check bool) "time near 1/10" true
    (t_shrunk /. t_orig > 0.03 && t_shrunk /. t_orig < 0.35)

let test_shrink_counters_divide () =
  let t = Shrink.fit ~platform ~impl ~factor:4.0 in
  let c = Counters.of_array [| 8.0; 8.0; 8.0; 8.0; 8.0; 8.0 |] in
  let s = Shrink.shrink_counters t c in
  Alcotest.(check (float 1e-9)) "divided" 2.0 s.Counters.ins

let test_shrink_monotone () =
  let t = Shrink.fit ~platform ~impl ~factor:10.0 in
  let a = Shrink.shrink_count t ~dt:D.Double 10_000 in
  let b = Shrink.shrink_count t ~dt:D.Double 100_000 in
  Alcotest.(check bool) "monotone" true (b >= a)

let test_shrink_regression_quality () =
  let t = Shrink.fit ~platform ~impl ~factor:10.0 in
  let reg = Shrink.regression t in
  Alcotest.(check bool) "positive slope" true (reg.Siesta_numerics.Linreg.slope > 0.0)

let test_shrink_rejects_small_factor () =
  Alcotest.check_raises "factor < 1" (Invalid_argument "Shrink.fit: factor must be >= 1")
    (fun () -> ignore (Shrink.fit ~platform ~impl ~factor:0.5))

(* qcheck: the replay's count rule.  Isend, Irecv, Ibcast and
   Iallreduce keep their counts; every other count goes through
   [shrink_count]; at factor 1 the event is returned as it is. *)
let prop_shrink_event =
  let t8 = lazy (Shrink.fit ~platform ~impl ~factor:8.0) in
  QCheck.Test.make ~count:1000 ~name:"shrink: event keeps non-blocking counts, shrinks the rest"
    (QCheck.make ~print:Event.to_key Test_trace.random_event_gen)
    (fun ev ->
      let t = Lazy.force t8 in
      Shrink.event Shrink.identity ev == ev
      &&
      match ev with
      | Event.Isend _ | Event.Irecv _ | Event.Ibcast _ | Event.Iallreduce _ ->
          Shrink.event t ev = ev
      | _ -> Shrink.event t ev = Event.map_counts (fun dt c -> Shrink.shrink_count t ~dt c) ev)

(* ------------------------------------------------------------------ *)
(* Proxy_ir + replay *)

let trace_program ?(nranks = 8) program =
  let recorder = Recorder.create ~nranks () in
  let original = E.run ~platform ~impl ~nranks program in
  ignore (E.run ~platform ~impl ~nranks ~hook:(Recorder.hook recorder) program);
  (original, recorder)

let exchange_program ctx =
  let r = E.rank ctx and n = E.size ctx in
  let sub = E.comm_split ctx (E.comm_world ctx) ~color:(r mod 2) ~key:r in
  for _ = 1 to 5 do
    E.compute ctx (K.streaming ~label:"k" ~flops:1e6 ~bytes:8e6);
    let rq = E.irecv ctx ~src:((r + n - 1) mod n) ~tag:1 ~dt:D.Double ~count:600 in
    let sq = E.isend ctx ~dest:((r + 1) mod n) ~tag:1 ~dt:D.Double ~count:600 in
    E.waitall ctx [ rq; sq ];
    (* a blocking pair as well, so the codegen covers Send/Recv *)
    if r = 0 then E.send ctx ~dest:1 ~tag:2 ~dt:D.Int ~count:4
    else if r = 1 then E.recv ctx ~src:0 ~tag:2 ~dt:D.Int ~count:4;
    E.allreduce ctx sub ~dt:D.Double ~count:2 ~op:Siesta_mpi.Op.Sum;
    E.alltoallv ctx (E.comm_world ctx) ~dt:D.Int ~send_counts:(Array.make n 3);
    E.scan ctx (E.comm_world ctx) ~dt:D.Double ~count:2 ~op:Siesta_mpi.Op.Sum;
    E.reduce_scatter ctx (E.comm_world ctx) ~dt:D.Double ~count:4 ~op:Siesta_mpi.Op.Sum
  done;
  E.comm_free ctx sub

let synthesize ?factor recorder =
  let merged = Siesta_merge.Pipeline.merge_packed (Siesta_trace.Trace_io.pack recorder) in
  Proxy_ir.synthesize ~platform ~impl ?factor ~merged
    ~compute_table:(Recorder.compute_table recorder) ()

let test_replay_runs_and_matches_time () =
  let original, recorder = trace_program exchange_program in
  let ir = synthesize recorder in
  let replayed = E.run ~platform ~impl ~nranks:8 (Proxy_ir.program ir) in
  let err =
    abs_float (replayed.E.elapsed -. original.E.elapsed) /. original.E.elapsed
  in
  Alcotest.(check bool) (Printf.sprintf "time error %.2f%% < 10%%" (100.0 *. err)) true
    (err < 0.10)

let test_replay_communication_lossless () =
  (* the paper's central claim: tracing the proxy yields the same
     communication event sequence as tracing the original *)
  let _, recorder = trace_program exchange_program in
  let ir = synthesize recorder in
  let recorder2 = Recorder.create ~nranks:8 () in
  ignore (E.run ~platform ~impl ~nranks:8 ~hook:(Recorder.hook recorder2) (Proxy_ir.program ir));
  let comm_keys r rank =
    Recorder.events r rank |> Array.to_list
    |> List.filter (fun e -> not (Siesta_trace.Event.is_compute e))
    |> List.map Siesta_trace.Event.to_key
  in
  for rank = 0 to 7 do
    Alcotest.(check (list string))
      (Printf.sprintf "rank %d" rank)
      (comm_keys recorder rank) (comm_keys recorder2 rank)
  done

let test_replay_counters_close () =
  let original, recorder = trace_program exchange_program in
  let ir = synthesize recorder in
  let replayed = E.run ~platform ~impl ~nranks:8 (Proxy_ir.program ir) in
  for r = 0 to 7 do
    let e =
      Counters.mean_relative_error ~actual:replayed.E.per_rank_counters.(r)
        ~reference:original.E.per_rank_counters.(r)
    in
    if e > 0.10 then Alcotest.failf "rank %d counter error %.2f%%" r (100.0 *. e)
  done

let test_scaled_replay_faster_but_accurate () =
  let original, recorder = trace_program exchange_program in
  let ir = synthesize ~factor:10.0 recorder in
  let replayed = E.run ~platform ~impl ~nranks:8 (Proxy_ir.program ir) in
  Alcotest.(check bool) "raw proxy much faster" true
    (replayed.E.elapsed < 0.4 *. original.E.elapsed);
  let est = 10.0 *. replayed.E.elapsed in
  let err = abs_float (est -. original.E.elapsed) /. original.E.elapsed in
  Alcotest.(check bool) (Printf.sprintf "estimate error %.1f%%" (100.0 *. err)) true (err < 0.25)

let test_size_c_accounting () =
  let _, recorder = trace_program exchange_program in
  let ir = synthesize recorder in
  let merged_bytes = Siesta_merge.Merged.serialized_bytes ir.Proxy_ir.merged in
  Alcotest.(check bool) "size_C >= grammar" true (Proxy_ir.size_c_bytes ir >= merged_bytes);
  let reqs, comms, _ = Proxy_ir.slot_counts ir in
  Alcotest.(check bool) "slot bounds sane" true (reqs >= 1 && comms >= 2)

(* ------------------------------------------------------------------ *)
(* Codegen_c *)

let generated () =
  let _, recorder = trace_program exchange_program in
  let ir = synthesize recorder in
  Codegen_c.generate ir

let test_codegen_contains_structure () =
  let c = generated () in
  let contains sub =
    let n = String.length c and m = String.length sub in
    let rec go i = i + m <= n && (String.sub c i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun marker ->
      Alcotest.(check bool) marker true (contains marker))
    [
      "#include <mpi.h>";
      "MPI_Init";
      "MPI_Finalize";
      "MPI_Isend";
      "MPI_Send(";
      "MPI_Recv(";
      "MPI_Waitall";
      "MPI_Allreduce";
      "MPI_Alltoallv";
      "MPI_Scan";
      "MPI_Reduce_scatter_block";
      "MPI_Comm_split";
      "MPI_Comm_free";
      "compute_0";
      "PEER(";
      "int main(int argc, char **argv)";
    ]

let test_codegen_balanced_braces () =
  let c = generated () in
  let depth = ref 0 in
  String.iter
    (fun ch ->
      if ch = '{' then incr depth
      else if ch = '}' then begin
        decr depth;
        if !depth < 0 then Alcotest.fail "negative brace depth"
      end)
    c;
  Alcotest.(check int) "balanced" 0 !depth

(* find the repository's stub/mpi.h by walking up from the test cwd *)
let rec find_stub dir depth =
  if depth > 8 then None
  else begin
    let candidate = Filename.concat dir "stub/mpi.h" in
    if Sys.file_exists candidate then Some (Filename.concat dir "stub")
    else find_stub (Filename.dirname dir) (depth + 1)
  end

let test_codegen_gcc_syntax () =
  (* the shipped stub mpi.h lets gcc type-check the proxy *)
  match (Sys.command "which gcc > /dev/null 2>&1", find_stub (Sys.getcwd ()) 0) with
  | 0, Some stub ->
      let path = Filename.temp_file "siesta_proxy" ".c" in
      let oc = open_out path in
      output_string oc (generated ());
      close_out oc;
      let cmd = Printf.sprintf "gcc -fsyntax-only -I%s %s 2>/dev/null" stub path in
      let rc = Sys.command cmd in
      Sys.remove path;
      Alcotest.(check int) "gcc accepts the proxy" 0 rc
  | _ -> ()

let test_codegen_bundle () =
  let _, recorder = trace_program exchange_program in
  let ir = synthesize recorder in
  let dir = Filename.temp_file "siesta_bundle" "" in
  Sys.remove dir;
  Codegen_c.write_bundle ir ~dir ~name:"proxy";
  List.iter
    (fun f ->
      Alcotest.(check bool) f true (Sys.file_exists (Filename.concat dir f)))
    [ "proxy.c"; "Makefile"; "README" ];
  let mk = In_channel.with_open_text (Filename.concat dir "Makefile") In_channel.input_all in
  let contains needle =
    let n = String.length mk and m = String.length needle in
    let rec go i = i + m <= n && (String.sub mk i m = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mpicc rule" true (contains "$(MPICC) $(CFLAGS) -o proxy proxy.c");
  Alcotest.(check bool) "NP preset" true (contains "NP ?= 8");
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let test_codegen_write_file () =
  let _, recorder = trace_program exchange_program in
  let ir = synthesize recorder in
  let path = Filename.temp_file "siesta" ".c" in
  Codegen_c.write_file ir ~path;
  let ic = open_in path in
  let size = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "non-empty file" true (size > 1000)

let suite =
  [
    ("search: feasible targets near exact", `Quick, test_search_feasible_targets_near_exact);
    ("search: solutions integral and feasible", `Quick, test_search_solution_feasible);
    ("search: realistic kernels accurate", `Quick, test_search_realistic_kernels_accurate);
    ("search: zero target rejected", `Quick, test_search_rejects_zero_target);
    ("search: constraint relaxation helps objective", `Quick, test_search_without_constraint);
    ("predict re-prices across platforms", `Quick, test_predict_cross_platform);
    ("shrink: identity", `Quick, test_shrink_identity);
    ("shrink: reduces communication volume", `Quick, test_shrink_reduces_volume);
    ("shrink: divides counters", `Quick, test_shrink_counters_divide);
    ("shrink: monotone in volume", `Quick, test_shrink_monotone);
    ("shrink: regression sane", `Quick, test_shrink_regression_quality);
    ("shrink: rejects factor < 1", `Quick, test_shrink_rejects_small_factor);
    QCheck_alcotest.to_alcotest prop_shrink_event;
    ("replay: runs and matches time", `Quick, test_replay_runs_and_matches_time);
    ("replay: communication lossless", `Quick, test_replay_communication_lossless);
    ("replay: counters close", `Quick, test_replay_counters_close);
    ("replay: scaled proxy faster and accurate", `Quick, test_scaled_replay_faster_but_accurate);
    ("size_C accounting", `Quick, test_size_c_accounting);
    ("codegen: structural markers", `Quick, test_codegen_contains_structure);
    ("codegen: balanced braces", `Quick, test_codegen_balanced_braces);
    ("codegen: gcc syntax check", `Quick, test_codegen_gcc_syntax);
    ("codegen: write_file", `Quick, test_codegen_write_file);
    ("codegen: bundle with Makefile", `Quick, test_codegen_bundle);
  ]
