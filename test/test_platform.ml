(* Tests for siesta_platform: CPU cycle model, network, MPI profiles. *)

open Siesta_platform

let cpu = Spec.platform_a.Spec.cpu

let work ?(ins = 0.0) ?(loads = 0.0) ?(stores = 0.0) ?(branches = 0.0) ?(msp = 0.0) ?(l1 = 0.0)
    ?(div = 0.0) ?(ws = 1024.0) () : Cpu.work =
  {
    ins;
    loads;
    stores;
    branches;
    mispredicts = msp;
    l1_misses = l1;
    div_ops = div;
    working_set_bytes = ws;
  }

let test_cycles_issue_bound () =
  (* pure instructions: bounded by issue width *)
  let c = Cpu.cycles cpu (work ~ins:400.0 ()) in
  Alcotest.(check (float 1e-9)) "ins/width" (400.0 /. cpu.Cpu.issue_width) c

let test_cycles_lsu_bound () =
  (* load/store heavy: the LSU, not the issue width, is the bottleneck *)
  let w = work ~ins:100.0 ~loads:80.0 ~stores:20.0 () in
  Alcotest.(check (float 1e-9)) "lst/ports" (100.0 /. cpu.Cpu.lsu_ports) (Cpu.cycles cpu w)

let test_cycles_divide_latency () =
  let base = Cpu.cycles cpu (work ~ins:10.0 ()) in
  let with_div = Cpu.cycles cpu (work ~ins:10.0 ~div:3.0 ()) in
  Alcotest.(check (float 1e-9)) "3 divides" (3.0 *. cpu.Cpu.div_latency) (with_div -. base)

let test_cycles_mispredict_penalty () =
  let base = Cpu.cycles cpu (work ~ins:10.0 ~branches:5.0 ()) in
  let w = Cpu.cycles cpu (work ~ins:10.0 ~branches:5.0 ~msp:2.0 ()) in
  Alcotest.(check (float 1e-9)) "2 mispredicts" (2.0 *. cpu.Cpu.branch_penalty) (w -. base)

let test_cycles_miss_penalty_depends_on_working_set () =
  let small = Cpu.cycles cpu (work ~ins:10.0 ~l1:4.0 ~ws:(float_of_int (cpu.Cpu.l2_kb * 1024)) ()) in
  let large = Cpu.cycles cpu (work ~ins:10.0 ~l1:4.0 ~ws:1e9 ()) in
  Alcotest.(check bool) "memory misses cost more than L2 hits" true (large > small);
  Alcotest.(check (float 1e-9)) "delta = 4 * (mem - l2)"
    (4.0 *. (cpu.Cpu.mem_penalty -. cpu.Cpu.l2_hit_penalty))
    (large -. small)

let test_cycles_linear_under_scaling () =
  (* the additive-pricing property the proxy search depends on *)
  let w = work ~ins:100.0 ~loads:30.0 ~stores:10.0 ~branches:20.0 ~msp:2.0 ~l1:5.0 ~div:1.0 () in
  let c1 = Cpu.cycles cpu w in
  let c7 = Cpu.cycles cpu (Cpu.scale_work 7.0 w) in
  Alcotest.(check (float 1e-6)) "7x work = 7x cycles" (7.0 *. c1) c7

let test_seconds_frequency () =
  let w = work ~ins:1000.0 () in
  let a = Cpu.seconds Spec.platform_a.Spec.cpu w in
  let b = Cpu.seconds Spec.platform_b.Spec.cpu w in
  (* B: 1.3 GHz and narrower issue; must be slower than A at 2.5 GHz *)
  Alcotest.(check bool) "phi slower on pure compute" true (b > a)

let test_work_algebra () =
  let a = work ~ins:5.0 ~loads:2.0 ~ws:100.0 () in
  let b = work ~ins:3.0 ~loads:1.0 ~ws:500.0 () in
  let c = Cpu.add_work a b in
  Alcotest.(check (float 1e-9)) "ins adds" 8.0 c.Cpu.ins;
  Alcotest.(check (float 1e-9)) "working set maxes" 500.0 c.Cpu.working_set_bytes;
  let z = Cpu.add_work Cpu.zero_work a in
  Alcotest.(check (float 1e-9)) "zero is neutral on ins" a.Cpu.ins z.Cpu.ins

let test_network_transfer_time () =
  let net = Spec.platform_a.Spec.network in
  let t0 = Network.transfer_time net ~same_node:false ~bytes:0 in
  Alcotest.(check (float 1e-12)) "latency only" net.Network.inter_latency_s t0;
  let t1 = Network.transfer_time net ~same_node:false ~bytes:1_000_000 in
  Alcotest.(check bool) "bandwidth term" true (t1 > t0);
  let intra = Network.transfer_time net ~same_node:true ~bytes:0 in
  Alcotest.(check bool) "intra faster" true (intra < t0)

let test_impl_lookup () =
  let name = Result.map (fun i -> i.Mpi_impl.name) in
  Alcotest.(check (result string string)) "openmpi" (Ok "openmpi")
    (name (Mpi_impl.by_name "openmpi"));
  Alcotest.(check (result string string)) "case folded" (Ok "mpich")
    (name (Mpi_impl.by_name "MPICH"));
  Alcotest.(check int) "three impls" 3 (List.length Mpi_impl.all);
  Alcotest.(check (result string string)) "unknown"
    (Error "unknown MPI implementation \"lam\" (openmpi, mpich, mvapich)")
    (name (Mpi_impl.by_name "lam"))

let test_impl_distinct_profiles () =
  let thresholds = List.map (fun i -> i.Mpi_impl.eager_threshold_bytes) Mpi_impl.all in
  Alcotest.(check int) "distinct eager thresholds" 3
    (List.length (List.sort_uniq compare thresholds))

let test_spec_lookup_and_nodes () =
  let name = Result.map (fun p -> p.Spec.name) in
  Alcotest.(check (result string string)) "A" (Ok "A") (name (Spec.by_name "A"));
  Alcotest.(check (result string string)) "case folded" (Ok "B") (name (Spec.by_name "b"));
  Alcotest.(check (result string string)) "unknown"
    (Error "unknown platform \"Z\" (A, B or C)")
    (name (Spec.by_name "Z"));
  Alcotest.(check int) "three platforms" 3 (List.length Spec.all);
  let p = Spec.platform_a in
  Alcotest.(check int) "rank 0 node" 0 (Spec.node_of_rank p 0);
  Alcotest.(check int) "rank 40 node" 1 (Spec.node_of_rank p 40);
  Alcotest.(check bool) "same node" true (Spec.same_node p 0 39);
  Alcotest.(check bool) "cross node" false (Spec.same_node p 39 40)

let test_table2_values () =
  (* spot-check the paper's Table 2 entries *)
  Alcotest.(check (float 1e-9)) "A freq" 2.5 Spec.platform_a.Spec.cpu.Cpu.frequency_ghz;
  Alcotest.(check (float 1e-9)) "B freq" 1.3 Spec.platform_b.Spec.cpu.Cpu.frequency_ghz;
  Alcotest.(check int) "A L2" 1024 Spec.platform_a.Spec.cpu.Cpu.l2_kb;
  Alcotest.(check int) "B cores/node" 64 Spec.platform_b.Spec.cores_per_node;
  Alcotest.(check int) "C cores/node" 28 Spec.platform_c.Spec.cores_per_node;
  Alcotest.(check string) "C network" "None" Spec.platform_c.Spec.network.Network.name;
  List.iter
    (fun p -> Alcotest.(check int) "L1 32KB everywhere" 32 p.Spec.cpu.Cpu.l1_kb)
    Spec.all

let suite =
  [
    ("cycles: issue-width bound", `Quick, test_cycles_issue_bound);
    ("cycles: load/store bound", `Quick, test_cycles_lsu_bound);
    ("cycles: divide latency", `Quick, test_cycles_divide_latency);
    ("cycles: mispredict penalty", `Quick, test_cycles_mispredict_penalty);
    ("cycles: miss penalty follows working set", `Quick, test_cycles_miss_penalty_depends_on_working_set);
    ("cycles: linear under scaling", `Quick, test_cycles_linear_under_scaling);
    ("seconds: frequency matters", `Quick, test_seconds_frequency);
    ("work algebra", `Quick, test_work_algebra);
    ("network transfer time", `Quick, test_network_transfer_time);
    ("mpi impl lookup", `Quick, test_impl_lookup);
    ("mpi impl profiles distinct", `Quick, test_impl_distinct_profiles);
    ("platform lookup and node mapping", `Quick, test_spec_lookup_and_nodes);
    ("table 2 values", `Quick, test_table2_values);
  ]
