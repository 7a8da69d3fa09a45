(* Tests for the static communication-correctness checker (Comm_check):
   zero false positives across the whole registry (regular and serial
   process counts), seeded faults flip the verdict with the right
   counter, the report JSON round-trips, and the engine's finalize
   accounting splits wildcard-prone from truly orphaned messages. *)

module Pipeline = Siesta.Pipeline
module MPipe = Siesta_merge.Pipeline
module Comm_check = Siesta_analysis.Comm_check
module Registry = Siesta_workloads.Registry
module Mpi_impl = Siesta_platform.Mpi_impl
module Json = Siesta_obs.Json
module E = Siesta_mpi.Engine
module D = Siesta_mpi.Datatype
module Call = Siesta_mpi.Call

let platform = Siesta_platform.Spec.platform_a
let impl = Mpi_impl.openmpi

let merged_of w nranks =
  let s = Pipeline.spec ~iters:2 ~workload:w.Registry.name ~nranks () in
  let traced = Pipeline.trace s in
  MPipe.merge_packed (Siesta_trace.Trace_io.pack traced.Pipeline.recorder)

(* Same shrunken counts the workload tests use, so the suite stays fast. *)
let small_nranks w =
  let n = List.hd w.Registry.procs / 4 in
  if w.Registry.valid_procs n then n else 16

(* The acceptance bar: the checker is clean on every registry workload,
   both at a regular process count and in the degenerate serial
   configuration (nranks = 1, which used to raise or self-send). *)
let test_registry_clean () =
  List.iter
    (fun w ->
      List.iter
        (fun nranks ->
          let r = Comm_check.check ~impl (merged_of w nranks) in
          Alcotest.(check (list string))
            (Printf.sprintf "%s@%d clean" w.Registry.name nranks)
            [] r.Comm_check.k_reasons)
        [ small_nranks w; 1 ])
    Registry.all

let violated r =
  match Comm_check.verdict r with Comm_check.Violated _ -> true | Comm_check.Clean -> false

let fault_counter r = function
  | `Mismatch -> r.Comm_check.k_unmatched_sends
  | `Deadlock -> r.Comm_check.k_deadlock_cycles
  | `Collective -> r.Comm_check.k_collective_mismatches

(* Every seeded fault must flip the verdict on every workload, and the
   counter belonging to that fault must be the one that fired. *)
let test_perturbations_flip () =
  List.iter
    (fun w ->
      let m = merged_of w (small_nranks w) in
      List.iter
        (fun (name, fault) ->
          let r = Comm_check.check ~impl (Comm_check.perturb fault m) in
          Alcotest.(check bool)
            (Printf.sprintf "%s --perturb %s violated" w.Registry.name name)
            true (violated r);
          Alcotest.(check bool)
            (Printf.sprintf "%s --perturb %s counter fired" w.Registry.name name)
            true
            (fault_counter r fault > 0))
        Comm_check.fault_names)
    Registry.all

(* The serial edge case again, under fault injection: a self-directed
   rendezvous ring and an out-of-range root must still be caught. *)
let test_perturbations_flip_serial () =
  let m = merged_of (Registry.find "CG") 1 in
  List.iter
    (fun (name, fault) ->
      let r = Comm_check.check ~impl (Comm_check.perturb fault m) in
      Alcotest.(check bool) (Printf.sprintf "serial %s violated" name) true (violated r))
    Comm_check.fault_names

let test_json_roundtrip () =
  let m = merged_of (Registry.find "CG") 16 in
  let reports =
    Comm_check.check ~impl m
    :: List.map
         (fun (_, f) -> Comm_check.check ~impl (Comm_check.perturb f m))
         Comm_check.fault_names
  in
  List.iter
    (fun r ->
      let r' = Comm_check.of_json (Json.parse_exn (Comm_check.to_json r)) in
      Alcotest.(check bool) "report round-trips through Json" true (r = r'))
    reports

let contains_substring ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_fault_of_string () =
  List.iter
    (fun (name, fault) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s parses" name)
        true
        (Comm_check.fault_of_string name = Ok fault))
    Comm_check.fault_names;
  match Comm_check.fault_of_string "bogus" with
  | Ok _ -> Alcotest.fail "bogus token accepted"
  | Error msg ->
      Alcotest.(check bool) "error names the token" true
        (contains_substring ~needle:"bogus" msg)

(* The ranking of recorded check verdicts lives with the regression
   radar (test_ledger's "compare check block"). *)
let test_verdict_names () =
  Alcotest.(check string) "clean name" "clean" (Comm_check.verdict_name Comm_check.Clean);
  Alcotest.(check string) "violated name" "violated"
    (Comm_check.verdict_name (Comm_check.Violated [ "x" ]))

(* Engine finalize accounting: a message stranded at a rank that posted
   wildcard receives is "wildcard-prone" (the structural divergence
   reason must not fire on it); one stranded at a wildcard-free rank is
   truly orphaned. *)
let test_unreceived_split () =
  let run program = E.run ~platform ~impl ~nranks:2 ~seed:1 program in
  let prone =
    run (fun ctx ->
        match E.rank ctx with
        | 0 ->
            E.recv ctx ~src:Call.any_source ~tag:7 ~dt:D.Byte ~count:4
            (* the second tag-7 message is stranded, but rank 0 was
               receiving with a wildcard, so it is only wildcard-prone *)
        | _ ->
            E.send ctx ~dest:0 ~tag:7 ~dt:D.Byte ~count:4;
            E.send ctx ~dest:0 ~tag:7 ~dt:D.Byte ~count:4)
  in
  Alcotest.(check int) "one stranded" 1 prone.E.unreceived_messages;
  Alcotest.(check int) "stranded at a wildcard rank" 1 prone.E.unreceived_wildcard_prone;
  let orphaned =
    run (fun ctx ->
        if E.rank ctx = 1 then E.send ctx ~dest:0 ~tag:9 ~dt:D.Byte ~count:4)
  in
  Alcotest.(check int) "one orphan" 1 orphaned.E.unreceived_messages;
  Alcotest.(check int) "no wildcard posted, truly orphaned" 0
    orphaned.E.unreceived_wildcard_prone

let test_subcomm_world_reasons_silent () =
  (* world-communicator violations keep the historical reason spelling:
     no "comm" suffix, so ledger baselines don't churn *)
  let m = merged_of (Registry.find "CG") 16 in
  let r = Comm_check.check ~impl (Comm_check.perturb `Mismatch m) in
  Alcotest.(check bool) "world reasons unchanged" false
    (List.exists (contains_substring ~needle:"comm") r.Comm_check.k_reasons)

(* qcheck: --perturb fault placement.  A random fault spliced at random
   sites (instead of the default append position) must flip the verdict
   every single time — the checker's guarantees cannot depend on where
   in the main rule the damage lands. *)
let prop_perturb_any_site =
  let m = lazy (merged_of (Registry.find "CG") 16) in
  let gen =
    QCheck.Gen.(
      let* fault = oneofl (List.map snd Comm_check.fault_names) in
      let* sites = array_size (1 -- 4) (0 -- 200) in
      return (fault, sites))
  in
  let print (fault, sites) =
    Printf.sprintf "%s @ [%s]"
      (fst (List.find (fun (_, f) -> f = fault) Comm_check.fault_names))
      (String.concat ";" (Array.to_list (Array.map string_of_int sites)))
  in
  QCheck.Test.make ~count:60 ~name:"random fault at random sites always flips the verdict"
    (QCheck.make ~print gen)
    (fun (fault, sites) ->
      let m = Lazy.force m in
      violated (Comm_check.check ~impl (Comm_check.perturb ~sites fault m)))

let suite =
  [
    ("registry workloads all clean (small + serial)", `Slow, test_registry_clean);
    ("perturbations flip the verdict", `Slow, test_perturbations_flip);
    ("perturbations flip at nranks=1", `Quick, test_perturbations_flip_serial);
    ("report JSON round-trips", `Quick, test_json_roundtrip);
    ("fault tokens parse, unknown rejected", `Quick, test_fault_of_string);
    ("verdict naming", `Quick, test_verdict_names);
    ("finalize splits wildcard-prone from orphaned", `Quick, test_unreceived_split);
    ("world-comm reasons keep legacy spelling", `Slow, test_subcomm_world_reasons_silent);
    QCheck_alcotest.to_alcotest prop_perturb_any_site;
  ]
