open Perf_bench
module Json = Siesta_obs.Json

let close = Alcotest.float 1e-6

(* A hand-built Chrome trace with the two traps of the pipeline's spans:
   the merge stage wrapped twice under one name, and pool chunk spans on
   the main track and on a worker track. *)
let trace =
  {|{"traceEvents": [
  {"name": "thread_name", "cat": "__metadata", "ph": "M", "tid": 0, "args": {"name": "main"}},
  {"name": "bench.setup", "cat": "bench", "ph": "X", "tid": 0, "ts": 0.0, "dur": 50.0},
  {"name": "merge", "cat": "pipeline", "ph": "X", "tid": 0, "ts": 10.0, "dur": 30.0},
  {"name": "parallel.chunk", "cat": "parallel", "ph": "X", "tid": 0, "ts": 125.0, "dur": 10.0},
  {"name": "merge.mains", "cat": "merge", "ph": "X", "tid": 0, "ts": 120.0, "dur": 40.0},
  {"name": "merge", "cat": "pipeline", "ph": "X", "tid": 0, "ts": 110.5, "dur": 79.0},
  {"name": "merge", "cat": "pipeline", "ph": "X", "tid": 0, "ts": 110.0, "dur": 80.0},
  {"name": "parallel.chunk", "cat": "parallel", "ph": "X", "tid": 1, "ts": 120.0, "dur": 40.0},
  {"name": "merge.sequitur", "cat": "merge", "ph": "X", "tid": 1, "ts": 121.0, "dur": 5.0},
  {"name": "codegen", "cat": "pipeline", "ph": "X", "tid": 0, "ts": 190.0, "dur": 9.0},
  {"name": "bench.op", "cat": "bench", "ph": "X", "tid": 0, "ts": 100.0, "dur": 100.0}
]}|}

let breakdown () = Accounting.breakdown (Accounting.spans_of_chrome (Json.parse_exn trace))

let self name b = Option.value ~default:0.0 (List.assoc_opt name b.Accounting.self_us)

let test_self_time () =
  let b = breakdown () in
  Alcotest.(check int) "one op" 1 b.ops;
  Alcotest.check close "op duration" 100.0 b.op_us;
  (* outer wrapper 80 - 79 + inner 79 - 40: counted once *)
  Alcotest.check close "merge self" 40.0 (self "merge" b);
  (* the main-track chunk is transparent, the worker track is not read *)
  Alcotest.check close "mains self" 40.0 (self "merge.mains" b);
  Alcotest.check close "no chunk entry" 0.0 (self "parallel.chunk" b);
  Alcotest.check close "worker track ignored" 0.0 (self "merge.sequitur" b);
  Alcotest.check close "codegen" 9.0 (self "codegen" b);
  Alcotest.check close "op's own time" 11.0 (self "bench.op" b);
  Alcotest.check close "spans outside ops ignored" 0.0 (self "bench.setup" b)

let test_layers_sum_to_op () =
  let l = Accounting.layer_seconds (breakdown ()) in
  let get k = List.assoc k l in
  Alcotest.check close "op.s" 100e-6 (get "op.s");
  Alcotest.check close "merge.s" 40e-6 (get "merge.s");
  Alcotest.check close "unattributed" 11e-6 (get "op.unattributed_s");
  let parts = List.fold_left (fun acc (k, v) -> if k = "op.s" then acc else acc +. v) 0.0 l in
  Alcotest.check close "layers + unattributed = op" (get "op.s") parts

let test_tail_rule () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  let pct n = Option.map fst (Stats.tail (xs n)) in
  Alcotest.(check (option (float 0.0))) "19 samples: none" None (pct 19);
  Alcotest.(check (option (float 0.0))) "20 samples: p50" (Some 50.0) (pct 20);
  Alcotest.(check (option (float 0.0))) "99 samples: p50" (Some 50.0) (pct 99);
  Alcotest.(check (option (float 0.0))) "100 samples: p90" (Some 90.0) (pct 100);
  Alcotest.(check (option (float 0.0))) "1000 samples: p99" (Some 99.0) (pct 1000)

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (10 - i))) in
  Alcotest.check close "q1" 2.75 q1;
  Alcotest.check close "q2" 5.5 q2;
  Alcotest.check close "q3" 8.25 q3;
  Alcotest.check close "median" 5.5 (Stats.median (List.init 10 (fun i -> float_of_int (i + 1))))

(* A BENCHMARK.json built from the catalog itself, then damaged. *)
let doc ?(e2e = Catalog.end_to_end) ?(bound = fun _ -> 0.1) () =
  let metric ~bounded (m : Catalog.metric) =
    Json.Obj
      ([ ("name", Json.Str m.name); ("unit", Json.Str m.unit_); ("better", Json.Str m.better) ]
      @
      if bounded then [ ("bound", Json.Num (if m.name = "setup_s" then 0.2 else bound m)) ]
      else [])
  in
  Json.Obj
    [
      ("command", Json.Arr [ Json.Str "dune"; Json.Str "exec" ]);
      ("paths", Json.Arr [ Json.Str "bench/perf" ]);
      ("run_seconds", Json.Num 10.0);
      ( "workloads",
        Json.Arr
          (List.map
             (fun n -> Json.Obj [ ("name", Json.Str n); ("why", Json.Str "because") ])
             Catalog.workloads) );
      ("end_to_end", Json.Arr (List.map (metric ~bounded:true) e2e));
      ("per_layer", Json.Arr (List.map (metric ~bounded:false) Catalog.per_layer));
    ]

let test_validate () =
  let errors d = List.length (Catalog.validate d) in
  Alcotest.(check (list string)) "catalog's own declaration" [] (Catalog.validate (doc ()));
  Alcotest.(check int) "missing metric" 1 (errors (doc ~e2e:(List.tl Catalog.end_to_end) ()));
  Alcotest.(check int) "extra metric" 1
    (errors (doc ~e2e:(Catalog.end_to_end @ [ Catalog.m "made_up_s" "s" "lower" ]) ()));
  Alcotest.(check bool) "bound above 0.25" true
    (errors (doc ~bound:(fun m -> if m.name = "proxy_bytes" then 0.5 else 0.1) ()) > 0);
  let bad_unit =
    List.map (fun (m : Catalog.metric) -> { m with unit_ = "m s" }) Catalog.end_to_end
  in
  Alcotest.(check bool) "malformed unit" true (errors (doc ~e2e:bad_unit ()) > 0);
  Alcotest.(check int) "setup_s needs the largest bound" 1 (errors (doc ~bound:(fun _ -> 0.25) ()))

let () =
  Alcotest.run "perf_bench"
    [
      ( "accounting",
        [
          Alcotest.test_case "self time by containment" `Quick test_self_time;
          Alcotest.test_case "layers sum to the op" `Quick test_layers_sum_to_op;
        ] );
      ( "stats",
        [
          Alcotest.test_case "highest percentile with ten beyond" `Quick test_tail_rule;
          Alcotest.test_case "quartiles as Python's" `Quick test_quartiles;
        ] );
      ("catalog", [ Alcotest.test_case "BENCHMARK.json validation" `Quick test_validate ]);
    ]
