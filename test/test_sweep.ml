(* Tests for the fidelity-sweep observatory (Siesta_sweep): factor
   schedule parsing, the factor-aware verdict, the schema-v2 ledger
   sweep record, the curve-regression dimensions, the sweep dashboard's
   embedded data block, and Sweep.run end to end with the one record a
   front end appends per invocation (Sweep.record). *)

module Json = Siesta_obs.Json
module Metrics = Siesta_obs.Metrics
module Counters = Siesta_perf.Counters
module Store = Siesta_store.Store
module Ledger = Siesta_ledger.Ledger
module Regression = Siesta_ledger.Regression
module Divergence = Siesta_analysis.Divergence
module Sweep = Siesta_sweep.Sweep
module Sweep_html = Siesta_sweep.Sweep_html
module Pipeline = Siesta.Pipeline

let with_temp_store f =
  let root = Filename.temp_file "siesta_sweep" ".d" in
  Sys.remove root;
  let st = Store.open_ ~root () in
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ();
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
          Unix.rmdir p
        end
        else Sys.remove p
      in
      if Sys.file_exists root then rm root)
    (fun () -> f st)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Factor schedule parsing *)

let test_parse_factors_valid () =
  Alcotest.(check bool) "plain schedule" true
    (Sweep.parse_factors "1,2,4" = Ok [ 1.0; 2.0; 4.0 ]);
  Alcotest.(check bool) "spaces tolerated" true
    (Sweep.parse_factors " 1, 2 ,8 " = Ok [ 1.0; 2.0; 8.0 ]);
  Alcotest.(check bool) "non-integer factors allowed" true
    (Sweep.parse_factors "1.5,3" = Ok [ 1.5; 3.0 ]);
  Alcotest.(check bool) "single factor" true (Sweep.parse_factors "4" = Ok [ 4.0 ])

let test_parse_factors_rejects_naming_token () =
  let err s =
    match Sweep.parse_factors s with
    | Error msg -> msg
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S must be rejected" s)
  in
  Alcotest.(check bool) "zero named" true (contains (err "1,0,2") "\"0\"");
  Alcotest.(check bool) "negative named" true (contains (err "-3") "\"-3\"");
  Alcotest.(check bool) "nan is not positive" true (contains (err "nan") "not positive");
  Alcotest.(check bool) "junk named" true (contains (err "1,two,4") "\"two\"");
  Alcotest.(check bool) "empty token named" true (contains (err "1,,4") "\"\"");
  Alcotest.(check bool) "duplicate named" true (contains (err "1,2,2") "\"2\" repeats");
  Alcotest.(check bool) "out of order named" true
    (contains (err "4,2") "\"2\" is out of order");
  Alcotest.(check bool) "empty list" true (err "" = "empty factor list")

(* ------------------------------------------------------------------ *)
(* Factor-aware verdicts *)

(* A hand-built report: only the knobs the verdict logic reads. *)
let mk_report ?(count_delta = 0) ?(bytes_delta = 0) ?(unreceived = 0)
    ?(ranks_differ = false) ?(mean = 0.0) () =
  let lossless =
    count_delta = 0 && bytes_delta = 0 && unreceived = 0 && not ranks_differ
  in
  {
    Divergence.r_nranks = 8;
    r_call_stats =
      [
        {
          Divergence.cs_name = "send";
          cs_count_orig = 4;
          cs_count_proxy = 4 + count_delta;
          cs_bytes_orig = 1024;
          cs_bytes_proxy = 1024 + bytes_delta;
        };
      ];
    r_comm_matrix_dist = (if bytes_delta = 0 then 0.0 else 0.1);
    r_lossless = lossless;
    r_reasons = (if lossless then [] else [ "synthetic delta" ]);
    r_count_delta = abs count_delta;
    r_bytes_delta = abs bytes_delta;
    r_unreceived_delta = unreceived;
    (* the hand-built report has no wildcard recvs, so every unreceived
       leftover is a provably orphaned send *)
    r_orphaned_delta = unreceived;
    r_ranks_differ = ranks_differ;
    r_compute_errors =
      [
        {
          Divergence.me_metric = Counters.INS;
          me_mean = mean;
          me_p95 = mean;
          me_max = mean;
          me_events = 16;
        };
      ];
    r_compute_unpaired = 0;
    r_timeline_distance = 0.0;
    r_time_orig = 1.0;
    r_time_proxy = 1.0;
    r_time_error = 0.0;
  }

let verdict_kind = Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (Divergence.verdict_name v))
    (fun a b -> Divergence.verdict_name a = Divergence.verdict_name b)

let test_verdict_at_factor_semantics () =
  (* byte-only deltas: fatal at factor 1, the shrink working as
     specified at factor > 1 *)
  let bytes_only = mk_report ~bytes_delta:512 () in
  Alcotest.check verdict_kind "factor 1 keeps the strict verdict"
    (Divergence.Comm_divergent []) (Divergence.verdict_at ~factor:1.0 bytes_only);
  Alcotest.check verdict_kind "factor 2 absorbs byte deltas" Divergence.Faithful
    (Divergence.verdict_at ~factor:2.0 bytes_only);
  Alcotest.(check bool) "byte deltas are not structural" true
    (Divergence.structural_lossless bytes_only);
  (* structural violations stay fatal at every factor *)
  let counts = mk_report ~count_delta:1 () in
  Alcotest.check verdict_kind "count delta is comm-divergent at factor 4"
    (Divergence.Comm_divergent []) (Divergence.verdict_at ~factor:4.0 counts);
  Alcotest.(check bool) "count delta names the call" true
    (List.exists (fun s -> contains s "send count") (Divergence.structural_reasons counts));
  let unrecv = mk_report ~unreceived:2 () in
  Alcotest.check verdict_kind "unreceived delta is comm-divergent"
    (Divergence.Comm_divergent []) (Divergence.verdict_at ~factor:8.0 unrecv);
  (* compute bound is on the excess over the expected shrink error
     1 - 1/factor: at factor 2 (expected 0.5, tolerance 0.5) a mean of
     0.9 passes and 1.2 does not *)
  Alcotest.check verdict_kind "shrink-proportional error is faithful" Divergence.Faithful
    (Divergence.verdict_at ~factor:2.0 (mk_report ~mean:0.9 ()));
  Alcotest.check verdict_kind "excess compute error is divergent"
    (Divergence.Compute_divergent "")
    (Divergence.verdict_at ~factor:2.0 (mk_report ~mean:1.2 ()));
  (* the same 0.9 mean at factor 1 is plain compute divergence *)
  Alcotest.check verdict_kind "factor 1 uses the unshifted bound"
    (Divergence.Compute_divergent "")
    (Divergence.verdict_at ~factor:1.0 (mk_report ~mean:0.9 ()))

let test_verdict_rank_ordering () =
  let r = Ledger.verdict_rank in
  Alcotest.(check bool) "faithful < compute-divergent" true
    (r "faithful" < r "compute-divergent");
  Alcotest.(check bool) "compute-divergent < comm-divergent" true
    (r "compute-divergent" < r "comm-divergent");
  Alcotest.(check bool) "comm-divergent < unknown" true (r "comm-divergent" < r "gibberish")

(* ------------------------------------------------------------------ *)
(* Ledger sweep records (schema v2) *)

let fid ?(verdict = "faithful") ?(time_error = 0.01) () =
  {
    Ledger.lf_verdict = verdict;
    lf_lossless = true;
    lf_time_error = time_error;
    lf_timeline_distance = 0.02;
    lf_comm_matrix_dist = 0.0;
    lf_max_compute_mean = 0.005;
  }

let sp ?(factor = 2.0) ?(verdict = "faithful") ?(time_error = 0.01) () =
  {
    Ledger.sp_factor = factor;
    sp_fidelity = fid ~verdict ~time_error ();
    sp_count_delta = 0.0;
    sp_bytes_delta = 54926464.0;
    sp_compute_p95 = 0.51;
    sp_compute_max = 0.52;
    sp_proxy_bytes = 1204.0;
    sp_search_s = 0.003;
    sp_total_s = 0.01;
    sp_cache = [ ("trace", "hit"); ("merge", "hit"); ("proxy", "miss") ];
  }

let mk_sweep_record ?(seq = 1) points =
  {
    Ledger.r_schema = Ledger.schema_version;
    r_id = "deadbeefcafe0042";
    r_seq = seq;
    r_kind = "sweep";
    r_time = 1700000000.25;
    r_git = "testtree";
    r_argv = [ "siesta"; "sweep" ];
    r_env = [];
    r_spec = [ ("workload", "CG"); ("nranks", "8"); ("factors", "1,2,4") ];
    r_cache = [];
    r_timings = [ ("sweep.total", 0.04) ];
    r_sched = [];
    r_heap = [];
    r_metrics = Json.Obj [];
    r_fidelity = None;
    r_sweep = points;
    r_check = None;
  }

let test_sweep_record_roundtrip () =
  let r =
    mk_sweep_record
      [ sp ~factor:1.0 (); sp ~factor:2.0 (); sp ~factor:4.0 ~verdict:"comm-divergent" () ]
  in
  let r' = Ledger.decode (Ledger.encode r) in
  Alcotest.(check bool) "sweep record round-trips exactly" true (r' = r);
  (* a pre-v2 record has no "sweep" field: decode as an empty curve *)
  let stripped =
    match Json.parse_exn (Ledger.encode r) with
    | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> k <> "sweep") fields)
    | _ -> Alcotest.fail "encode did not produce an object"
  in
  let v1 = Ledger.decode (Json.to_string stripped) in
  Alcotest.(check bool) "missing sweep field decodes to []" true (v1.Ledger.r_sweep = [])

(* ------------------------------------------------------------------ *)
(* Curve-regression dimensions *)

let test_sweep_curve_regression () =
  let base = mk_sweep_record ~seq:1 [ sp ~factor:1.0 (); sp ~factor:2.0 () ] in
  (* identical curves: the per-factor dimensions exist and stay green *)
  let same = mk_sweep_record ~seq:2 [ sp ~factor:1.0 (); sp ~factor:2.0 () ] in
  let c = Regression.compare_runs ~baseline:base same in
  Alcotest.(check bool) "identical curves do not regress" false c.Regression.c_regressed;
  Alcotest.(check bool) "per-factor dimensions present" true
    (List.exists (fun d -> d.Regression.d_name = "sweep.f2") c.Regression.c_dimensions);
  (* a degraded fidelity measure at one factor trips only that factor *)
  let worse =
    mk_sweep_record ~seq:3 [ sp ~factor:1.0 (); sp ~factor:2.0 ~time_error:0.40 () ]
  in
  let c = Regression.compare_runs ~baseline:base worse in
  Alcotest.(check bool) "degraded point regresses the comparison" true
    c.Regression.c_regressed;
  let f2 = List.find (fun d -> d.Regression.d_name = "sweep.f2") c.Regression.c_dimensions in
  Alcotest.(check bool) "sweep.f2 flagged" true f2.Regression.d_regressed;
  Alcotest.(check bool) "note names the degraded measure" true
    (contains f2.Regression.d_note "time_error");
  let f1 = List.find (fun d -> d.Regression.d_name = "sweep.f1") c.Regression.c_dimensions in
  Alcotest.(check bool) "untouched factor stays green" false f1.Regression.d_regressed;
  (* verdict-rank worsening regresses even with steady error numbers *)
  let divergent =
    mk_sweep_record ~seq:4 [ sp ~factor:1.0 (); sp ~factor:2.0 ~verdict:"comm-divergent" () ]
  in
  let c = Regression.compare_runs ~baseline:base divergent in
  let f2 = List.find (fun d -> d.Regression.d_name = "sweep.f2") c.Regression.c_dimensions in
  Alcotest.(check bool) "verdict worsening flagged" true f2.Regression.d_regressed;
  (* improvement is not a regression; one-sided factors are
     informational only *)
  let c = Regression.compare_runs ~baseline:worse { same with Ledger.r_seq = 5 } in
  Alcotest.(check bool) "recovery is ok" false c.Regression.c_regressed;
  let extended =
    mk_sweep_record ~seq:6
      [ sp ~factor:1.0 (); sp ~factor:2.0 (); sp ~factor:4.0 ~verdict:"comm-divergent" () ]
  in
  let c = Regression.compare_runs ~baseline:base extended in
  let f4 = List.find (fun d -> d.Regression.d_name = "sweep.f4") c.Regression.c_dimensions in
  Alcotest.(check bool) "factor absent from baseline never regresses" false
    f4.Regression.d_regressed;
  Alcotest.(check bool) "one-sided note explains itself" true
    (contains f4.Regression.d_note "not in baseline");
  (* records without curves contribute no sweep dimensions *)
  let plain = { (mk_sweep_record ~seq:7 []) with Ledger.r_kind = "synth" } in
  let c = Regression.compare_runs ~baseline:plain { plain with Ledger.r_seq = 8 } in
  Alcotest.(check bool) "no curves, no sweep dims" false
    (List.exists
       (fun d -> contains d.Regression.d_name "sweep.f")
       c.Regression.c_dimensions)

let test_comparison_to_json () =
  let base = mk_sweep_record ~seq:1 [ sp ~factor:2.0 () ] in
  let cur = mk_sweep_record ~seq:2 [ sp ~factor:2.0 ~time_error:0.40 () ] in
  let c = Regression.compare_runs ~baseline:base cur in
  let j = Json.parse_exn (Regression.to_json c) in
  (match Json.member "regressed" j with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail "regressed flag missing or false");
  match Json.member "dimensions" j with
  | Some (Json.Arr dims) ->
      let f2 =
        List.find_opt
          (fun d -> Json.member "name" d = Some (Json.Str "sweep.f2"))
          dims
      in
      (match f2 with
      | Some d ->
          Alcotest.(check bool) "dimension carries regressed bool" true
            (Json.member "regressed" d = Some (Json.Bool true))
      | None -> Alcotest.fail "sweep.f2 dimension missing from JSON")
  | _ -> Alcotest.fail "dimensions array missing"

(* ------------------------------------------------------------------ *)
(* End-to-end: Sweep.run *)

let test_sweep_run_end_to_end () =
  with_temp_store @@ fun st ->
  let s = Pipeline.spec ~iters:3 ~seed:42 ~workload:"CG" ~nranks:8 () in
  let factors = [ 1.0; 2.0 ] in
  let sweep ?perturb () =
    let t = Sweep.run ~store:st ?perturb ~factors s in
    Ledger.emit (Some st) (fun () -> Sweep.record t);
    t
  in
  let cold = sweep () in
  let warm = sweep () in
  (* one "sweep" record per invocation: the per-factor syntheses and
     diffs append nothing *)
  let rs = Ledger.runs st in
  Alcotest.(check int) "exactly two records" 2 (List.length rs);
  Alcotest.(check (list string)) "both are sweep records" [ "sweep"; "sweep" ]
    (List.map (fun r -> r.Ledger.r_kind) rs);
  List.iter
    (fun r ->
      Alcotest.(check int) "curve has one point per factor" (List.length factors)
        (List.length r.Ledger.r_sweep);
      Alcotest.(check (list (float 0.0))) "point factors match the schedule" factors
        (List.map (fun p -> p.Ledger.sp_factor) r.Ledger.r_sweep);
      Alcotest.(check (option string)) "factors stamped into the spec" (Some "1,2")
        (List.assoc_opt "factors" r.Ledger.r_spec))
    rs;
  (* the warm sweep replays every stage from cache with the same curve *)
  List.iter
    (fun (p : Ledger.sweep_point) ->
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "factor %g warm point all hits" p.Ledger.sp_factor)
        [ ("trace", "hit"); ("merge", "hit"); ("proxy", "hit") ]
        p.Ledger.sp_cache)
    warm.Sweep.s_points;
  List.iter2
    (fun (c : Ledger.sweep_point) (w : Ledger.sweep_point) ->
      Alcotest.(check (float 0.0)) "warm curve equals cold curve"
        c.Ledger.sp_fidelity.Ledger.lf_time_error w.Ledger.sp_fidelity.Ledger.lf_time_error;
      Alcotest.(check (float 0.0)) "warm proxy bytes equal cold" c.Ledger.sp_proxy_bytes
        w.Ledger.sp_proxy_bytes)
    cold.Sweep.s_points warm.Sweep.s_points;
  (* the record carries the points the sweep measured, unconverted *)
  (match Ledger.runs st with
  | [ r_cold; r_warm ] ->
      Alcotest.(check bool) "cold record holds the cold points" true
        (r_cold.Ledger.r_sweep = cold.Sweep.s_points);
      Alcotest.(check bool) "warm record holds the warm points" true
        (r_warm.Ledger.r_sweep = warm.Sweep.s_points)
  | rs -> Alcotest.fail (Printf.sprintf "expected 2 records, got %d" (List.length rs)));
  Alcotest.(check (list (float 0.0))) "seed workload never comm-divergent" []
    (Sweep.comm_divergent warm);
  (* a comm (byte-level) perturbation is fatal at factor 1, where the
     strict verdict applies, and absorbed at factor > 1 where byte
     deltas are the shrink working as specified; its record still trips
     the curve-regression gate against the clean baseline through the
     factor-1 verdict worsening *)
  let bad = sweep ~perturb:`Comm () in
  Alcotest.(check (list (float 0.0))) "perturbed sweep comm-divergent at factor 1 only"
    [ 1.0 ]
    (Sweep.comm_divergent bad);
  (match Ledger.runs st with
  | [ clean_base; _; perturbed ] ->
      let c = Regression.compare_runs ~baseline:clean_base perturbed in
      Alcotest.(check bool) "perturbed curve regresses" true c.Regression.c_regressed;
      Alcotest.(check bool) "a sweep.f dimension is the one flagged" true
        (List.exists
           (fun d -> contains d.Regression.d_name "sweep.f" && d.Regression.d_regressed)
           c.Regression.c_dimensions)
  | rs -> Alcotest.fail (Printf.sprintf "expected 3 records, got %d" (List.length rs)));
  (* empty schedules are a programming error, not a silent no-op *)
  match Sweep.run ~factors:[] s with
  | _ -> Alcotest.fail "empty schedule must raise"
  | exception Invalid_argument _ -> ()

let test_sweep_html_embeds_valid_json () =
  with_temp_store @@ fun st ->
  let s = Pipeline.spec ~iters:3 ~seed:42 ~workload:"CG" ~nranks:8 () in
  let t = Sweep.run ~store:st ~factors:[ 1.0; 2.0 ] s in
  let html = Sweep_html.render ~title:"t" t in
  let marker = {|<script type="application/json" id="sweep-data">|} in
  let start =
    let nh = String.length html and nn = String.length marker in
    let rec go i =
      if i + nn > nh then Alcotest.fail "sweep-data block missing"
      else if String.sub html i nn = marker then i + nn
      else go (i + 1)
    in
    go 0
  in
  let finish =
    let close = "</script>" in
    let nh = String.length html and nn = String.length close in
    let rec go i =
      if i + nn > nh then Alcotest.fail "sweep-data block unterminated"
      else if String.sub html i nn = close then i
      else go (i + 1)
    in
    go start
  in
  let j = Json.parse_exn (String.sub html start (finish - start)) in
  (match Json.member "points" j with
  | Some (Json.Arr pts) -> Alcotest.(check int) "both points embedded" 2 (List.length pts)
  | _ -> Alcotest.fail "points array missing");
  match Json.member "factors" j with
  | Some (Json.Arr _) -> ()
  | _ -> Alcotest.fail "factors array missing"

(* The report prints the ledger's own tables: its History lists a sweep
   record as a curve summary (Ledger.runs_table), and its "Fidelity vs
   factor" section is Ledger.sweep_table of the newest sweep record. *)
let test_report_prints_ledger_tables () =
  with_temp_store @@ fun st ->
  let s = Pipeline.spec ~iters:3 ~seed:42 ~workload:"CG" ~nranks:8 () in
  let record =
    Ledger.append st
      (mk_sweep_record
         [ sp ~factor:1.0 (); sp ~factor:2.0 ~verdict:"compute-divergent" (); sp ~factor:4.0 () ])
  in
  let sy = Pipeline.synthesize_spec ~store:st s in
  let timeline = fst (Pipeline.record_timeline s) in
  let md = Siesta.Report.generate ~timeline ~fidelity:(Pipeline.diff_synthesis sy) sy in
  Alcotest.(check bool) "History summarizes the curve" true
    (contains md "3-factor sweep, worst compute-divergent");
  Alcotest.(check bool) "History is Ledger.runs_table" true
    (contains md (Ledger.runs_table [ record ]));
  Alcotest.(check bool) "the sweep section is Ledger.sweep_table" true
    (contains md
       (Printf.sprintf "## Fidelity vs factor (sweep #%d)\n\n```\n%s```\n" record.Ledger.r_seq
          (Ledger.sweep_table record.Ledger.r_sweep)));
  Alcotest.(check bool) "factors are spelled shortest" true
    (contains (Ledger.sweep_table [ sp ~factor:1.5 () ]) "\n1.5 ")

let suite =
  [
    Alcotest.test_case "parse factors: valid schedules" `Quick test_parse_factors_valid;
    Alcotest.test_case "parse factors: rejects name the token" `Quick
      test_parse_factors_rejects_naming_token;
    Alcotest.test_case "verdict_at factor semantics" `Quick test_verdict_at_factor_semantics;
    Alcotest.test_case "verdict rank ordering" `Quick test_verdict_rank_ordering;
    Alcotest.test_case "sweep record roundtrip" `Quick test_sweep_record_roundtrip;
    Alcotest.test_case "sweep curve regression dims" `Quick test_sweep_curve_regression;
    Alcotest.test_case "comparison to_json" `Quick test_comparison_to_json;
    Alcotest.test_case "sweep run end to end" `Slow test_sweep_run_end_to_end;
    Alcotest.test_case "sweep html embeds valid json" `Slow test_sweep_html_embeds_valid_json;
    Alcotest.test_case "report prints the ledger tables" `Slow test_report_prints_ledger_tables;
  ]
