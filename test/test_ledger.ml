(* Tests for the persistent run ledger (Siesta_ledger): record
   encode/decode, append/seq assignment, retention gc, emit's gating on
   an explicit store, the regression radar's per-dimension verdicts, the
   trend dashboard's embedded data block, and the records the pipeline
   builds for a front end to append, one per invocation.

   The ledger rides on the content-addressed store, so every test runs
   against a throwaway store root and checks `Store.verify` stays clean
   — a damaged ledger must never look like a damaged cache. *)

module Json = Siesta_obs.Json
module Metrics = Siesta_obs.Metrics
module Run_id = Siesta_obs.Run_id
module Store = Siesta_store.Store
module Codec = Siesta_store.Codec
module Hash = Siesta_store.Hash
module Ledger = Siesta_ledger.Ledger
module Regression = Siesta_ledger.Regression
module Trend_html = Siesta_ledger.Trend_html
module Pipeline = Siesta.Pipeline

(* A fresh, empty store rooted in a temp directory, removed on the way
   out. *)
let with_temp_store f =
  let root = Filename.temp_file "siesta_ledger" ".d" in
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

let check_verify_clean what st =
  let v = Store.verify st in
  Alcotest.(check (list string)) (what ^ ": store verify clean") [] v.Store.v_issues

(* A hand-built record: deterministic fields, no process-state capture,
   so compare tests pin exact numbers. *)
let mk ?(seq = 0) ?(kind = "synth") ?(workload = "CG") ?(nranks = "8")
    ?(timings = [ ("pipeline.trace", 0.10); ("pipeline.merge", 0.20) ]) ?fidelity
    ?(sweep = []) ?check ?(metrics = Json.Obj []) () =
  {
    Ledger.r_schema = Ledger.schema_version;
    r_id = "deadbeefcafe0042";
    r_seq = seq;
    r_kind = kind;
    r_time = 1700000000.25;
    r_git = "testtree";
    r_argv = [ "siesta"; "synth" ];
    r_env = [ ("SIESTA_LOG", "warn") ];
    r_spec = [ ("workload", workload); ("nranks", nranks) ];
    r_cache = [ ("trace", "hit") ];
    r_timings = timings;
    r_sched = [ ("effective", 4.0) ];
    r_heap = [ ("minor_words", 1234.0) ];
    r_metrics = metrics;
    r_fidelity = fidelity;
    r_sweep = sweep;
    r_check = check;
  }

let fid ?(verdict = "faithful") ?(time_error = 0.01) ?(timeline = 0.02) ?(comm = 0.0)
    ?(compute = 0.005) () =
  {
    Ledger.lf_verdict = verdict;
    lf_lossless = true;
    lf_time_error = time_error;
    lf_timeline_distance = timeline;
    lf_comm_matrix_dist = comm;
    lf_max_compute_mean = compute;
  }

(* ------------------------------------------------------------------ *)
(* Encoding *)

let test_encode_decode_roundtrip () =
  (* awkward strings (quotes, backslashes, control chars) and a nested
     metrics snapshot must come back field-for-field identical *)
  let metrics =
    Json.Obj
      [
        ("cache.hits", Json.Obj [ ("type", Json.Str "counter"); ("value", Json.Num 3.0) ]);
        ( "h\"isto\\weird",
          Json.Obj
            [
              ("type", Json.Str "histogram");
              ("buckets", Json.Arr [ Json.Arr [ Json.Num 1.0; Json.Num 2.0 ] ]);
            ] );
      ]
  in
  let r =
    {
      (mk ~seq:7 ~kind:"diff" ~fidelity:(fid ~verdict:"comm-divergent" ()) ~metrics ())
      with
      Ledger.r_argv = [ "siesta"; "diff"; "-w"; "a b\"c" ];
      r_env = [ ("SIESTA_STORE", "/tmp/x\ty") ];
      r_spec = [ ("workload", "CG"); ("nranks", "8"); ("seed", "42") ];
    }
  in
  let r' = Ledger.decode (Ledger.encode r) in
  Alcotest.(check bool) "record round-trips exactly" true (r' = r);
  (* fidelity None encodes as JSON null and decodes back to None *)
  let plain = mk ~seq:1 () in
  let plain' = Ledger.decode (Ledger.encode plain) in
  Alcotest.(check bool) "fidelity None round-trips" true (plain' = plain);
  Alcotest.(check bool) "fidelity is None" true (plain'.Ledger.r_fidelity = None)

let test_decode_refuses_newer_schema () =
  let r = mk () in
  let j = Json.parse_exn (Ledger.encode r) in
  let bumped =
    match j with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) ->
               if k = "ledger_schema" then
                 (k, Json.Num (float_of_int (Ledger.schema_version + 1)))
               else (k, v))
             fields)
    | _ -> Alcotest.fail "encode did not produce an object"
  in
  (match Ledger.decode (Json.to_string bumped) with
  | _ -> Alcotest.fail "newer schema must be refused"
  | exception Failure _ -> ());
  (* unknown extra fields from an additive older-compatible change are
     fine: decoding ignores them *)
  let extended =
    match j with
    | Json.Obj fields -> Json.Obj (fields @ [ ("future_field", Json.Str "x") ])
    | _ -> assert false
  in
  let r' = Ledger.decode (Json.to_string extended) in
  Alcotest.(check bool) "extra fields ignored" true (r' = r)

let test_make_captures_process_state () =
  Metrics.reset ();
  Metrics.set_enabled true;
  Metrics.incr (Metrics.counter "test.counter") 5;
  let r =
    Ledger.make ~kind:"synth"
      ~spec:[ ("workload", "CG") ]
      ~timings:[ ("a", 0.5); ("bad", Float.nan); ("b", 0.25) ]
      ~sched:[ ("x", Float.nan) ]
      ()
  in
  Metrics.set_enabled false;
  Metrics.reset ();
  Alcotest.(check string) "id is the process run id" (Run_id.get ()) r.Ledger.r_id;
  Alcotest.(check int) "seq unassigned until append" 0 r.Ledger.r_seq;
  Alcotest.(check bool) "git describe is non-empty" true (String.length r.Ledger.r_git > 0);
  Alcotest.(check bool) "argv captured" true (List.length r.Ledger.r_argv > 0);
  Alcotest.(check (list (pair string (float 0.0)))) "nan timings dropped"
    [ ("a", 0.5); ("b", 0.25) ]
    r.Ledger.r_timings;
  Alcotest.(check (list (pair string (float 0.0)))) "nan sched dropped" [] r.Ledger.r_sched;
  Alcotest.(check bool) "heap stats captured" true (List.length r.Ledger.r_heap > 0);
  (match Option.bind (Json.member "test.counter" r.Ledger.r_metrics) (Json.member "value") with
  | Some (Json.Num v) -> Alcotest.(check (float 0.0)) "metrics snapshot embedded" 5.0 v
  | _ -> Alcotest.fail "metrics snapshot missing test.counter")

(* ------------------------------------------------------------------ *)
(* Store I/O *)

let test_append_assigns_monotone_seq () =
  with_temp_store @@ fun st ->
  let a = Ledger.append st (mk ~kind:"trace" ()) in
  let b = Ledger.append st (mk ~kind:"synth" ()) in
  let c = Ledger.append st (mk ~kind:"diff" ~fidelity:(fid ()) ()) in
  Alcotest.(check (list int)) "sequence numbers 1,2,3" [ 1; 2; 3 ]
    [ a.Ledger.r_seq; b.Ledger.r_seq; c.Ledger.r_seq ];
  let rs = Ledger.runs st in
  Alcotest.(check (list int)) "runs ordered by seq" [ 1; 2; 3 ]
    (List.map (fun r -> r.Ledger.r_seq) rs);
  Alcotest.(check (list string)) "kinds preserved" [ "trace"; "synth"; "diff" ]
    (List.map (fun r -> r.Ledger.r_kind) rs);
  check_verify_clean "after appends" st

let test_runs_skips_corrupt_record () =
  with_temp_store @@ fun st ->
  let _ = Ledger.append st (mk ()) in
  (* a well-framed blob whose payload is not a ledger document: [runs]
     must warn and skip it, not fail the whole listing *)
  let garbage = Codec.encode_run "this is not json" in
  let hash = Store.put st garbage in
  Store.bind st ~key:(Hash.content_hash "corrupt run")
    ~hash ~kind:Ledger.run_kind ~descr:"run #99 synth id=bad t=0.000000";
  let rs = Ledger.runs st in
  Alcotest.(check int) "only the valid record survives" 1 (List.length rs);
  Alcotest.(check int) "its seq is intact" 1 (List.hd rs).Ledger.r_seq

let test_find_by_seq_and_prefix () =
  with_temp_store @@ fun st ->
  let _ = Ledger.append st (mk ()) in
  let _ = Ledger.append st (mk ()) in
  let by_seq = Ledger.find st "2" in
  Alcotest.(check (option int)) "find by integer seq" (Some 2)
    (Option.map (fun r -> r.Ledger.r_seq) by_seq);
  (* both records share one id; the prefix must resolve to the newest *)
  let by_prefix = Ledger.find st "deadbeef" in
  Alcotest.(check (option int)) "id prefix picks the newest" (Some 2)
    (Option.map (fun r -> r.Ledger.r_seq) by_prefix);
  Alcotest.(check bool) "unknown selector is None" true (Ledger.find st "0123456" = None);
  Alcotest.(check bool) "out-of-range seq is None" true (Ledger.find st "99" = None)

let test_gc_keeps_newest_and_spares_stages () =
  with_temp_store @@ fun st ->
  (* a stage artifact binding sharing the store with the ledger *)
  let stage_blob = Codec.frame ~kind:"trace" "pretend stage payload" in
  let stage_hash = Store.put st stage_blob in
  Store.bind st ~key:(Hash.content_hash "stage key") ~hash:stage_hash ~kind:"trace"
    ~descr:"trace CG n=8";
  for _ = 1 to 5 do
    ignore (Ledger.append st (mk ()))
  done;
  let dropped = Ledger.gc st ~keep:2 in
  Alcotest.(check int) "three dropped" 3 dropped;
  let rs = Ledger.runs st in
  Alcotest.(check (list int)) "newest two kept" [ 4; 5 ]
    (List.map (fun r -> r.Ledger.r_seq) rs);
  (* seq keeps climbing after a prune — no recycled numbers *)
  let next = Ledger.append st (mk ()) in
  Alcotest.(check int) "seq monotone across gc" 6 next.Ledger.r_seq;
  (* the stage binding is untouched and the sweep only reclaims run blobs *)
  let stats = Store.gc st in
  Alcotest.(check bool) "sweep reclaimed pruned run blobs" true (stats.Store.swept > 0);
  Alcotest.(check bool) "stage binding still resolves" true
    (Store.resolve st ~key:(Hash.content_hash "stage key") = Some stage_hash);
  check_verify_clean "after ledger gc + store gc" st;
  Alcotest.(check int) "gc below keep is a no-op" 0 (Ledger.gc st ~keep:100)

let test_emit_sink_gating () =
  with_temp_store @@ fun st ->
  let forced = ref false in
  Ledger.emit None (fun () -> forced := true; mk ());
  Alcotest.(check bool) "thunk never forced without a store" false !forced;
  Ledger.emit (Some st) (fun () -> forced := true; mk ());
  Alcotest.(check bool) "thunk forced with a store" true !forced;
  Alcotest.(check int) "record landed" 1 (List.length (Ledger.runs st));
  (* a raising thunk is logged, not propagated: telemetry must not fail
     the invocation it records *)
  Ledger.emit (Some st) (fun () -> failwith "boom");
  Alcotest.(check int) "failed emission appends nothing" 1 (List.length (Ledger.runs st))

(* ------------------------------------------------------------------ *)
(* Regression radar *)

let test_compare_identical_runs_ok () =
  let base = mk ~seq:1 ~fidelity:(fid ()) () in
  let cur = { (mk ~seq:2 ~fidelity:(fid ()) ()) with Ledger.r_time = 1700000001.0 } in
  let c = Regression.compare_runs ~baseline:base cur in
  Alcotest.(check bool) "identical runs do not regress" false c.Regression.c_regressed;
  Alcotest.(check bool) "verdict dimension present" true
    (List.exists (fun d -> d.Regression.d_name = "verdict") c.Regression.c_dimensions);
  Alcotest.(check bool) "per-stage dimensions present" true
    (List.exists
       (fun d -> d.Regression.d_name = "stage.pipeline.trace")
       c.Regression.c_dimensions)

let test_compare_stage_blowup_regresses () =
  let base = mk ~seq:1 ~timings:[ ("pipeline.merge", 0.10) ] () in
  let blown = mk ~seq:2 ~timings:[ ("pipeline.merge", 0.40) ] () in
  let c = Regression.compare_runs ~baseline:base blown in
  Alcotest.(check bool) "3x blowup over the floor regresses" true c.Regression.c_regressed;
  let dim =
    List.find (fun d -> d.Regression.d_name = "stage.pipeline.merge") c.Regression.c_dimensions
  in
  Alcotest.(check bool) "the stage dimension is the one flagged" true dim.Regression.d_regressed;
  Alcotest.(check bool) "note explains the ratio" true
    (String.length dim.Regression.d_note > 0);
  (* the same ratio under the absolute floor is scheduler noise, not a
     regression: 3x of 1 ms moves 2 ms, below the 50 ms floor *)
  let tiny_base = mk ~seq:1 ~timings:[ ("pipeline.merge", 0.001) ] () in
  let tiny_cur = mk ~seq:2 ~timings:[ ("pipeline.merge", 0.003) ] () in
  let c2 = Regression.compare_runs ~baseline:tiny_base tiny_cur in
  Alcotest.(check bool) "sub-floor blowup is ok" false c2.Regression.c_regressed;
  (* custom thresholds tighten the floor *)
  let strict = { Regression.default with Regression.t_stage_min_s = 0.001 } in
  let c3 = Regression.compare_runs ~thresholds:strict ~baseline:tiny_base tiny_cur in
  Alcotest.(check bool) "tight floor flags it" true c3.Regression.c_regressed

let test_compare_verdict_degradation_regresses () =
  let base = mk ~seq:1 ~kind:"diff" ~fidelity:(fid ~verdict:"faithful" ()) () in
  let cur = mk ~seq:2 ~kind:"diff" ~fidelity:(fid ~verdict:"comm-divergent" ~comm:0.8 ()) () in
  let c = Regression.compare_runs ~baseline:base cur in
  Alcotest.(check bool) "verdict degradation regresses" true c.Regression.c_regressed;
  let vd = List.find (fun d -> d.Regression.d_name = "verdict") c.Regression.c_dimensions in
  Alcotest.(check bool) "verdict dimension flagged" true vd.Regression.d_regressed;
  let cd =
    List.find
      (fun d -> d.Regression.d_name = "fidelity.comm_matrix_dist")
      c.Regression.c_dimensions
  in
  Alcotest.(check bool) "the drifting fidelity number is flagged too" true
    cd.Regression.d_regressed;
  (* the reverse direction (recovery) is not a regression *)
  let back = Regression.compare_runs ~baseline:cur { base with Ledger.r_seq = 3 } in
  Alcotest.(check bool) "verdict recovery is ok" false back.Regression.c_regressed;
  (* a one-sided verdict is informational only *)
  let noverdict = mk ~seq:4 () in
  let c2 = Regression.compare_runs ~baseline:base noverdict in
  Alcotest.(check bool) "missing current verdict never regresses" false
    (List.exists
       (fun d -> d.Regression.d_name = "verdict" && d.Regression.d_regressed)
       c2.Regression.c_dimensions)

let test_compare_metric_watchlist_one_sided () =
  let counter v = Json.Obj [ ("type", Json.Str "counter"); ("value", Json.Num v) ] in
  let base = mk ~seq:1 ~metrics:(Json.Obj [ ("cache.misses", counter 3.0) ]) () in
  let cur = mk ~seq:2 ~metrics:(Json.Obj [ ("cache.hits", counter 3.0) ]) () in
  let c = Regression.compare_runs ~baseline:base cur in
  let metric name =
    List.find_opt (fun d -> d.Regression.d_name = "metric." ^ name) c.Regression.c_dimensions
  in
  (* a cold->warm transition has each counter on only one side; absent
     reads as zero so the delta still tells the story *)
  (match metric "cache.hits" with
  | Some d ->
      Alcotest.(check string) "hits baseline reads 0" "0" d.Regression.d_base;
      Alcotest.(check string) "hits current reads 3" "3" d.Regression.d_cur;
      Alcotest.(check bool) "informational only" false d.Regression.d_regressed
  | None -> Alcotest.fail "one-sided cache.hits dimension missing");
  (match metric "cache.misses" with
  | Some d -> Alcotest.(check string) "misses current reads 0" "0" d.Regression.d_cur
  | None -> Alcotest.fail "one-sided cache.misses dimension missing");
  Alcotest.(check bool) "absent-on-both watchlist metric dropped" true
    (metric "pipeline.traces" = None)

let test_baseline_selection () =
  let rs =
    [
      mk ~seq:1 ~workload:"CG" ();
      mk ~seq:2 ~workload:"FT" ();
      mk ~seq:3 ~workload:"CG" ();
      mk ~seq:4 ~workload:"CG" ~nranks:"16" ();
    ]
  in
  let cur = mk ~seq:5 ~workload:"CG" () in
  (* newest earlier record with the same kind, workload and nranks *)
  Alcotest.(check (option int)) "newest comparable wins" (Some 3)
    (Option.map (fun r -> r.Ledger.r_seq) (Regression.baseline_for rs cur));
  let ft = mk ~seq:5 ~workload:"FT" () in
  Alcotest.(check (option int)) "workload filters" (Some 2)
    (Option.map (fun r -> r.Ledger.r_seq) (Regression.baseline_for rs ft));
  let novel = mk ~seq:5 ~workload:"MG" () in
  Alcotest.(check bool) "no comparable history is None" true
    (Regression.baseline_for rs novel = None);
  (* render is exercised for shape, not pixel-exactness *)
  let c = Regression.compare_runs ~baseline:(mk ~seq:1 ()) (mk ~seq:2 ()) in
  let txt = Regression.render c in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "render mentions %S" needle) true
        (let nh = String.length txt and nn = String.length needle in
         let rec go i = i + nn <= nh && (String.sub txt i nn = needle || go (i + 1)) in
         go 0))
    [ "baseline:"; "current:"; "dimension"; "no regression" ]

(* ------------------------------------------------------------------ *)
(* Trend dashboard *)

let test_trend_html_embeds_valid_json () =
  let records =
    [
      mk ~seq:1 ();
      mk ~seq:2 ~kind:"diff" ~fidelity:(fid ()) ();
      (* awkward content that must be escaped inside the data block *)
      { (mk ~seq:3 ~workload:"</script><b>x" ()) with Ledger.r_git = "v1.0-3-g\"q\"" };
    ]
  in
  let html = Trend_html.render ~title:"t" records in
  let marker = {|<script type="application/json" id="ledger-data">|} in
  let start =
    let nh = String.length html and nn = String.length marker in
    let rec go i =
      if i + nn > nh then Alcotest.fail "ledger-data block missing"
      else if String.sub html i nn = marker then i + nn
      else go (i + 1)
    in
    go 0
  in
  let finish =
    let close = "</script>" in
    let nh = String.length html and nn = String.length close in
    let rec go i =
      if i + nn > nh then Alcotest.fail "ledger-data block unterminated"
      else if String.sub html i nn = close then i
      else go (i + 1)
    in
    go start
  in
  let payload = String.sub html start (finish - start) in
  (* a raw </script> in the data would have ended the block early and
     left invalid JSON here, so parsing doubles as the escaping check *)
  let j = Json.parse_exn payload in
  (match Json.member "runs" j with
  | Some (Json.Arr runs) -> Alcotest.(check int) "all records embedded" 3 (List.length runs)
  | _ -> Alcotest.fail "runs array missing");
  (* write produces the same self-contained document *)
  let path = Filename.temp_file "siesta_trend" ".html" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Trend_html.write ~title:"t" records ~path;
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  close_in ic;
  Alcotest.(check int) "write emits render's bytes" (String.length html) len

(* ------------------------------------------------------------------ *)
(* Store introspection (drives `siesta store ls --long`) *)

let test_store_object_size_and_objects () =
  with_temp_store @@ fun st ->
  let blob = Codec.encode_run "payload for sizing" in
  let hash = Store.put st blob in
  Alcotest.(check (option int)) "object_size is the framed length"
    (Some (String.length blob))
    (Store.object_size st hash);
  Alcotest.(check bool) "absent hash sizes to None" true
    (Store.object_size st "00000000000000000000000000000000" = None);
  let objs = Store.objects st in
  Alcotest.(check bool) "objects lists the unreferenced blob" true
    (List.mem_assoc hash objs);
  Alcotest.(check int) "objects sizes agree with size_bytes"
    (Store.size_bytes st)
    (List.fold_left (fun acc (_, b) -> acc + b) 0 objs)

(* ------------------------------------------------------------------ *)
(* Pipeline integration *)

let test_pipeline_emits_records () =
  with_temp_store @@ fun st ->
  Metrics.reset ();
  Metrics.set_enabled true;
  let s = Pipeline.spec ~iters:3 ~seed:42 ~workload:"CG" ~nranks:8 () in
  let synth () =
    let sy = Pipeline.synthesize_spec ~cache:true ~store:st s in
    Ledger.emit (Some st) (fun () -> Pipeline.ledger_record ~kind:"synth" sy)
  in
  synth ();
  Alcotest.(check int) "the front end appends; the pipeline does not" 1
    (List.length (Ledger.runs st));
  synth ();
  Metrics.set_enabled false;
  Metrics.reset ();
  let synths = List.filter (fun r -> r.Ledger.r_kind = "synth") (Ledger.runs st) in
  Alcotest.(check int) "one synth record per invocation" 2 (List.length synths);
  let cold = List.hd synths and warm = List.nth synths 1 in
  Alcotest.(check (option string)) "cold run recorded a trace miss" (Some "miss")
    (List.assoc_opt "trace" cold.Ledger.r_cache);
  Alcotest.(check (option string)) "warm run recorded a trace hit" (Some "hit")
    (List.assoc_opt "trace" warm.Ledger.r_cache);
  Alcotest.(check (option string)) "spec captured" (Some "CG")
    (List.assoc_opt "workload" warm.Ledger.r_spec);
  Alcotest.(check (option string)) "factor captured" (Some "1")
    (List.assoc_opt "factor" warm.Ledger.r_spec);
  Alcotest.(check (list (pair string string))) "warm stage outcomes, in stage order"
    [ ("trace", "hit"); ("merge", "hit"); ("proxy", "hit") ]
    (List.filter (fun (k, _) -> k <> "root" && k <> "trace_hash") warm.Ledger.r_cache);
  Alcotest.(check bool) "trace hash captured" true
    (List.mem_assoc "trace_hash" warm.Ledger.r_cache);
  Alcotest.(check bool) "timings captured" true (List.length warm.Ledger.r_timings > 0);
  Alcotest.(check bool) "metrics snapshot non-trivial" true
    (warm.Ledger.r_metrics <> Json.Obj []);
  (* the warm record is a valid regression baseline for itself *)
  let c = Regression.compare_runs ~baseline:cold warm in
  Alcotest.(check bool) "warm vs cold compares without regression dims exploding" true
    (List.length c.Regression.c_dimensions > 0);
  check_verify_clean "after pipeline emission" st

let test_diff_emits_fidelity () =
  with_temp_store @@ fun st ->
  let s = Pipeline.spec ~iters:3 ~seed:42 ~workload:"CG" ~nranks:8 () in
  let sy = Pipeline.synthesize_spec s in
  let fid = Pipeline.diff_synthesis sy in
  Ledger.emit (Some st) (fun () -> Pipeline.ledger_record ~kind:"diff" ~diff:(fid, 0.25) sy);
  let diffs = List.filter (fun r -> r.Ledger.r_kind = "diff") (Ledger.runs st) in
  Alcotest.(check int) "diff emitted one record" 1 (List.length diffs);
  let d = List.hd diffs in
  Alcotest.(check (option (float 0.0))) "diff.total is the given wall time" (Some 0.25)
    (List.assoc_opt "diff.total" d.Ledger.r_timings);
  (match d.Ledger.r_check with
  | None -> Alcotest.fail "diff record carries no check block"
  | Some c -> Alcotest.(check string) "check verdict" "clean" c.Ledger.lc_verdict);
  match d.Ledger.r_fidelity with
  | None -> Alcotest.fail "diff record carries no fidelity"
  | Some f ->
      Alcotest.(check bool) "verdict is a known name" true
        (List.mem f.Ledger.lf_verdict [ "faithful"; "compute-divergent"; "comm-divergent" ]);
      Alcotest.(check bool) "time error is finite" true (Float.is_finite f.Ledger.lf_time_error)

let suite =
  [
    Alcotest.test_case "encode/decode roundtrip" `Quick test_encode_decode_roundtrip;
    Alcotest.test_case "decode refuses newer schema" `Quick test_decode_refuses_newer_schema;
    Alcotest.test_case "make captures process state" `Quick test_make_captures_process_state;
    Alcotest.test_case "append assigns monotone seq" `Quick test_append_assigns_monotone_seq;
    Alcotest.test_case "runs skips corrupt record" `Quick test_runs_skips_corrupt_record;
    Alcotest.test_case "find by seq and prefix" `Quick test_find_by_seq_and_prefix;
    Alcotest.test_case "gc keeps newest, spares stages" `Quick
      test_gc_keeps_newest_and_spares_stages;
    Alcotest.test_case "emit sink gating" `Quick test_emit_sink_gating;
    Alcotest.test_case "compare identical runs ok" `Quick test_compare_identical_runs_ok;
    Alcotest.test_case "compare stage blowup" `Quick test_compare_stage_blowup_regresses;
    Alcotest.test_case "compare verdict degradation" `Quick
      test_compare_verdict_degradation_regresses;
    Alcotest.test_case "compare metric watchlist" `Quick
      test_compare_metric_watchlist_one_sided;
    Alcotest.test_case "baseline selection and render" `Quick test_baseline_selection;
    Alcotest.test_case "trend html embeds valid json" `Quick test_trend_html_embeds_valid_json;
    Alcotest.test_case "store object sizes" `Quick test_store_object_size_and_objects;
    Alcotest.test_case "pipeline emits records" `Slow test_pipeline_emits_records;
    Alcotest.test_case "diff emits fidelity" `Slow test_diff_emits_fidelity;
  ]
