(* Tests for the Siesta_obs telemetry layer: the monotonic clock, the
   in-tree JSON parser, Chrome-trace spans (nesting, ordering,
   well-formedness, the zero-events-when-disabled guarantee), the
   metrics registry (bucket boundaries, concurrent counter increments),
   the leveled logger's filtering, and an end-to-end pipeline smoke that
   exercises the same path as `siesta synth --trace-out`.

   The obs layer is process-global state (that is the point: any module
   can instrument itself without plumbing), so every test restores the
   disabled/empty default on the way out — alcotest runs cases
   sequentially, which makes this sound. *)

module Clock = Siesta_obs.Clock
module Json = Siesta_obs.Json
module Span = Siesta_obs.Span
module Metrics = Siesta_obs.Metrics
module Log = Siesta_obs.Log
module Pipeline = Siesta.Pipeline
module Codegen = Siesta_synth.Codegen_c

(* Leave the global obs state as the rest of the suite expects it:
   everything off and empty. *)
let quiesce () =
  Span.set_enabled false;
  Span.reset ();
  Metrics.set_enabled false;
  Metrics.reset ();
  Log.set_sink_stderr ();
  Log.set_level Log.Warn

let protecting f () = Fun.protect ~finally:quiesce f

let tmp_path suffix =
  Filename.temp_file "siesta_obs_test" suffix

(* naive substring search — keeps the test free of Str *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Clock *)

let test_clock_monotonic () =
  let prev = ref (Clock.now_s ()) in
  for _ = 1 to 10_000 do
    let t = Clock.now_s () in
    if t < !prev then Alcotest.failf "clock ran backwards: %.9f < %.9f" t !prev;
    prev := t
  done;
  let (), dt = Clock.wall (fun () -> ignore (Sys.opaque_identity (Array.make 1000 0.))) in
  Alcotest.(check bool) "wall elapsed >= 0" true (dt >= 0.0);
  let us = Clock.now_us () and s = Clock.now_s () in
  Alcotest.(check bool) "us and s agree to within 1s" true (abs_float ((us /. 1e6) -. s) < 1.0)

(* ------------------------------------------------------------------ *)
(* JSON parser *)

let test_json_roundtrip () =
  let doc = {|{"a": [1, -2.5, 1e3], "b": "x\"y\nA", "c": {"t": true, "n": null}}|} in
  match Json.parse doc with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j -> (
      (match Json.member "a" j with
      | Some a ->
          let nums = List.filter_map Json.to_float_opt (Json.to_list a) in
          Alcotest.(check (list (float 1e-9))) "array" [ 1.0; -2.5; 1000.0 ] nums
      | None -> Alcotest.fail "missing a");
      match Json.member "b" j with
      | Some b ->
          Alcotest.(check (option string)) "escapes decoded" (Some "x\"y\nA") (Json.to_string_opt b)
      | None -> Alcotest.fail "missing b")

let test_json_escape_parses_back () =
  let nasty = "a\"b\\c\nd\te\r \x01 end" in
  let doc = Printf.sprintf "{\"k\": \"%s\"}" (Json.escape nasty) in
  let j = Json.parse_exn doc in
  Alcotest.(check (option string))
    "escape . parse = id" (Some nasty)
    (Option.bind (Json.member "k" j) Json.to_string_opt)

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted invalid JSON: %s" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "{} trailing"; "[1 2]" ]

(* ------------------------------------------------------------------ *)
(* Spans *)

(* Pull the complete ("X") events back out of the Chrome JSON. *)
let complete_events json =
  let j = Json.parse_exn json in
  let events =
    match Json.member "traceEvents" j with
    | Some a -> Json.to_list a
    | None -> Alcotest.fail "no traceEvents array"
  in
  List.filter_map
    (fun e ->
      match Json.member "ph" e with
      | Some ph when Json.to_string_opt ph = Some "X" ->
          let str k = Option.bind (Json.member k e) Json.to_string_opt in
          let num k = Option.bind (Json.member k e) Json.to_float_opt in
          let get o = match o with Some v -> v | None -> Alcotest.fail "malformed event" in
          Some
            ( get (str "name"),
              Option.value (str "cat") ~default:"",
              get (num "ts"),
              get (num "dur"),
              get (num "tid") )
      | _ -> None)
    events

let test_span_disabled_records_nothing () =
  Span.set_enabled false;
  Span.reset ();
  Span.with_ "invisible" (fun () -> ());
  Span.instant "also-invisible";
  Alcotest.(check int) "no events when disabled" 0 (Span.event_count ());
  (* an empty trace must still be a valid document *)
  let j = Json.parse_exn (Span.to_chrome_json ()) in
  Alcotest.(check bool) "empty trace parses" true (Json.member "traceEvents" j <> None)

let test_span_nesting_and_ordering () =
  Span.reset ();
  Span.set_enabled true;
  Span.with_ ~cat:"test" "outer" (fun () ->
      Span.with_ ~cat:"test" "inner1" (fun () -> ignore (Sys.opaque_identity (Clock.now_s ())));
      Span.with_ ~cat:"test" "inner2" (fun () -> ignore (Sys.opaque_identity (Clock.now_s ()))));
  Span.set_enabled false;
  let evs = complete_events (Span.to_chrome_json ()) in
  let find n =
    match List.find_opt (fun (name, _, _, _, _) -> name = n) evs with
    | Some e -> e
    | None -> Alcotest.failf "span %s missing" n
  in
  let _, _, ots, odur, otid = find "outer" in
  let _, _, i1ts, i1dur, i1tid = find "inner1" in
  let _, _, i2ts, i2dur, i2tid = find "inner2" in
  Alcotest.(check bool) "same track" true (otid = i1tid && otid = i2tid);
  (* the Chrome viewer infers nesting from enclosure on one tid.  The
     serializer rounds ts and dur independently to 3 decimals (1 ns), so
     the parsed-back endpoints can disagree by up to ~1.5 ns; allow 2 ns
     of rounding slop. *)
  let eps = 2e-3 (* µs *) in
  let encloses (ts, dur) (ts', dur') =
    ts -. eps <= ts' && ts' +. dur' <= ts +. dur +. eps
  in
  Alcotest.(check bool) "outer encloses inner1" true (encloses (ots, odur) (i1ts, i1dur));
  Alcotest.(check bool) "outer encloses inner2" true (encloses (ots, odur) (i2ts, i2dur));
  Alcotest.(check bool) "inner1 before inner2" true (i1ts +. i1dur <= i2ts +. eps);
  Alcotest.(check bool) "durations non-negative" true (odur >= 0.0 && i1dur >= 0.0 && i2dur >= 0.0)

let test_span_survives_exceptions () =
  Span.reset ();
  Span.set_enabled true;
  (try Span.with_ "raiser" (fun () -> failwith "boom") with Failure _ -> ());
  Span.set_enabled false;
  let evs = complete_events (Span.to_chrome_json ()) in
  Alcotest.(check bool) "span recorded despite raise" true
    (List.exists (fun (n, _, _, _, _) -> n = "raiser") evs)

let test_span_chrome_json_shape () =
  Span.reset ();
  Span.set_enabled true;
  Span.with_ ~attrs:[ ("answer", "42") ] "shaped" (fun () -> ());
  Span.instant "marker";
  Span.set_enabled false;
  let j = Json.parse_exn (Span.to_chrome_json ()) in
  let events = Json.to_list (Option.get (Json.member "traceEvents" j)) in
  (* every event carries the mandatory keys, and thread metadata exists *)
  let phs =
    List.map
      (fun e ->
        let ph = Option.get (Json.to_string_opt (Option.get (Json.member "ph" e))) in
        (* metadata events carry no timestamp; everything else must *)
        let mandatory = if ph = "M" then [ "name"; "ph"; "pid"; "tid" ]
                        else [ "name"; "ph"; "ts"; "pid"; "tid" ] in
        List.iter
          (fun k ->
            if Json.member k e = None then Alcotest.failf "%s event missing %S" ph k)
          mandatory;
        ph)
      events
  in
  Alcotest.(check bool) "has complete event" true (List.mem "X" phs);
  Alcotest.(check bool) "has instant event" true (List.mem "i" phs);
  Alcotest.(check bool) "has thread_name metadata" true (List.mem "M" phs);
  let shaped =
    List.find
      (fun e -> Json.member "name" e |> Option.get |> Json.to_string_opt = Some "shaped")
      events
  in
  Alcotest.(check (option string))
    "args preserved" (Some "42")
    (Option.bind (Json.member "args" shaped) (fun a ->
         Option.bind (Json.member "answer" a) Json.to_string_opt))

(* ------------------------------------------------------------------ *)
(* Histogram buckets *)

let test_histogram_bucket_boundaries () =
  let module H = Metrics.Histo in
  (* upper bounds are inclusive: a value equal to a bucket's upper bound
     lands in that bucket, a hair above lands in the next *)
  for i = 0 to H.nbuckets - 2 do
    let ub = H.bucket_upper i in
    if Float.is_finite ub then begin
      Alcotest.(check int) (Printf.sprintf "ub(%d) inclusive" i) i (H.bucket_index ub);
      Alcotest.(check bool)
        (Printf.sprintf "just above ub(%d) escalates" i)
        true
        (H.bucket_index (ub *. 1.0001) > i)
    end
  done;
  (* underflow and overflow *)
  Alcotest.(check int) "zero -> underflow" 0 (H.bucket_index 0.0);
  Alcotest.(check int) "tiny -> underflow" 0 (H.bucket_index 1e-12);
  Alcotest.(check int) "huge -> overflow" (H.nbuckets - 1) (H.bucket_index 1e9);
  Alcotest.(check bool) "overflow ub is inf" true (H.bucket_upper (H.nbuckets - 1) = infinity);
  (* monotone: larger values never map to smaller buckets *)
  let last = ref (-1) in
  List.iter
    (fun v ->
      let i = H.bucket_index v in
      if i < !last then Alcotest.failf "bucket_index not monotone at %g" v;
      last := i)
    [ 1e-10; 1e-9; 5e-9; 1e-6; 3.16e-4; 1e-3; 0.02; 0.5; 1.0; 31.6; 999.0; 1e4 ];
  (* count / sum / quantile *)
  let h = H.create () in
  Alcotest.(check bool) "empty quantile is nan" true (Float.is_nan (H.quantile h 0.5));
  List.iter (H.observe h) [ 0.001; 0.002; 0.004; 1.0 ];
  Alcotest.(check int) "count" 4 (H.count h);
  Alcotest.(check (float 1e-9)) "sum" 1.007 (H.sum h);
  (* interpolated: p99's continuous rank (3.96 of 4) falls inside the
     largest value's bucket, so the estimate sits strictly inside that
     bucket rather than snapping to its upper bound *)
  let q99 = H.quantile h 0.99 in
  let i_max = H.bucket_index 1.0 in
  Alcotest.(check bool) "p99 inside the largest value's bucket" true
    (q99 > H.bucket_upper (i_max - 1) && q99 <= H.bucket_upper i_max);
  let nz = H.nonzero_buckets h in
  Alcotest.(check int) "nonzero bucket hits total" 4
    (List.fold_left (fun a (_, _, c) -> a + c) 0 nz)

(* Satellite of the run-ledger PR: quantile edge semantics.  Empty
   histograms, q outside [0,1], q in {0,1}, and within-bucket linear
   interpolation are all pinned down — `runs compare` and the bench
   gates consume these numbers. *)
let test_quantile_edges () =
  let module H = Metrics.Histo in
  (* empty: every q is nan *)
  let h = H.create () in
  List.iter
    (fun q ->
      Alcotest.(check bool)
        (Printf.sprintf "empty q=%g is nan" q)
        true
        (Float.is_nan (H.quantile h q)))
    [ 0.0; 0.5; 1.0 ];
  (* single bucket: q=0 is its lower edge, q=1 its upper bound, and the
     estimate moves linearly in between *)
  let h = H.create () in
  for _ = 1 to 10 do
    H.observe h 0.02
  done;
  let i = H.bucket_index 0.02 in
  let lower = H.bucket_upper (i - 1) and upper = H.bucket_upper i in
  Alcotest.(check (float 1e-12)) "q=0 is the occupied bucket's lower edge" lower
    (H.quantile h 0.0);
  Alcotest.(check (float 1e-12)) "q=1 is the occupied bucket's upper bound" upper
    (H.quantile h 1.0);
  Alcotest.(check (float 1e-12)) "q=0.5 is the bucket midpoint" (lower +. (0.5 *. (upper -. lower)))
    (H.quantile h 0.5);
  (* q is clamped, not rejected *)
  Alcotest.(check (float 1e-12)) "q<0 clamps to 0" (H.quantile h 0.0) (H.quantile h (-3.0));
  Alcotest.(check (float 1e-12)) "q>1 clamps to 1" (H.quantile h 1.0) (H.quantile h 7.0);
  (* monotone in q across several occupied buckets, and always finite *)
  let h = H.create () in
  List.iter (H.observe h) [ 1e-6; 1e-4; 0.01; 0.5; 2.0; 40.0; 1e9 ];
  let prev = ref neg_infinity in
  for k = 0 to 20 do
    let q = float_of_int k /. 20.0 in
    let v = H.quantile h q in
    Alcotest.(check bool) (Printf.sprintf "finite at q=%g" q) true (Float.is_finite v);
    if v < !prev then Alcotest.failf "quantile not monotone at q=%g (%g < %g)" q v !prev;
    prev := v
  done;
  (* the overflow observation keeps q=1 at the largest finite bound *)
  Alcotest.(check (float 1e-12)) "overflow q=1 at largest finite bound"
    (H.bucket_upper (H.nbuckets - 2))
    (H.quantile h 1.0)

(* Satellite: Siesta_obs.Json must round-trip Metrics.to_json exactly —
   the run ledger stores that snapshot and `runs compare` reads it back.
   Escaped metric names, 2^53-magnitude counters and histogram bucket
   arrays all survive parse -> to_string -> parse unchanged. *)
let test_metrics_json_roundtrip () =
  Metrics.reset ();
  Metrics.set_enabled true;
  Metrics.incr (Metrics.counter "plain.counter") 3;
  Metrics.incr (Metrics.counter "esc\"aped\\name\tweird") 1;
  Metrics.incr (Metrics.counter "run.id{id=\"deadbeef\"}") 1;
  Metrics.incr (Metrics.counter "big.counter") ((1 lsl 53) - 1);
  Metrics.set (Metrics.gauge "neg.gauge") (-0.125);
  let h = Metrics.histogram "some.h" in
  List.iter (Metrics.observe h) [ 1e-6; 0.02; 0.5; 123.0 ];
  let txt = Metrics.to_json () in
  Metrics.set_enabled false;
  Metrics.reset ();
  let j = Json.parse_exn txt in
  let counter name =
    match Option.bind (Json.member name j) (Json.member "value") with
    | Some (Json.Num v) -> v
    | _ -> Alcotest.failf "counter %S missing from snapshot" name
  in
  Alcotest.(check (float 0.0)) "plain counter exact" 3.0 (counter "plain.counter");
  Alcotest.(check (float 0.0)) "escaped name survives" 1.0 (counter "esc\"aped\\name\tweird");
  Alcotest.(check (float 0.0)) "labeled run.id metric present" 1.0
    (counter "run.id{id=\"deadbeef\"}");
  (* 2^53 - 1 is the largest odd integer a float carries exactly; the
     printer and parser must both preserve it bit-for-bit *)
  Alcotest.(check (float 0.0)) "2^53-1 counter exact"
    (float_of_int ((1 lsl 53) - 1))
    (counter "big.counter");
  (match Option.bind (Json.member "some.h" j) (Json.member "buckets") with
  | Some (Json.Arr buckets) ->
      Alcotest.(check int) "four occupied buckets" 4 (List.length buckets);
      let total =
        List.fold_left
          (fun acc b ->
            match Json.member "count" b with Some (Json.Num c) -> acc +. c | _ -> acc)
          0.0 buckets
      in
      Alcotest.(check (float 0.0)) "bucket counts sum" 4.0 total
  | _ -> Alcotest.fail "histogram buckets missing");
  (* printer round-trip: parse (to_string j) is structurally identical,
     including nested arrays and the nan/inf -> null rule *)
  Alcotest.(check bool) "parse . to_string = id" true (Json.parse_exn (Json.to_string j) = j);
  let weird =
    Json.Obj
      [
        ("nan", Json.Num Float.nan);
        ("inf", Json.Num Float.infinity);
        ("nested", Json.Arr [ Json.Arr [ Json.Str "<script>"; Json.Num 0.1 ]; Json.Null ]);
      ]
  in
  let reparsed = Json.parse_exn (Json.to_string weird) in
  Alcotest.(check bool) "nan prints as null" true (Json.member "nan" reparsed = Some Json.Null);
  Alcotest.(check bool) "inf prints as null" true (Json.member "inf" reparsed = Some Json.Null);
  Alcotest.(check bool) "0.1 survives shortest-round-trip printing" true
    (Json.to_string reparsed = Json.to_string (Json.parse_exn (Json.to_string reparsed)))

(* The run id correlates the telemetry streams — log lines carry the
   whole id as run=<id>, span traces stamp otherData.run_id, and the id
   is env-overridable so a wrapping script can pin it. *)
let test_run_id_correlation () =
  let module Run_id = Siesta_obs.Run_id in
  let saved = Run_id.get () in
  Fun.protect ~finally:(fun () -> Run_id.set saved) @@ fun () ->
  Alcotest.(check bool) "default id is non-empty hex" true
    (String.length saved > 0
    && String.for_all (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) saved);
  Run_id.set "feedc0ffee123456";
  Alcotest.(check string) "set/get" "feedc0ffee123456" (Run_id.get ());
  Run_id.set "   ";
  Alcotest.(check string) "blank set is ignored" "feedc0ffee123456" (Run_id.get ());
  (* log lines carry the id *)
  let path = tmp_path ".log" in
  Log.set_sink_file path;
  Log.set_level Log.Info;
  Log.info (fun () -> ("runid.test", [ ("k", "v") ]));
  Log.flush ();
  Log.set_sink_stderr ();
  let line =
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove path;
    s
  in
  (* the whole id: its first 8 digits are a clock that two processes
     started within a minute of each other share *)
  Alcotest.(check bool) "log line carries run=<id>" true
    (contains line "run=feedc0ffee123456 ");
  (* span traces stamp the full id into otherData *)
  Span.reset ();
  Span.set_enabled true;
  Span.with_ "stamped" (fun () -> ());
  Span.set_enabled false;
  let j = Json.parse_exn (Span.to_chrome_json ()) in
  Alcotest.(check (option string))
    "otherData.run_id is the full id" (Some "feedc0ffee123456")
    (Option.bind (Json.member "otherData" j) (fun o ->
         Option.bind (Json.member "run_id" o) Json.to_string_opt));
  Span.reset ()

let test_metrics_registry () =
  Metrics.reset ();
  let c1 = Metrics.counter "test.reg.c" in
  let c2 = Metrics.counter "test.reg.c" in
  (* find-or-create is idempotent: both handles hit the same cell *)
  Metrics.set_enabled true;
  Metrics.incr c1 3;
  Metrics.incr c2 4;
  Alcotest.(check int) "same cell" 7 (Metrics.counter_value c1);
  (* disabled increments are dropped *)
  Metrics.set_enabled false;
  Metrics.incr c1 100;
  Alcotest.(check int) "disabled incr is a no-op" 7 (Metrics.counter_value c1);
  (* kind mismatch is a programming error *)
  (match Metrics.gauge "test.reg.c" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch not detected");
  Metrics.set_enabled true;
  Metrics.set (Metrics.gauge "test.reg.g") 2.5;
  Metrics.observe (Metrics.histogram "test.reg.h") 0.01;
  Metrics.set_enabled false;
  let names = List.map fst (Metrics.snapshot ()) in
  Alcotest.(check bool) "snapshot sorted" true (names = List.sort compare names);
  Alcotest.(check bool) "all three registered" true
    (List.for_all (fun n -> List.mem n names) [ "test.reg.c"; "test.reg.g"; "test.reg.h" ]);
  (* both serializations are well-formed; JSON parses back *)
  let j = Json.parse_exn (Metrics.to_json ()) in
  Alcotest.(check bool) "metrics JSON parses" true (j <> Json.Null);
  Alcotest.(check bool) "text snapshot mentions counter" true
    (contains (Metrics.to_text ()) "test.reg.c")

(* ------------------------------------------------------------------ *)
(* Concurrent counters (qcheck) *)

let prop_concurrent_counter_exact =
  QCheck.Test.make ~name:"concurrent counter increments sum exactly" ~count:30
    QCheck.(pair (int_range 2 4) (list_of_size Gen.(1 -- 50) (int_range 1 100)))
    (fun (ndomains, deltas) ->
      Metrics.reset ();
      Metrics.set_enabled true;
      let c = Metrics.counter "test.conc.c" in
      let per_domain () = List.iter (fun d -> Metrics.incr c d) deltas in
      let doms = List.init ndomains (fun _ -> Domain.spawn per_domain) in
      List.iter Domain.join doms;
      let expect = ndomains * List.fold_left ( + ) 0 deltas in
      let got = Metrics.counter_value c in
      Metrics.set_enabled false;
      Metrics.reset ();
      if got <> expect then QCheck.Test.fail_reportf "lost updates: got %d, want %d" got expect
      else true)

(* ------------------------------------------------------------------ *)
(* Logger *)

let test_log_level_filtering () =
  let path = tmp_path ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Log.set_sink_file path;
      Log.set_level Log.Info;
      let debug_forced = ref false in
      Log.debug (fun () ->
          debug_forced := true;
          ("should.not.appear", []));
      Log.info (fun () -> ("visible.info", [ ("k", "v"); ("spaced", "a b") ]));
      Log.warn (fun () -> ("visible.warn", []));
      Log.set_level Log.Off;
      Log.warn (fun () -> ("off.drops.warn", []));
      Log.set_sink_stderr () (* flushes + closes the file sink *);
      let ic = open_in path in
      let n = in_channel_length ic in
      let content = really_input_string ic n in
      close_in ic;
      let has s = contains content s in
      Alcotest.(check bool) "debug filtered" false (has "should.not.appear");
      Alcotest.(check bool) "debug thunk never forced" false !debug_forced;
      Alcotest.(check bool) "info emitted" true (has "visible.info");
      Alcotest.(check bool) "kv rendered" true (has "k=v");
      Alcotest.(check bool) "spaced value quoted" true (has "spaced=\"a b\"");
      Alcotest.(check bool) "warn emitted" true (has "visible.warn");
      Alcotest.(check bool) "off drops everything" false (has "off.drops.warn"))

let test_log_level_parsing () =
  List.iter
    (fun (s, l) -> Alcotest.(check bool) s true (Log.level_of_string s = l))
    [
      ("debug", Some Log.Debug);
      ("info", Some Log.Info);
      ("warn", Some Log.Warn);
      ("off", Some Log.Off);
      ("banana", None);
    ];
  Alcotest.(check string) "name roundtrip" "info" (Log.level_name Log.Info)

(* ------------------------------------------------------------------ *)
(* End-to-end: the --trace-out path *)

let test_pipeline_trace_out_smoke () =
  let path = tmp_path ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Span.reset ();
      Metrics.reset ();
      Span.set_enabled true;
      Metrics.set_enabled true;
      let spec = Pipeline.spec ~workload:"CG" ~nranks:8 () in
      let traced = Pipeline.trace spec in
      let sy = Pipeline.synthesize traced in
      ignore (Codegen.generate sy.Pipeline.sy_proxy);
      Span.write ~path;
      Span.set_enabled false;
      Metrics.set_enabled false;
      (* stage timings mirror the spans *)
      let stages = List.map fst sy.Pipeline.sy_timings in
      Alcotest.(check (list string)) "synthesis timings"
        [ "trace.original"; "trace.instrumented"; "merge"; "synthesize" ]
        stages;
      List.iter
        (fun (n, s) -> if s < 0.0 then Alcotest.failf "negative stage time for %s" n)
        sy.Pipeline.sy_timings;
      (* the emitted file is a Chrome trace with >= 5 distinct pipeline
         stage spans — same acceptance as `siesta check-trace` *)
      let ic = open_in path in
      let n = in_channel_length ic in
      let content = really_input_string ic n in
      close_in ic;
      let evs = complete_events content in
      let stage_names =
        List.sort_uniq compare
          (List.filter_map
             (fun (n, cat, _, _, _) -> if cat = "pipeline" then Some n else None)
             evs)
      in
      Alcotest.(check bool)
        (Printf.sprintf "(>= 5 distinct pipeline stages, got %d: %s)"
           (List.length stage_names)
           (String.concat ", " stage_names))
        true
        (List.length stage_names >= 5);
      (* metrics carry the per-MPI-call counters and the QP iterations *)
      let names = List.map fst (Metrics.snapshot ()) in
      let has_prefix p = List.exists (fun n -> String.length n >= String.length p
                                              && String.sub n 0 (String.length p) = p) names in
      Alcotest.(check bool) "per-call MPI counters" true (has_prefix "mpi.calls.");
      Alcotest.(check bool) "per-call MPI bytes" true (has_prefix "mpi.bytes.");
      Alcotest.(check bool) "qp iteration counter" true
        (List.mem "synth.search.qp_iterations" names))

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "clock monotonic" `Quick (protecting test_clock_monotonic);
    Alcotest.test_case "json roundtrip" `Quick (protecting test_json_roundtrip);
    Alcotest.test_case "json escape parses back" `Quick (protecting test_json_escape_parses_back);
    Alcotest.test_case "json rejects garbage" `Quick (protecting test_json_rejects_garbage);
    Alcotest.test_case "span disabled records nothing" `Quick
      (protecting test_span_disabled_records_nothing);
    Alcotest.test_case "span nesting and ordering" `Quick
      (protecting test_span_nesting_and_ordering);
    Alcotest.test_case "span survives exceptions" `Quick (protecting test_span_survives_exceptions);
    Alcotest.test_case "chrome json shape" `Quick (protecting test_span_chrome_json_shape);
    Alcotest.test_case "histogram bucket boundaries" `Quick
      (protecting test_histogram_bucket_boundaries);
    Alcotest.test_case "quantile edge semantics" `Quick (protecting test_quantile_edges);
    Alcotest.test_case "metrics json roundtrip" `Quick (protecting test_metrics_json_roundtrip);
    Alcotest.test_case "run id correlation" `Quick (protecting test_run_id_correlation);
    Alcotest.test_case "metrics registry" `Quick (protecting test_metrics_registry);
    QCheck_alcotest.to_alcotest prop_concurrent_counter_exact;
    Alcotest.test_case "log level filtering" `Quick (protecting test_log_level_filtering);
    Alcotest.test_case "log level parsing" `Quick (protecting test_log_level_parsing);
    Alcotest.test_case "pipeline trace-out smoke" `Slow
      (protecting test_pipeline_trace_out_smoke);
  ]
