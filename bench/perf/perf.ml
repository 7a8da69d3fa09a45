(* siesta-perf: the repository's end-to-end and per-layer benchmark.

     perf.exe --workload W --seed N --seconds S --trace 0|1 [--trace-dir DIR]
         one run of one workload in this process; the last line of
         stdout is the result object
     perf.exe [--seed N] [--seconds S] [--trace-dir DIR]
         every workload, each in a fresh child process (traced too when
         DIR is given)
     perf.exe --selfcheck [--seconds S]
         two interleaved sets of 5 runs per workload; exit 1 unless their
         medians agree within BENCHMARK.json's bounds
     perf.exe --validate BENCHMARK.json
         exit 1 unless the file declares exactly what this program
         produces (runs nothing)

   Each op drives public entry points only: [Pipeline.synthesize_spec
   ~cache:true], [Codegen_c.generate] and [Pipeline.diff_synthesis].
   Stores live in a private directory under the working directory that
   is removed at exit; the run ledger is never armed.  README.md
   documents the workloads and metrics. *)

module Pipeline = Siesta.Pipeline
module Codegen = Siesta_synth.Codegen_c
module Codec = Siesta_store.Codec
module Store = Siesta_store.Store
module Registry = Siesta_workloads.Registry
module Comm_check = Siesta_analysis.Comm_check
module Divergence = Siesta_analysis.Divergence
module Span = Siesta_obs.Span
module Metrics = Siesta_obs.Metrics
module Clock = Siesta_obs.Clock
module Json = Siesta_obs.Json
module Parallel = Siesta_util.Parallel
module Stats = Perf_bench.Stats
module Accounting = Perf_bench.Accounting
module Catalog = Perf_bench.Catalog

(* ------------------------------------------------------------------ *)
(* Workloads *)

type kind =
  | Cold  (** cold synthesis + codegen on a fresh store *)
  | Diff  (** [diff_synthesis] of a cached synthesis *)
  | Warm  (** warm synthesis (every stage a cache hit) + codegen *)

type workload = { name : string; kind : kind; specs : int -> Pipeline.spec list }

let long_trace seed = Pipeline.spec ~workload:"CG" ~nranks:16 ~iters:1000 ~seed ()
let wide_ranks seed = Pipeline.spec ~workload:"StirTurb" ~nranks:512 ~seed ()

let registry seed =
  List.map (fun w -> Pipeline.spec ~workload:w.Registry.name ~nranks:64 ~seed ()) Registry.all

let workloads =
  [
    { name = "long_trace"; kind = Cold; specs = (fun s -> [ long_trace s ]) };
    { name = "wide_ranks"; kind = Cold; specs = (fun s -> [ wide_ranks s ]) };
    { name = "registry_diff"; kind = Diff; specs = registry };
    {
      name = "warm_cache";
      kind = Warm;
      specs = (fun s -> registry s @ [ long_trace s; wide_ranks s ]);
    };
  ]

(* ------------------------------------------------------------------ *)
(* Process plumbing *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Scratch stays inside the working directory and is gone at exit. *)
let private_dir name =
  let root = ".perf-tmp" in
  (try Sys.mkdir root 0o755 with Sys_error _ -> ());
  let dir = Filename.concat root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  at_exit (fun () ->
      rm_rf dir;
      try Sys.rmdir root with Sys_error _ -> ());
  dir

(* Peak RSS of the timed phase: /proc/self/clear_refs "5" resets VmHWM.
   The recorder's trace buffers live off the OCaml heap, so heap
   statistics alone would miss them. *)
let reset_peak_rss () =
  Gc.compact ();
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" In_channel.input_all
      |> String.split_on_char '\n'
      |> List.find_map (fun l ->
             Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb *. 1024.0 /. 1e6))
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ------------------------------------------------------------------ *)
(* One run *)

(* No [~domains]: the merge borrows the shipped warm pool, as every caller
   of the library does, so a change to the pool's cost shows here. *)
let synth ~store spec = Pipeline.synthesize_spec ~cache:true ~store spec

let all_hit (sy : Pipeline.synthesis) =
  let st = sy.Pipeline.sy_status in
  List.for_all (( = ) Pipeline.Cache_hit) [ st.cs_trace; st.cs_merge; st.cs_proxy ]

type prepared = {
  store : Store.t;
  sys : Pipeline.synthesis array;  (** per spec, from the setup *)
  refs : string array;  (** per spec: the C every op must reproduce *)
}

(* Set-up: cold-synthesize every spec into a fresh store.  For the cold
   workloads this is a warm-up op (heap growth, first-touch pages); for
   the others it fills the store the ops read.  Its C is the reference
   every later op and check must reproduce.  Like every timed op, each
   synthesis starts from a collected heap: the heap never shrinks, so
   without it the garbage of earlier specs set the timed phase's peak
   RSS, which then varied with the seed (README.md). *)
let setup ~dir specs =
  let store = Store.open_ ~root:dir () in
  let sys =
    Array.map
      (fun spec ->
        Gc.full_major ();
        synth ~store spec)
      specs
  in
  { store; sys; refs = Array.map (fun sy -> Codegen.generate sy.Pipeline.sy_proxy) sys }

(* Replay is lossless and the static check clean. *)
let faithful (f : Pipeline.fidelity) =
  f.f_report.Divergence.r_lossless
  && Option.fold ~none:false ~some:(fun r -> Comm_check.verdict r = Comm_check.Clean) f.f_check

(* The timed op.  It returns the bytes of C it emitted and the (untimed)
   verdict on its output. *)
let op kind ~dir p i spec =
  match kind with
  | Cold ->
      let root = Filename.concat dir "op" in
      rm_rf root;
      fun () ->
        let store = Store.open_ ~root () in
        let c = Codegen.generate (synth ~store spec).sy_proxy in
        (String.length c, fun () -> c = p.refs.(i))
  | Warm ->
      fun () ->
        let sy = synth ~store:p.store spec in
        let c = Codegen.generate sy.sy_proxy in
        (String.length c, fun () -> all_hit sy && c = p.refs.(i))
  | Diff ->
      fun () ->
        let f = Pipeline.diff_synthesis p.sys.(i) in
        (0, fun () -> faithful f)

(* The output checks, untimed, once per distinct spec: lossless replay,
   a clean static check, and a warm re-synthesis and a codec round-trip
   that both reproduce the reference C.  Returns the failures and the
   fidelity time error. *)
let check p i spec =
  let sy = synth ~store:p.store spec in
  let f = Pipeline.diff_synthesis sy in
  let rt = Codec.decode_proxy (Codec.encode_proxy sy.sy_proxy) in
  let failures =
    List.filter_map
      (fun (ok, what) -> if ok then None else Some what)
      [
        (faithful f, "replay is not lossless or the communication check is not clean");
        (all_hit sy, "warm re-synthesis missed the cache");
        (Codegen.generate sy.sy_proxy = p.refs.(i), "warm re-synthesis changed the C");
        (Codegen.generate rt = p.refs.(i), "codec round-trip changed the C");
      ]
  in
  let where = Printf.sprintf "%s@%d" spec.workload.Registry.name spec.nranks in
  (List.map (fun w -> where ^ ": " ^ w) failures, f.f_report.r_time_error)

type sample = {
  secs : float;
  traced : bool;
  ok : bool;
  c_bytes : int;
  minor_words : float;
  minor_gcs : int;
  major_gcs : int;
}

(* Each op starts from a collected heap, so neither its time nor the peak
   RSS depends on the garbage of whichever op the shuffle put before it. *)
let timed ~traced f =
  Span.set_enabled traced;
  Metrics.set_enabled traced;
  Gc.full_major ();
  let g0 = Gc.quick_stat () and w0 = Gc.minor_words () in
  let t0 = Clock.now_s () in
  let c_bytes, verdict =
    try Span.with_ ~cat:"bench" "bench.op" f
    with e ->
      Printf.eprintf "op raised %s\n%!" (Printexc.to_string e);
      (0, fun () -> false)
  in
  let secs = Clock.now_s () -. t0 in
  let g1 = Gc.quick_stat () and w1 = Gc.minor_words () in
  Metrics.set_enabled false;
  {
    secs;
    traced;
    ok = verdict ();
    c_bytes;
    minor_words = w1 -. w0;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
  }

let setup_reps = 3
let min_rounds = 3

type run = {
  setup_s : float list;
  samples : sample list;
  rounds : float list;  (** mean untraced op seconds of each round *)
  pairs : (float * float) list;  (** traced mode: (untraced, traced) seconds per spec pair *)
  peak_mb : float;
  proxy_bytes : int;
  check_failures : string list;
  time_error : float;
}

let run_workload w ~seed ~seconds ~trace =
  let specs = Array.of_list (w.specs seed) in
  let dir = private_dir w.name in
  Span.set_enabled trace;
  (* Set up [setup_reps] times, each into a fresh store, and keep the
     last.  The first repetition is timed from process start. *)
  let setup_s, p =
    let rec go k acc =
      let sdir = Filename.concat dir (Printf.sprintf "setup-%d" k) in
      let t0 = if k = 0 then 0.0 else Clock.now_s () in
      let p = Span.with_ ~cat:"bench" "bench.setup" (fun () -> setup ~dir:sdir specs) in
      let acc = (Clock.now_s () -. t0) :: acc in
      if k + 1 = setup_reps then (List.rev acc, p)
      else begin
        rm_rf sdir;
        go (k + 1) acc
      end
    in
    go 0 []
  in
  (* Only the diff ops read the set-up's syntheses, and not their live
     engine runs; the rest is dropped before the peak-RSS reset. *)
  let p =
    let strip (sy : Pipeline.synthesis) =
      { sy with sy_trace = { sy.sy_trace with ts_traced = None } }
    in
    { p with sys = (if w.kind = Diff then Array.map strip p.sys else [||]) }
  in
  (* Timed phase: whole rounds, one op per spec in a seeded order, until
     [seconds] have passed.  Traced runs time every spec twice in a row,
     traced and untraced in alternating order. *)
  let rng = Random.State.make [| seed |] in
  reset_peak_rss ();
  let t_end = Clock.now_s () +. float_of_int seconds in
  let samples = ref [] and pairs = ref [] and rounds = ref [] in
  while Clock.now_s () < t_end || List.length !rounds < min_rounds do
    let order = Array.init (Array.length specs) Fun.id in
    for i = Array.length order - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done;
    let round =
      Array.to_list order
      |> List.concat_map (fun i ->
             let once traced =
               let s = timed ~traced (op w.kind ~dir p i specs.(i)) in
               Span.set_enabled trace;
               s
             in
             if trace then begin
               let first = List.length !pairs land 1 = 1 in
               let a = once first in
               let b = once (not first) in
               let u, t = if first then (b, a) else (a, b) in
               pairs := (u.secs, t.secs) :: !pairs;
               [ a; b ]
             end
             else [ once false ])
    in
    samples := !samples @ round;
    let plain = List.filter_map (fun s -> if s.traced then None else Some s.secs) round in
    rounds := (List.fold_left ( +. ) 0.0 plain /. float_of_int (List.length plain)) :: !rounds
  done;
  let peak_mb = peak_rss_mb () in
  let checks =
    Span.with_ ~cat:"bench" "bench.check" (fun () -> Array.to_list (Array.mapi (check p) specs))
  in
  {
    setup_s;
    samples = !samples;
    rounds = List.rev !rounds;
    pairs = List.rev !pairs;
    peak_mb;
    proxy_bytes = Array.fold_left (fun acc c -> acc + String.length c) 0 p.refs;
    check_failures = List.concat_map fst checks;
    time_error = List.fold_left (fun acc (_, e) -> Float.max acc e) 0.0 checks;
  }

(* ------------------------------------------------------------------ *)
(* Metrics *)

(* A round runs every spec once, so each round is the same mix of work;
   the latency metrics are order statistics over rounds of the mean op
   time, which on a one-spec workload is the op time itself. *)
let end_to_end r =
  [
    ("setup_s", Stats.median r.setup_s);
    ("latency_p50_s", Stats.median r.rounds);
    ("latency_min_s", Stats.minimum r.rounds);
    ("peak_rss_mb", r.peak_mb);
    ("proxy_bytes", float_of_int r.proxy_bytes);
  ]

let per_layer r ~chrome =
  let b = Accounting.breakdown (Accounting.spans_of_chrome chrome) in
  let layers = Accounting.layer_seconds b in
  let l k = List.assoc k layers in
  let ops = float_of_int (max 1 b.Accounting.ops) in
  let per_op name = float_of_int (Metrics.counter_value (Metrics.counter name)) /. ops in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  (* program counters over the traced ops, Gc deltas over the untraced *)
  let mean ~traced f =
    let xs = List.filter_map (fun s -> if s.traced = traced then Some (f s) else None) r.samples in
    ratio (List.fold_left ( +. ) 0.0 xs) (float_of_int (List.length xs))
  in
  let c_bytes = mean ~traced:true (fun s -> float_of_int s.c_bytes) in
  let put_s = l "store.trace_put_s" +. l "store.merge_put_s" +. l "store.proxy_put_s" in
  let get_s = l "store.trace_get_s" +. l "store.merge_get_s" +. l "store.proxy_get_s" in
  layers
  @ [
      ("mpi.calls_per_s", ratio (per_op "pipeline.trace.calls") (l "mpi.original_s"));
      ("trace.recorder_s", Float.max 0.0 (l "trace.instrumented_s" -. l "mpi.original_s"));
      ("trace.events", per_op "pipeline.trace.events");
      ("trace.events_per_s", ratio (per_op "pipeline.trace.events") (l "trace.instrumented_s"));
      ("merge.rules_global", per_op "merge.rules_global");
      ("merge.clusters", per_op "merge.clusters");
      ("synth.qp_solves", per_op "synth.search.calls");
      ("synth.qp_iterations", per_op "synth.search.qp_iterations");
      ("codegen.bytes", c_bytes);
      ("codegen.mb_per_s", ratio c_bytes (l "codegen.s") /. 1e6);
      ("store.put_bytes", per_op "store.put_bytes");
      ("store.get_bytes", per_op "store.get_bytes");
      ("store.put_mb_per_s", ratio (per_op "store.put_bytes") put_s /. 1e6);
      ("store.get_mb_per_s", ratio (per_op "store.get_bytes") get_s /. 1e6);
      ("fidelity.time_error", r.time_error);
      ("op.count", float_of_int b.ops);
      ("op.unattributed_frac", ratio (l "op.unattributed_s") (l "op.s"));
      ("op.minor_words", mean ~traced:false (fun s -> s.minor_words));
      ("op.minor_collections", mean ~traced:false (fun s -> float_of_int s.minor_gcs));
      ("op.major_collections", mean ~traced:false (fun s -> float_of_int s.major_gcs));
      ( "bench.tracing_overhead_pct",
        100.0 *. (Stats.median (List.map (fun (u, t) -> ratio t u) r.pairs) -. 1.0) );
      ("host.domains", float_of_int (Parallel.size (Parallel.global ())));
    ]

(* Lay the values out in the catalog's order; a metric the catalog
   declares but this run did not compute is a bug, not a zero. *)
let report ~workload declared values =
  List.map
    (fun (d : Catalog.metric) ->
      match List.assoc_opt d.name values with
      | Some v -> (d, v)
      | None -> failwith (Printf.sprintf "%s: metric %s was not computed" workload d.name))
    declared

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun ((d : Catalog.metric), v) ->
         (d.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str d.unit_) ]))
       metrics)

let write_file path s = Out_channel.with_open_text path (fun oc -> output_string oc s)

let single ~workload ~seed ~seconds ~trace ~trace_dir =
  let w =
    match List.find_opt (fun w -> w.name = workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "perf: unknown workload %S (one of %s)\n" workload
          (String.concat ", " Catalog.workloads);
        exit 2
  in
  let r = run_workload w ~seed ~seconds ~trace in
  let metrics =
    if trace then begin
      let chrome = Span.to_chrome_json () in
      let m = report ~workload Catalog.per_layer (per_layer r ~chrome:(Json.parse_exn chrome)) in
      Option.iter
        (fun dir ->
          (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
          write_file (Filename.concat dir (workload ^ ".trace.json")) chrome;
          write_file
            (Filename.concat dir (workload ^ ".layers.json"))
            (Json.to_string
               (Json.Obj
                  [ ("workload", Json.Str workload); ("seed", Json.Num (float_of_int seed));
                    ("metrics", metrics_json m) ])
            ^ "\n"))
        trace_dir;
      m
    end
    else report ~workload Catalog.end_to_end (end_to_end r)
  in
  let attempted = List.length r.samples in
  let failed = List.length (List.filter (fun s -> not s.ok) r.samples) in
  List.iter (Printf.printf "%s check failed: %s\n" workload) r.check_failures;
  let line name v unit_ note = Printf.printf "%-14s %-28s %16.10g %s%s\n" workload name v unit_ note in
  List.iter
    (fun ((d : Catalog.metric), v) ->
      line d.name v d.unit_
        (if String.starts_with ~prefix:"latency_" d.name then
           Printf.sprintf "  (n=%d rounds of %d ops)" (List.length r.rounds)
             (List.length (w.specs seed))
         else if d.name = "setup_s" then
           Printf.sprintf "  (median of %s)"
             (String.concat ", " (List.map (Printf.sprintf "%.3f") r.setup_s))
         else ""))
    metrics;
  (* Reported but not in BENCHMARK.json, whose metrics must exist and be
     non-zero on every workload (README.md). *)
  if not trace then begin
    (match Stats.tail (List.map (fun s -> s.secs) r.samples) with
    | Some (p, v) when p > 50.0 ->
        line (Printf.sprintf "latency_p%g_s" p) v "s" (Printf.sprintf "  (n=%d ops)" attempted)
    | _ -> ());
    line "fidelity_time_error" r.time_error "ratio"
      (Printf.sprintf "  (max over %d specs)" (List.length (w.specs seed)))
  end;
  line "failed_ratio"
    (float_of_int failed /. float_of_int (max 1 attempted))
    "ratio"
    (Printf.sprintf "  (%d of %d ops)" failed attempted);
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0 && r.check_failures = []));
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ("metrics", metrics_json metrics);
          ]))

(* ------------------------------------------------------------------ *)
(* Several runs, each in a fresh child process *)

let child args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  let _, status = Unix.waitpid [] pid in
  let lines = String.split_on_char '\n' (String.trim out) in
  let last = List.nth lines (List.length lines - 1) in
  match (status, Json.parse last) with
  | Unix.WEXITED 0, Ok j when Json.member "correct" j = Some (Json.Bool true) -> Ok (lines, j)
  | _ -> Error (String.concat " " args)

let run_args ~workload ~seed ~seconds ~trace =
  [ "--workload"; workload; "--seed"; string_of_int seed; "--seconds"; string_of_int seconds;
    "--trace"; (if trace then "1" else "0") ]

let metric_value j name =
  Option.bind (Json.member "metrics" j) (fun m ->
      Option.bind (Json.member name m) (fun v ->
          Option.bind (Json.member "value" v) Json.to_float_opt))

let read_file path = In_channel.with_open_text path In_channel.input_all

let suite ~seed ~seconds ~trace_dir =
  let modes = false :: (if trace_dir = None then [] else [ true ]) in
  let results =
    List.concat_map
      (fun trace ->
        List.map
          (fun workload ->
            let extra =
              match trace_dir with Some d when trace -> [ "--trace-dir"; d ] | _ -> []
            in
            match child (run_args ~workload ~seed ~seconds ~trace @ extra) with
            | Ok (lines, j) ->
                List.iteri (fun i l -> if i < List.length lines - 1 then print_endline l) lines;
                Some ((if trace then workload ^ ".trace" else workload), j)
            | Error what ->
                Printf.printf "run failed: %s\n" what;
                None)
          Catalog.workloads)
      modes
  in
  let ok = List.for_all Option.is_some results in
  print_endline (Json.to_string (Json.Obj (List.filter_map Fun.id results)));
  exit (if ok then 0 else 1)

(* Two sets of [runs] runs per workload, interleaved and alternating
   which set goes first, with the same seeds in both; they agree when
   each end-to-end median of B is within BENCHMARK.json's bound of A's. *)
let selfcheck ~seconds =
  let runs = 5 in
  let bounds = Catalog.bounds (Json.parse_exn (read_file "BENCHMARK.json")) in
  let got = Hashtbl.create 16 in
  let failures = ref 0 in
  for k = 0 to runs - 1 do
    List.iter
      (fun workload ->
        List.iter
          (fun set ->
            match child (run_args ~workload ~seed:(k + 1) ~seconds ~trace:false) with
            | Ok (_, j) ->
                Printf.eprintf "selfcheck: %s set %c run %d done\n%!" workload set (k + 1);
                Hashtbl.add got (workload, set) j
            | Error what ->
                Printf.eprintf "selfcheck: run failed: %s\n%!" what;
                incr failures)
          (if k land 1 = 0 then [ 'A'; 'B' ] else [ 'B'; 'A' ]))
      Catalog.workloads
  done;
  Printf.printf "selfcheck: %d runs per set, %d s each, seeds 1..%d in both sets\n\n" runs seconds
    runs;
  Printf.printf
    "| workload | metric | unit | A median | A q1..q3 | B median | B q1..q3 | B vs A | bound | \
     agree |\n";
  Printf.printf "|---|---|---|---|---|---|---|---|---|---|\n";
  let disagree = ref 0 in
  List.iter
    (fun workload ->
      List.iter
        (fun (d : Catalog.metric) ->
          let values set =
            List.filter_map (fun j -> metric_value j d.name) (Hashtbl.find_all got (workload, set))
          in
          let a = values 'A' and b = values 'B' in
          if a = [] || b = [] then incr disagree
          else begin
            let summary xs =
              let q1, m, q3 = Stats.quartiles xs in
              (m, Printf.sprintf "%.4g..%.4g" q1 q3)
            in
            let (ma, qa), (mb, qb) = (summary a, summary b) in
            let delta = if ma = 0.0 then 0.0 else (mb -. ma) /. ma in
            let bound = Option.value ~default:0.0 (List.assoc_opt d.name bounds) in
            let agree = Float.abs delta <= bound in
            if not agree then incr disagree;
            Printf.printf "| %s | %s | %s | %.4g | %s | %.4g | %s | %+.1f%% | %g%% | %s |\n"
              workload d.name d.unit_ ma qa mb qb (100.0 *. delta) (100.0 *. bound)
              (if agree then "yes" else "NO")
          end)
        Catalog.end_to_end)
    Catalog.workloads;
  Printf.printf "\n%d failed runs, %d disagreeing (workload, metric) pairs\n" !failures !disagree;
  exit (if !failures = 0 && !disagree = 0 then 0 else 1)

let validate path =
  match Json.parse (read_file path) with
  | Error e ->
      Printf.eprintf "%s: %s\n" path e;
      exit 1
  | Ok doc -> (
      match Catalog.validate doc with
      | [] ->
          Printf.printf "%s: %d workloads, %d end-to-end and %d per-layer metrics, all produced\n"
            path (List.length Catalog.workloads) (List.length Catalog.end_to_end)
            (List.length Catalog.per_layer)
      | errs ->
          List.iter (Printf.eprintf "%s: %s\n" path) errs;
          exit 1)

let () =
  let workload = ref None and seed = ref 42 and seconds = ref 15 and trace = ref false in
  let trace_dir = ref None and validate_path = ref None and self = ref false in
  Arg.parse
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "W  one workload, in this process");
      ("--seed", Arg.Set_int seed, "N  input seed (default 42)");
      ("--seconds", Arg.Set_int seconds, "S  length of the timed phase (default 15)");
      ( "--trace",
        Arg.Symbol ([ "0"; "1" ], fun s -> trace := s = "1"),
        "  1: per-layer (traced) metrics instead of end-to-end" );
      ( "--trace-dir",
        Arg.String (fun d -> trace_dir := Some d),
        "DIR  write <workload>.trace.json and <workload>.layers.json" );
      ( "--validate",
        Arg.String (fun p -> validate_path := Some p),
        "FILE  check a BENCHMARK.json against this program" );
      ("--selfcheck", Arg.Set self, " two interleaved sets of runs; exit 1 unless they agree");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perf.exe: the siesta end-to-end and per-layer benchmark";
  match (!validate_path, !self, !workload) with
  | Some p, _, _ -> validate p
  | None, true, _ -> selfcheck ~seconds:!seconds
  | None, false, Some workload ->
      single ~workload ~seed:!seed ~seconds:!seconds ~trace:!trace ~trace_dir:!trace_dir
  | None, false, None -> suite ~seed:!seed ~seconds:!seconds ~trace_dir:!trace_dir
