(* Tests for the siesta_util domain pool (Parallel). *)

module Parallel = Siesta_util.Parallel
module Log = Siesta_obs.Log

(* putenv with an empty value is how we "unset": Parallel treats an
   empty/whitespace SIESTA_NUM_DOMAINS as absent (OCaml has no unsetenv). *)
let with_env_domains v f =
  let prev = Option.value ~default:"" (Sys.getenv_opt "SIESTA_NUM_DOMAINS") in
  Unix.putenv "SIESTA_NUM_DOMAINS" v;
  Fun.protect ~finally:(fun () -> Unix.putenv "SIESTA_NUM_DOMAINS" prev) f

(* ------------------------------------------------------------------ *)
(* Parallel *)

let test_num_domains_positive () =
  Alcotest.(check bool) ">= 1" true (Parallel.num_domains () >= 1)

let test_map_matches_sequential () =
  let a = Array.init 1000 (fun i -> i * 3) in
  let f i x = (i * 7) + x in
  let expect = Array.mapi f a in
  List.iter
    (fun d ->
      let got = Parallel.map ~domains:d f a in
      Alcotest.(check bool) (Printf.sprintf "domains=%d" d) true (got = expect))
    [ 1; 2; 3; 4 ]

let test_map_edge_inputs () =
  Alcotest.(check bool) "empty" true (Parallel.map ~domains:4 (fun _ x -> x) [||] = [||]);
  Alcotest.(check bool) "singleton" true
    (Parallel.map ~domains:4 (fun i x -> i + x) [| 5 |] = [| 5 |])

let test_pool_reuse () =
  Parallel.with_pool ~domains:3 (fun pool ->
      Alcotest.(check int) "size" 3 (Parallel.size pool);
      let a = Array.init 257 (fun i -> i) in
      let r1 = Parallel.map ~pool (fun _ x -> x * 2) a in
      let r2 = Parallel.map ~pool (fun _ x -> x + 1) a in
      Alcotest.(check bool) "first job" true (r1 = Array.map (fun x -> x * 2) a);
      Alcotest.(check bool) "second job" true (r2 = Array.map (fun x -> x + 1) a))

let test_run_distributes_all_chunks () =
  Parallel.with_pool ~domains:4 (fun pool ->
      let hits = Array.make 100 0 in
      Parallel.run pool ~chunks:100 (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool) "each chunk exactly once" true (Array.for_all (( = ) 1) hits))

exception Boom

let test_exception_propagates () =
  List.iter
    (fun d ->
      let raised =
        try
          ignore
            (Parallel.map ~domains:d (fun i x -> if i = 37 then raise Boom else x)
               (Array.init 100 Fun.id));
          false
        with Boom -> true
      in
      Alcotest.(check bool) (Printf.sprintf "Boom at domains=%d" d) true raised)
    [ 1; 4 ];
  (* the pool survives a failed job *)
  Parallel.with_pool ~domains:4 (fun pool ->
      (try ignore (Parallel.map ~pool (fun _ _ -> raise Boom) (Array.init 10 Fun.id))
       with Boom -> ());
      let ok = Parallel.map ~pool (fun i _ -> i) (Array.init 10 Fun.id) in
      Alcotest.(check bool) "pool usable after failure" true (ok = Array.init 10 Fun.id))

let test_shutdown_idempotent () =
  let pool = Parallel.create ~domains:2 () in
  ignore (Parallel.map ~pool (fun i x -> i + x) (Array.init 64 Fun.id));
  Parallel.shutdown pool;
  Parallel.shutdown pool

(* --- scheduler: sizing, clamp, env validation ---------------------- *)

let recommended () = max 1 (Domain.recommended_domain_count ())

let test_env_sizing_clamped () =
  with_env_domains "7" (fun () ->
      let n, source = Parallel.num_domains_with_source () in
      Alcotest.(check string) "source" "SIESTA_NUM_DOMAINS" source;
      Alcotest.(check int) "clamped to recommended" (min 7 (recommended ())) n;
      let pool = Parallel.create () in
      Fun.protect ~finally:(fun () -> Parallel.shutdown pool) @@ fun () ->
      let s = Parallel.stats pool in
      Alcotest.(check int) "requested recorded" 7 s.Parallel.requested;
      Alcotest.(check int) "effective = clamped size" (min 7 (recommended ())) s.Parallel.domains;
      Alcotest.(check bool) "clamped flag" (recommended () < 7) s.Parallel.clamped)

let test_explicit_sizing_not_clamped () =
  (* explicit ~domains stays raw even when it oversubscribes the host —
     the determinism cross-checks need the true N-domain path *)
  Parallel.with_pool ~domains:4 (fun pool ->
      let s = Parallel.stats pool in
      Alcotest.(check int) "requested" 4 s.Parallel.requested;
      Alcotest.(check int) "effective" 4 s.Parallel.domains;
      Alcotest.(check bool) "not clamped" false s.Parallel.clamped)

let test_invalid_env_rejected () =
  (* invalid values fall back to the recommended count *and* warn,
     naming the rejected value (a silent fallback hid misconfiguration) *)
  let check_rejected value =
    with_env_domains value (fun () ->
        let path = Filename.temp_file "siesta_env" ".log" in
        Fun.protect
          ~finally:(fun () ->
            Log.set_sink_stderr ();
            try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            let prev_level = Log.level () in
            Log.set_sink_file path;
            Log.set_level Log.Warn;
            let n, source = Parallel.num_domains_with_source () in
            Log.flush ();
            Log.set_level prev_level;
            Alcotest.(check int)
              (Printf.sprintf "%S falls back to recommended" value)
              (recommended ()) n;
            Alcotest.(check string) (Printf.sprintf "%S source" value) "recommended" source;
            let ic = open_in path in
            let len = in_channel_length ic in
            let content = really_input_string ic len in
            close_in ic;
            let contains sub =
              let n = String.length content and m = String.length sub in
              let rec go i = i + m <= n && (String.sub content i m = sub || go (i + 1)) in
              go 0
            in
            Alcotest.(check bool)
              (Printf.sprintf "%S warned" value)
              true
              (contains "parallel.num_domains.invalid");
            Alcotest.(check bool)
              (Printf.sprintf "%S named in warning" value)
              true (contains value)))
  in
  check_rejected "abc";
  check_rejected "0"

let test_empty_env_is_unset () =
  with_env_domains "" (fun () ->
      let n, source = Parallel.num_domains_with_source () in
      Alcotest.(check string) "source" "recommended" source;
      Alcotest.(check int) "recommended" (recommended ()) n)

(* --- scheduler: cost gate ------------------------------------------- *)

let test_cost_gate_inlines_after_calibration () =
  Parallel.with_pool ~domains:2 (fun pool ->
      let a = Array.init 64 Fun.id in
      (* first job: uncalibrated pools always dispatch (and calibrate) *)
      ignore (Parallel.map ~pool (fun _ x -> x + 1) a);
      let s1 = Parallel.stats pool in
      Alcotest.(check int) "first job dispatched" 1 s1.Parallel.dispatched_jobs;
      Alcotest.(check bool) "calibrated" false (Float.is_nan s1.Parallel.est_item_cost_s);
      (* second job: 64 trivial items fall under the dispatch threshold *)
      ignore (Parallel.map ~pool (fun _ x -> x + 2) a);
      let s2 = Parallel.stats pool in
      Alcotest.(check int) "second job inlined" 1 s2.Parallel.inline_jobs;
      Alcotest.(check int) "no extra dispatch" 1 s2.Parallel.dispatched_jobs;
      Alcotest.(check int) "both jobs counted" 2 s2.Parallel.jobs)

let test_gate_disabled_always_dispatches () =
  Parallel.with_pool ~domains:2 ~gate:false (fun pool ->
      let a = Array.init 64 Fun.id in
      ignore (Parallel.map ~pool (fun _ x -> x + 1) a);
      ignore (Parallel.map ~pool (fun _ x -> x + 2) a);
      let s = Parallel.stats pool in
      Alcotest.(check int) "both dispatched" 2 s.Parallel.dispatched_jobs;
      Alcotest.(check int) "none inlined" 0 s.Parallel.inline_jobs)

(* --- scheduler: inline-path exception accounting -------------------- *)

let test_inline_exception_accounting () =
  (* a 1-domain pool has no workers, so every job takes the inline path;
     a raising body must still be accounted (busy time, chunk count,
     estimator) — this leaked before the Fun.protect fix *)
  Parallel.with_pool ~domains:1 (fun pool ->
      (try Parallel.run pool ~chunks:8 (fun _ -> raise Boom) with Boom -> ());
      let s = Parallel.stats pool in
      Alcotest.(check int) "job counted" 1 s.Parallel.jobs;
      Alcotest.(check int) "inline" 1 s.Parallel.inline_jobs;
      Alcotest.(check int) "chunk accounted" 1 s.Parallel.chunks_done.(0);
      Alcotest.(check bool) "busy accounted" true (s.Parallel.busy_s.(0) >= 0.0);
      Alcotest.(check bool) "estimator updated despite the exception" false
        (Float.is_nan s.Parallel.est_item_cost_s);
      (* the pool keeps working *)
      let ok = Parallel.map ~pool (fun i _ -> i) (Array.init 8 Fun.id) in
      Alcotest.(check bool) "usable after failure" true (ok = Array.init 8 Fun.id))

(* --- scheduler: shared warm pool ------------------------------------ *)

let test_global_pool_shared () =
  let p1 = Parallel.global () in
  let p2 = Parallel.global () in
  Alcotest.(check bool) "physically shared" true (p1 == p2);
  Alcotest.(check bool) "sized >= 1" true (Parallel.size p1 >= 1);
  (* usable through the default map path (which borrows it) *)
  let a = Array.init 100 Fun.id in
  let got = Parallel.map (fun i x -> i + x) a in
  Alcotest.(check bool) "default map correct" true (got = Array.mapi (fun i x -> i + x) a)

(* qcheck: parallel map == sequential map for arbitrary arrays/domains *)
let prop_map_deterministic =
  QCheck.Test.make ~name:"Parallel.map = Array.mapi (qcheck)" ~count:100
    (QCheck.pair (QCheck.list QCheck.small_int) (QCheck.int_range 1 4))
    (fun (l, d) ->
      let a = Array.of_list l in
      let f i x = (i * 31) lxor x in
      Parallel.map ~domains:d f a = Array.mapi f a)

let qcheck_tests = List.map QCheck_alcotest.to_alcotest [ prop_map_deterministic ]

let suite =
  [
    ("num_domains positive", `Quick, test_num_domains_positive);
    ("map matches sequential at 1..4 domains", `Quick, test_map_matches_sequential);
    ("map edge inputs", `Quick, test_map_edge_inputs);
    ("pool runs several jobs", `Quick, test_pool_reuse);
    ("run covers every chunk once", `Quick, test_run_distributes_all_chunks);
    ("exceptions propagate, pool survives", `Quick, test_exception_propagates);
    ("shutdown idempotent", `Quick, test_shutdown_idempotent);
    ("env sizing clamped to recommended", `Quick, test_env_sizing_clamped);
    ("explicit sizing never clamped", `Quick, test_explicit_sizing_not_clamped);
    ("invalid SIESTA_NUM_DOMAINS rejected with warning", `Quick, test_invalid_env_rejected);
    ("empty SIESTA_NUM_DOMAINS treated as unset", `Quick, test_empty_env_is_unset);
    ("cost gate inlines small jobs after calibration", `Quick,
      test_cost_gate_inlines_after_calibration);
    ("gate:false always dispatches", `Quick, test_gate_disabled_always_dispatches);
    ("inline path accounts failed jobs", `Quick, test_inline_exception_accounting);
    ("global warm pool is shared", `Quick, test_global_pool_shared);
  ]
  @ qcheck_tests
