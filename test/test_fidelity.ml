(* Tests for the simulated-time fidelity observatory: per-rank timelines,
   critical-path extraction and the proxy-vs-original divergence report
   (siesta diff). *)

module Timeline = Siesta_analysis.Timeline
module Critical_path = Siesta_analysis.Critical_path
module Divergence = Siesta_analysis.Divergence
module Pipeline = Siesta.Pipeline
module Registry = Siesta_workloads.Registry
module E = Siesta_mpi.Engine
module D = Siesta_mpi.Datatype
module Call = Siesta_mpi.Call
module Counters = Siesta_perf.Counters
module Json = Siesta_obs.Json

let platform = Siesta_platform.Spec.platform_a
let impl = Siesta_platform.Mpi_impl.openmpi
let feq = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Golden critical path: 2-rank ping-pong.

   rank 0: sleep 1 ms; send 1000 B (eager); recv the reply
   rank 1: recv; sleep 2 ms; send the reply

   The critical path must thread rank0's sleep -> the matched transfer
   -> rank1's sleep -> the reply -> rank0's final recv, so both sleeps
   (3 ms of compute) are on the path and the attributions sum exactly to
   the run's elapsed simulated time. *)

let ping_pong ctx =
  match E.rank ctx with
  | 0 ->
      E.sleep ctx 1e-3;
      E.send ctx ~dest:1 ~tag:7 ~dt:D.Byte ~count:1000;
      E.recv ctx ~src:1 ~tag:8 ~dt:D.Byte ~count:1000
  | _ ->
      E.recv ctx ~src:0 ~tag:7 ~dt:D.Byte ~count:1000;
      E.sleep ctx 2e-3;
      E.send ctx ~dest:0 ~tag:8 ~dt:D.Byte ~count:1000

let test_ping_pong_critical_path () =
  let tl, res = Timeline.record ~platform ~impl ~nranks:2 ping_pong in
  let cp = Critical_path.compute tl in
  feq "length = elapsed" res.E.elapsed cp.Critical_path.length;
  let sum l = List.fold_left (fun a (_, s) -> a +. s) 0.0 l in
  feq "by_name sums to length" cp.Critical_path.length (sum cp.Critical_path.by_name);
  feq "by_kind sums to length" cp.Critical_path.length (sum cp.Critical_path.by_kind);
  let compute_s =
    List.assoc Timeline.Compute cp.Critical_path.by_kind
  in
  feq "both sleeps on the path" 3e-3 compute_s;
  (* the path hops ranks at least twice (0 -> 1 for the reply's sender,
     1 -> 0 for the forward message) *)
  let hops =
    Array.fold_left
      (fun a s -> if s.Critical_path.st_remote then a + 1 else a)
      0 cp.Critical_path.steps
  in
  Alcotest.(check bool) "has cross-rank hops" true (hops >= 2);
  (* steps tile (0, length] chronologically *)
  let ok = ref true in
  let prev = ref 0.0 in
  Array.iter
    (fun s ->
      if s.Critical_path.st_t0 <> !prev || s.Critical_path.st_t1 <= s.Critical_path.st_t0 then
        ok := false;
      prev := s.Critical_path.st_t1)
    cp.Critical_path.steps;
  Alcotest.(check bool) "steps tile the interval" true (!ok && !prev = cp.Critical_path.length)

let test_ping_pong_matches () =
  let tl, _ = Timeline.record ~platform ~impl ~nranks:2 ping_pong in
  Alcotest.(check int) "two matched transfers" 2 (Array.length tl.Timeline.matches);
  let m = tl.Timeline.matches.(0) in
  Alcotest.(check int) "first match src" 0 m.Timeline.pm_src;
  Alcotest.(check int) "first match dst" 1 m.Timeline.pm_dst;
  Alcotest.(check bool) "1000 B is eager under openmpi" false m.Timeline.pm_rdv;
  Alcotest.(check int) "payload bytes" 1000 m.Timeline.pm_bytes

(* ------------------------------------------------------------------ *)
(* Property: per-rank segments are ordered, contiguous, non-overlapping
   and tile [0, per_rank_elapsed]. *)

let check_tiling tl =
  let open Timeline in
  Array.iteri
    (fun r segs ->
      let cursor = ref 0.0 in
      Array.iter
        (fun s ->
          if s.t1 <= s.t0 then failwith "empty or inverted segment";
          if s.t0 <> !cursor then failwith "gap or overlap";
          cursor := s.t1)
        segs;
      if abs_float (!cursor -. tl.per_rank_elapsed.(r)) > 1e-12 then
        failwith "segments do not sum to the rank's elapsed time")
    tl.segments;
  true

let prop_segments_tile =
  QCheck.Test.make ~name:"timeline segments tile each rank's clock (qcheck)" ~count:8
    (QCheck.pair (QCheck.int_range 0 2) (QCheck.int_range 0 1000))
    (fun (wi, seed) ->
      let workload, nranks =
        match wi with 0 -> ("CG", 8) | 1 -> ("MG", 8) | _ -> ("Sweep3d", 16)
      in
      let w = Registry.find workload in
      let tl, res =
        Timeline.record ~platform ~impl ~nranks ~seed
          (w.Registry.program ~nranks ~iters:(Some 2))
      in
      check_tiling tl
      && tl.Timeline.nranks = nranks
      && tl.Timeline.elapsed = res.E.elapsed)

(* ------------------------------------------------------------------ *)
(* Kind totals and wait breakdown are consistent with the tiling. *)

let test_kind_totals () =
  let tl, _ = Timeline.record ~platform ~impl ~nranks:2 ping_pong in
  for r = 0 to 1 do
    let totals = Timeline.kind_totals tl r in
    Alcotest.(check int) "three kinds" 3 (List.length totals);
    let sum = List.fold_left (fun a (_, s) -> a +. s) 0.0 totals in
    feq "kind totals tile the rank clock" tl.Timeline.per_rank_elapsed.(r) sum
  done;
  (* rank 0's final recv waits out rank 1's 2 ms sleep *)
  match Timeline.wait_breakdown tl 0 with
  | (name, _, s) :: _ ->
      Alcotest.(check string) "dominant wait call" "MPI_Recv" name;
      Alcotest.(check bool) "waited at least the peer sleep" true (s >= 2e-3)
  | [] -> Alcotest.fail "rank 0 has no wait segments"

(* ------------------------------------------------------------------ *)
(* Chrome export: one track per rank, simulated-clock marker. *)

let test_chrome_export () =
  let nranks = 8 in
  let w = Registry.find "CG" in
  let tl, _ =
    Timeline.record ~platform ~impl ~nranks (w.Registry.program ~nranks ~iters:(Some 2))
  in
  let json = Timeline.to_chrome_json tl in
  match Json.parse json with
  | Error e -> Alcotest.fail ("chrome JSON does not parse: " ^ e)
  | Ok doc ->
      let clock =
        Option.bind (Json.member "otherData" doc) (fun o ->
            Option.bind (Json.member "clock" o) Json.to_string_opt)
      in
      Alcotest.(check (option string)) "clock marker" (Some "simulated") clock;
      let events =
        match Json.member "traceEvents" doc with
        | Some e -> Json.to_list e
        | None -> Alcotest.fail "no traceEvents"
      in
      let tids = Hashtbl.create 16 in
      List.iter
        (fun e ->
          match Option.bind (Json.member "tid" e) Json.to_float_opt with
          | Some tid -> Hashtbl.replace tids tid ()
          | None -> ())
        events;
      Alcotest.(check int) "one track per rank" nranks (Hashtbl.length tids)

(* ------------------------------------------------------------------ *)
(* Divergence: self-diff is exactly zero. *)

let test_self_diff_zero () =
  let nranks = 8 in
  let w = Registry.find "CG" in
  let program = w.Registry.program ~nranks ~iters:(Some 2) in
  let c = Divergence.capture ~platform ~impl ~nranks program in
  let r = Divergence.diff ~original:c ~proxy:c in
  Alcotest.(check bool) "lossless" true r.Divergence.r_lossless;
  Alcotest.(check (list string)) "no reasons" [] r.Divergence.r_reasons;
  feq "comm matrix distance" 0.0 r.Divergence.r_comm_matrix_dist;
  feq "timeline distance" 0.0 r.Divergence.r_timeline_distance;
  feq "time error" 0.0 r.Divergence.r_time_error;
  Alcotest.(check int) "no unpaired compute events" 0 r.Divergence.r_compute_unpaired;
  List.iter
    (fun m ->
      feq
        (Printf.sprintf "%s error" (Counters.metric_name m.Divergence.me_metric))
        0.0 m.Divergence.me_max)
    r.Divergence.r_compute_errors;
  Alcotest.(check string) "verdict" "faithful"
    (Divergence.verdict_name (Divergence.verdict r))

(* ------------------------------------------------------------------ *)
(* End-to-end diff of a real synthesis: comm replay must be lossless. *)

let synthesis =
  lazy
    (let s = Pipeline.spec ~workload:"CG" ~nranks:8 () in
     Pipeline.synthesize (Pipeline.trace s))

let test_pipeline_diff_lossless () =
  let sy = Lazy.force synthesis in
  let fid = Pipeline.diff_synthesis sy in
  let r = fid.Pipeline.f_report in
  Alcotest.(check bool) "lossless comm replay" true r.Divergence.r_lossless;
  Alcotest.(check int) "six metrics" 6 (List.length r.Divergence.r_compute_errors);
  List.iter
    (fun m -> Alcotest.(check bool) "metric errors finite" true (Float.is_finite m.Divergence.me_mean))
    r.Divergence.r_compute_errors;
  match Divergence.verdict r with
  | Divergence.Comm_divergent reasons ->
      Alcotest.fail ("unexpected comm divergence: " ^ String.concat "; " reasons)
  | _ -> ()

let test_perturbed_diff_detected () =
  let sy = Lazy.force synthesis in
  let bad = { sy with Pipeline.sy_proxy = Divergence.perturb `Comm sy.Pipeline.sy_proxy } in
  let fid = Pipeline.diff_synthesis bad in
  let r = fid.Pipeline.f_report in
  Alcotest.(check bool) "not lossless" false r.Divergence.r_lossless;
  Alcotest.(check bool) "has reasons" true (r.Divergence.r_reasons <> []);
  (match Divergence.verdict r with
  | Divergence.Comm_divergent _ -> ()
  | v -> Alcotest.fail ("expected comm-divergent, got " ^ Divergence.verdict_name v));
  (* the markdown and JSON renderings must surface the violation *)
  let md = Divergence.to_markdown r in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "markdown mentions NOT lossless" true (contains md "NOT lossless")

let test_perturb_compute () =
  let sy = Lazy.force synthesis in
  let bad = { sy with Pipeline.sy_proxy = Divergence.perturb `Compute sy.Pipeline.sy_proxy } in
  let fid = Pipeline.diff_synthesis bad in
  let r = fid.Pipeline.f_report in
  Alcotest.(check bool) "comm still lossless" true r.Divergence.r_lossless;
  match Divergence.verdict ~compute_tolerance:0.05 r with
  | Divergence.Compute_divergent _ -> ()
  | v ->
      Alcotest.fail
        ("expected compute-divergent under a 5% tolerance, got " ^ Divergence.verdict_name v)

(* ------------------------------------------------------------------ *)
(* Rule attribution on a real grammar: sums to the path length. *)

let test_rule_attribution_sums () =
  let sy = Lazy.force synthesis in
  let tl, _ = Pipeline.record_timeline sy.Pipeline.sy_trace.Pipeline.ts_spec in
  let cp = Critical_path.compute ~merged:sy.Pipeline.sy_proxy.Siesta_synth.Proxy_ir.merged tl in
  let sum l = List.fold_left (fun a (_, s) -> a +. s) 0.0 l in
  Alcotest.(check bool) "rule attribution present" true (cp.Critical_path.by_rule <> []);
  feq "by_rule sums to length" cp.Critical_path.length (sum cp.Critical_path.by_rule);
  feq "by_name sums to length" cp.Critical_path.length (sum cp.Critical_path.by_name)

(* ------------------------------------------------------------------ *)
(* The capture folds each call as the engine runs.  A test hook records
   every rank's calls, and the reference folds that list after the run
   the way the capture once did: a name-keyed table of counts and bytes,
   and the world-rank send matrix (Send, Isend and a Sendrecv's send
   side). *)

let recorded_calls ~nranks program =
  let calls = Array.make nranks [] in
  let hook =
    {
      E.on_event = (fun ~rank ~papi:_ ~call -> calls.(rank) <- call :: calls.(rank));
      per_event_overhead = 0.0;
    }
  in
  ignore (E.run ~platform ~impl ~nranks ~hook program);
  Array.map (fun l -> Array.of_list (List.rev l)) calls

let reference_fold ~nranks calls =
  let tbl = Hashtbl.create 32 in
  Array.iter
    (Array.iter (fun call ->
         let name = Call.name call in
         let n, b = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl name) in
         Hashtbl.replace tbl name (n + 1, b + Call.payload_bytes call)))
    calls;
  let m = Array.make_matrix nranks nranks 0.0 in
  Array.iteri
    (fun src calls ->
      Array.iter
        (fun call ->
          match call with
          | Call.Send p | Call.Isend (p, _) | Call.Sendrecv { send = p; _ } ->
              let d = p.Call.peer in
              if d >= 0 && d < nranks then
                m.(src).(d) <- m.(src).(d) +. float_of_int (Call.payload_bytes call)
          | _ -> ())
        calls)
    calls;
  (List.sort compare (Hashtbl.fold (fun name (n, b) acc -> (name, n, b) :: acc) tbl []), m)

let check_capture_folds what ~nranks program (c : Divergence.capture) timeline =
  let table, matrix = reference_fold ~nranks (recorded_calls ~nranks program) in
  let folded =
    List.init Call.n_kinds Fun.id
    |> List.filter (fun k -> c.Divergence.c_counts.(k) > 0)
    |> List.map (fun k -> (Call.kind_name k, c.Divergence.c_counts.(k), c.Divergence.c_bytes.(k)))
    |> List.sort compare
  in
  Alcotest.(check (list (triple string int int))) (what ^ ": counts and bytes") table folded;
  let bits = Int64.bits_of_float in
  Alcotest.(check bool)
    (what ^ ": send matrix bit for bit")
    true
    (Array.for_all2 (Array.for_all2 (fun a b -> bits a = bits b)) matrix c.Divergence.c_send_matrix);
  let sums totals = List.map (fun (k, s) -> (Timeline.kind_name k, bits s)) totals in
  for r = 0 to nranks - 1 do
    Alcotest.(check (list (pair string int64)))
      (Printf.sprintf "%s: rank %d kind sums bit for bit" what r)
      (sums (Timeline.kind_totals timeline r))
      (sums c.Divergence.c_kind_totals.(r))
  done

let test_capture_folds_registry () =
  List.iter
    (fun (w : Registry.t) ->
      let nranks = 4 in
      let s = Pipeline.spec ~workload:w.Registry.name ~nranks () in
      check_capture_folds w.Registry.name ~nranks
        (w.Registry.program ~nranks ~iters:None)
        (Pipeline.capture_original s)
        (fst (Pipeline.record_timeline s)))
    Registry.all

(* Wildcard receives, non-blocking requests, a Sendrecv ring and a
   collective, with unequal compute so the wildcards match in arrival
   order. *)
let wildcard_program ctx =
  let r = E.rank ctx and n = E.size ctx in
  let work k =
    E.compute ctx
      (Siesta_perf.Kernel.streaming ~label:"w" ~flops:(1e5 *. float_of_int k) ~bytes:1e5)
  in
  for it = 1 to 3 do
    work (((r * 7) + it) mod 5 + 1);
    if r = 0 then begin
      let reqs =
        List.init (n - 1) (fun _ ->
            E.irecv ctx ~src:Call.any_source ~tag:Call.any_tag ~dt:D.Int ~count:64)
      in
      E.waitall ctx reqs;
      for d = 1 to n - 1 do
        E.send ctx ~dest:d ~tag:it ~dt:D.Double ~count:(100 * d)
      done
    end
    else begin
      let req = E.isend ctx ~dest:0 ~tag:r ~dt:D.Int ~count:64 in
      work r;
      E.wait ctx req;
      E.recv ctx ~src:0 ~tag:Call.any_tag ~dt:D.Double ~count:(100 * r)
    end;
    E.sendrecv ctx ~dest:((r + 1) mod n) ~send_tag:9 ~src:((r + n - 1) mod n) ~recv_tag:9
      ~dt:D.Byte ~send_count:(1000 + r) ~recv_count:(1000 + ((r + n - 1) mod n));
    E.allreduce ctx (E.comm_world ctx) ~dt:D.Double ~count:8 ~op:Siesta_mpi.Op.Sum
  done

let test_capture_folds_wildcards () =
  let nranks = 4 in
  let c = Divergence.capture ~platform ~impl ~nranks wildcard_program in
  Alcotest.(check bool) "some send volume" true
    (Array.exists (Array.exists (fun v -> v > 0.0)) c.Divergence.c_send_matrix);
  check_capture_folds "wildcards" ~nranks wildcard_program c
    (fst (Timeline.record ~platform ~impl ~nranks wildcard_program))

(* A capture keeps per-kind counts, the send matrix and per-rank sums:
   apart from the computation deltas, its size does not grow with the
   run. *)
let test_capture_memory_flat () =
  let words iters =
    let c =
      Divergence.capture ~platform ~impl ~nranks:4
        ((Registry.find "CG").Registry.program ~nranks:4 ~iters:(Some iters))
    in
    Obj.reachable_words (Obj.repr c) - Obj.reachable_words (Obj.repr c.Divergence.c_compute)
  in
  Alcotest.(check int) "words beside c_compute, 200 vs 50 iterations" (words 50) (words 200)

let suite =
  [
    Alcotest.test_case "ping-pong critical path (golden)" `Quick test_ping_pong_critical_path;
    Alcotest.test_case "ping-pong p2p matches" `Quick test_ping_pong_matches;
    Alcotest.test_case "kind totals + wait breakdown" `Quick test_kind_totals;
    Alcotest.test_case "chrome export: tracks + clock marker" `Quick test_chrome_export;
    Alcotest.test_case "self-diff is zero" `Quick test_self_diff_zero;
    Alcotest.test_case "pipeline diff: lossless comm replay" `Quick test_pipeline_diff_lossless;
    Alcotest.test_case "perturbed comm is detected" `Quick test_perturbed_diff_detected;
    Alcotest.test_case "perturbed compute is detected" `Quick test_perturb_compute;
    Alcotest.test_case "rule attribution sums" `Quick test_rule_attribution_sums;
    Alcotest.test_case "capture folds equal the call-list reference (registry @4)" `Quick
      test_capture_folds_registry;
    Alcotest.test_case "capture folds equal the call-list reference (wildcards)" `Quick
      test_capture_folds_wildcards;
    Alcotest.test_case "capture memory does not grow with iterations" `Quick
      test_capture_memory_flat;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_segments_tile ]
